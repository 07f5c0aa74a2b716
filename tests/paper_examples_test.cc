// Integration tests pinning the paper's own worked examples: the music
// knowledge base G1 with Σ1 = {Q1, Q2, Q3} (Examples 1–9), the company
// base G2 with Σ2 = {Q4, Q5} (Examples 4–7), and the Q6 street key.

#include <gtest/gtest.h>

#include "core/entity_matcher.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::MakeG1;
using testing::MakeG2;
using testing::MakeSigma1;
using testing::MakeSigma2;
using testing::Pairs;

TEST(PaperExamples, Example7MusicChase) {
  // chase(G1, Σ1): (alb1, alb2) by Q2, then (art1, art2) by Q3.
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = Chase(m.g, sigma1);
  EXPECT_EQ(r.pairs, Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}}));
  // It takes the dependency into account: at least 2 rounds of derivation
  // happened (one chase step enabled the other).
  EXPECT_EQ(r.stats.confirmed, 2u);
}

TEST(PaperExamples, Example7CompanyChase) {
  // chase(G2, Σ2): (com4, com5) by Q4, (com1, com2) by Q5.
  auto c = MakeG2();
  KeySet sigma2 = MakeSigma2();
  MatchResult r = Chase(c.g, sigma2);
  EXPECT_EQ(r.pairs, Pairs({{c.com4, c.com5}, {c.com1, c.com2}}));
}

TEST(PaperExamples, Example5SatisfactionViolations) {
  // G2 ⊭ Q4 (com4/com5 coincide but are distinct), and G1 violates Q2.
  auto c = MakeG2();
  KeySet sigma2 = MakeSigma2();
  EXPECT_FALSE(Satisfies(c.g, sigma2));
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  EXPECT_FALSE(Satisfies(m.g, sigma1));
}

TEST(PaperExamples, SatisfactionAfterDeduplication) {
  // A clean graph (one album, one artist) satisfies all music keys.
  Graph g;
  NodeId art = g.AddEntity("artist");
  NodeId alb = g.AddEntity("album");
  g.AddTriple(art, "name_of", g.AddValue("The Beatles")).IgnoreError();
  g.AddTriple(alb, "name_of", g.AddValue("Anthology 2")).IgnoreError();
  g.AddTriple(alb, "release_year", g.AddValue("1996")).IgnoreError();
  g.AddTriple(alb, "recorded_by", art).IgnoreError();
  g.Finalize();
  KeySet sigma1 = MakeSigma1();
  EXPECT_TRUE(Satisfies(g, sigma1));
}

TEST(PaperExamples, IdentifiedDecisionProcedure) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  EXPECT_TRUE(Identified(m.g, sigma1, m.alb1, m.alb2));
  EXPECT_TRUE(Identified(m.g, sigma1, m.art2, m.art1));  // symmetric
  EXPECT_TRUE(Identified(m.g, sigma1, m.alb3, m.alb3));  // reflexive
  EXPECT_FALSE(Identified(m.g, sigma1, m.alb1, m.alb3));
  EXPECT_FALSE(Identified(m.g, sigma1, m.art1, m.art3));
}

TEST(PaperExamples, Q1AloneIsNotEnough) {
  // Without Q2, the mutual recursion Q1/Q3 cannot bootstrap on G1: no
  // value-based evidence ever identifies the albums.
  auto m = MakeG1();
  KeySet partial;
  ASSERT_TRUE(partial.AddFromDsl(R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    }
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
  )").ok());
  MatchResult r = Chase(m.g, partial);
  EXPECT_TRUE(r.pairs.empty());
}

TEST(PaperExamples, Q1FiresViaQ2DerivedArtists) {
  // Extend G1: two more albums of the SAME name recorded by art1/art2.
  // They are identifiable only by Q1 after Q3 identifies the artists —
  // a 3-step derivation chain.
  auto m = MakeG1();
  Graph g = m.g;
  NodeId extra1 = g.AddEntity("album");
  NodeId extra2 = g.AddEntity("album");
  NodeId name = g.AddValue("Abbey Road");
  g.AddTriple(extra1, "name_of", name).IgnoreError();
  g.AddTriple(extra2, "name_of", name).IgnoreError();
  g.AddTriple(extra1, "release_year", g.AddValue("1969")).IgnoreError();
  g.AddTriple(extra2, "release_year", g.AddValue("1970")).IgnoreError();  // differ!
  g.AddTriple(extra1, "recorded_by", m.art1).IgnoreError();
  g.AddTriple(extra2, "recorded_by", m.art2).IgnoreError();
  g.Finalize();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = Chase(g, sigma1);
  EXPECT_EQ(r.pairs, Pairs({{m.alb1, m.alb2},
                            {m.art1, m.art2},
                            {extra1, extra2}}));
  EXPECT_GE(r.stats.rounds, 3u);  // the chain needs three rounds
}

TEST(PaperExamples, Q6StreetsOnlyInUK) {
  Graph g;
  NodeId uk1 = g.AddEntity("street");
  NodeId uk2 = g.AddEntity("street");
  NodeId us1 = g.AddEntity("street");
  NodeId us2 = g.AddEntity("street");
  NodeId zip = g.AddValue("12345");
  for (NodeId s : {uk1, uk2, us1, us2}) {
    g.AddTriple(s, "zip_code", zip).IgnoreError();
  }
  g.AddTriple(uk1, "nation_of", g.AddValue("UK")).IgnoreError();
  g.AddTriple(uk2, "nation_of", g.AddValue("UK")).IgnoreError();
  g.AddTriple(us1, "nation_of", g.AddValue("US")).IgnoreError();
  g.AddTriple(us2, "nation_of", g.AddValue("US")).IgnoreError();
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key Q6 for street {
      x -[zip_code]-> code*
      x -[nation_of]-> "UK"
    }
  )").ok());
  MatchResult r = Chase(g, keys);
  EXPECT_EQ(r.pairs, Pairs({{uk1, uk2}}));
}

TEST(PaperExamples, AllAlgorithmsAgreeOnG1) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  auto expected = Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}});
  for (Algorithm a :
       {Algorithm::kNaiveChase, Algorithm::kEmMr, Algorithm::kEmVf2Mr,
        Algorithm::kEmOptMr, Algorithm::kEmVc, Algorithm::kEmOptVc}) {
    MatchResult r = testing::CompileAndRun(m.g, sigma1, a, 3);
    EXPECT_EQ(r.pairs, expected) << AlgorithmName(a);
  }
}

TEST(PaperExamples, AllAlgorithmsAgreeOnG2) {
  auto c = MakeG2();
  KeySet sigma2 = MakeSigma2();
  auto expected = Pairs({{c.com4, c.com5}, {c.com1, c.com2}});
  for (Algorithm a :
       {Algorithm::kNaiveChase, Algorithm::kEmMr, Algorithm::kEmVf2Mr,
        Algorithm::kEmOptMr, Algorithm::kEmVc, Algorithm::kEmOptVc}) {
    MatchResult r = testing::CompileAndRun(c.g, sigma2, a, 3);
    EXPECT_EQ(r.pairs, expected) << AlgorithmName(a);
  }
}

}  // namespace
}  // namespace gkeys
