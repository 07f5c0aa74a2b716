#include "isomorph/vf2.h"

#include <gtest/gtest.h>

#include <memory>

#include "pattern/parser.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::MakeG1;
using testing::MakeG2;
using testing::ParseKey;

CompiledPattern CompileDsl(const Graph& g, const char* dsl) {
  auto key = ParseKey(dsl);
  EXPECT_TRUE(key.ok()) << key.status().ToString();
  static std::vector<std::unique_ptr<Pattern>> keep;
  keep.push_back(std::make_unique<Pattern>(std::move(key->pattern)));
  return Compile(*keep.back(), g);
}

TEST(Vf2, EnumeratesAllMatches) {
  auto m = MakeG1();
  CompiledPattern q1 = CompileDsl(m.g, R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    })");
  // alb1 has exactly one match: {name -> Anthology 2, y -> art1}.
  auto matches = EnumerateMatches(m.g, q1, m.alb1);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][0], m.alb1);  // designated first in node order
  // Wrong-typed start has no matches.
  EXPECT_TRUE(EnumerateMatches(m.g, q1, m.art1).empty());
}

TEST(Vf2, MultipleMatchesEnumerated) {
  // An album recorded by two artists has two Q1 matches.
  Graph g;
  NodeId alb = g.AddEntity("album");
  NodeId a1 = g.AddEntity("artist");
  NodeId a2 = g.AddEntity("artist");
  g.AddTriple(alb, "name_of", g.AddValue("N")).IgnoreError();
  g.AddTriple(alb, "recorded_by", a1).IgnoreError();
  g.AddTriple(alb, "recorded_by", a2).IgnoreError();
  g.Finalize();
  CompiledPattern q1 = CompileDsl(g, R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    })");
  EXPECT_EQ(EnumerateMatches(g, q1, alb).size(), 2u);
}

TEST(Vf2, MaxMatchesCap) {
  Graph g;
  NodeId alb = g.AddEntity("album");
  g.AddTriple(alb, "name_of", g.AddValue("N")).IgnoreError();
  for (int i = 0; i < 10; ++i) {
    g.AddTriple(alb, "recorded_by", g.AddEntity("artist")).IgnoreError();
  }
  g.Finalize();
  CompiledPattern q1 = CompileDsl(g, R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    })");
  EXPECT_EQ(EnumerateMatches(g, q1, alb, nullptr, 3).size(), 3u);
  EXPECT_EQ(EnumerateMatches(g, q1, alb, nullptr, 0).size(), 10u);
}

TEST(Vf2, CoincideChecksEntityVarsAndValues) {
  auto m = MakeG1();
  CompiledPattern q1 = CompileDsl(m.g, R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    })");
  auto m1 = EnumerateMatches(m.g, q1, m.alb1);
  auto m2 = EnumerateMatches(m.g, q1, m.alb2);
  ASSERT_EQ(m1.size(), 1u);
  ASSERT_EQ(m2.size(), 1u);
  // Same name but distinct artists: coincide only once artists are in Eq.
  EqView eq0;
  EXPECT_FALSE(Coincide(m.g, q1, m1[0], m2[0], eq0));
  ConcurrentEquivalence eq(m.g.NumNodes());
  eq.Union(m.art1, m.art2);
  EXPECT_TRUE(Coincide(m.g, q1, m1[0], m2[0], EqView(&eq)));
}

TEST(Vf2, IdentifiesByEnumerationMatchesEvalSearch) {
  // The naive enumeration procedure and the combined search must agree on
  // the paper's graphs for every pair and key (Lemma 8).
  auto m = MakeG1();
  const char* keys[] = {
      R"(key Q1 for album {
        x -[name_of]-> n*
        x -[recorded_by]-> y:artist
      })",
      R"(key Q2 for album {
        x -[name_of]-> n*
        x -[release_year]-> yr*
      })",
      R"(key Q3 for artist {
        x -[name_of]-> n*
        y:album -[recorded_by]-> x
      })",
  };
  ConcurrentEquivalence eq(m.g.NumNodes());
  eq.Union(m.alb1, m.alb2);  // one derived fact, to exercise entity vars
  EqView view(&eq);
  std::vector<NodeId> all = {m.alb1, m.alb2, m.alb3,
                             m.art1, m.art2, m.art3};
  for (const char* dsl : keys) {
    CompiledPattern cp = CompileDsl(m.g, dsl);
    for (NodeId a : all) {
      for (NodeId b : all) {
        if (a == b) continue;
        EXPECT_EQ(IdentifiesByEnumeration(m.g, cp, a, b, view),
                  KeyIdentifies(m.g, cp, a, b, view))
            << "disagreement at (" << a << ", " << b << ")";
      }
    }
  }
}

TEST(Vf2, DagPatternOnG2) {
  auto c = MakeG2();
  CompiledPattern q4 = CompileDsl(c.g, R"(
    key Q4 for company {
      x -[name_of]-> n*
      _p:company -[name_of]-> n*
      _p -[parent_of]-> x
      y:company -[parent_of]-> x
    })");
  EqView eq0;
  EXPECT_TRUE(IdentifiesByEnumeration(c.g, q4, c.com4, c.com5, eq0));
  EXPECT_FALSE(IdentifiesByEnumeration(c.g, q4, c.com1, c.com2, eq0));
}

TEST(Vf2, StatsCountFullEnumeration) {
  auto m = MakeG1();
  CompiledPattern q2 = CompileDsl(m.g, R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    })");
  EqView eq0;
  SearchStats enum_stats, search_stats;
  EXPECT_TRUE(IdentifiesByEnumeration(m.g, q2, m.alb1, m.alb2, eq0, nullptr,
                                      nullptr, &enum_stats));
  EXPECT_TRUE(KeyIdentifies(m.g, q2, m.alb1, m.alb2, eq0, nullptr, nullptr,
                            &search_stats));
  // VF2 enumerates both sides fully: at least as much work as the combined
  // early-terminating search (the §6 EMMR-vs-EMVF2MR effect in miniature).
  EXPECT_GE(enum_stats.full_instantiations,
            search_stats.full_instantiations);
}

}  // namespace
}  // namespace gkeys
