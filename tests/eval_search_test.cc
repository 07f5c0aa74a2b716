#include "isomorph/eval_search.h"

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
  static std::vector<std::unique_ptr<Pattern>> keep;  // keep source alive
  keep.push_back(std::make_unique<Pattern>(std::move(key->pattern)));
  return Compile(*keep.back(), g);
}

TEST(EvalSearch, ValueBasedKeyIdentifiesSameNameYear) {
  auto m = MakeG1();
  CompiledPattern q2 = CompileDsl(m.g, R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    })");
  EqView eq0;  // node identity only
  EXPECT_TRUE(KeyIdentifies(m.g, q2, m.alb1, m.alb2, eq0));
  // alb3 has year 1997: no coinciding match with alb1.
  EXPECT_FALSE(KeyIdentifies(m.g, q2, m.alb1, m.alb3, eq0));
  EXPECT_FALSE(KeyIdentifies(m.g, q2, m.alb2, m.alb3, eq0));
}

TEST(EvalSearch, RecursiveKeyNeedsEqFact) {
  auto m = MakeG1();
  CompiledPattern q3 = CompileDsl(m.g, R"(
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    })");
  // Under Eq0, art1/art2 cannot be identified: their albums are distinct
  // entities (alb1 vs alb2) and not yet known equal.
  EqView eq0;
  EXPECT_FALSE(KeyIdentifies(m.g, q3, m.art1, m.art2, eq0));
  // After (alb1, alb2) enters Eq, Q3 fires (paper Example 7).
  ConcurrentEquivalence eq(m.g.NumNodes());
  eq.Union(m.alb1, m.alb2);
  EXPECT_TRUE(KeyIdentifies(m.g, q3, m.art1, m.art2, EqView(&eq)));
  // art3 records a different-named album: never identified.
  EXPECT_FALSE(KeyIdentifies(m.g, q3, m.art1, m.art3, EqView(&eq)));
}

TEST(EvalSearch, RecursiveKeyFiresThroughSharedEntity) {
  // Two artists recording the SAME album node: the identity pair (alb,
  // alb) is in Eq0 but per-side injectivity still demands distinct nodes
  // only within one side — (alb, alb) is a legal instantiation.
  Graph g;
  NodeId a1 = g.AddEntity("artist");
  NodeId a2 = g.AddEntity("artist");
  NodeId alb = g.AddEntity("album");
  NodeId name = g.AddValue("N");
  g.AddTriple(a1, "name_of", name).IgnoreError();
  g.AddTriple(a2, "name_of", name).IgnoreError();
  g.AddTriple(alb, "recorded_by", a1).IgnoreError();
  g.AddTriple(alb, "recorded_by", a2).IgnoreError();
  g.Finalize();
  CompiledPattern q3 = CompileDsl(g, R"(
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    })");
  EqView eq0;
  EXPECT_TRUE(KeyIdentifies(g, q3, a1, a2, eq0));
}

TEST(EvalSearch, WildcardDoesNotRequireIdentity) {
  // Q4 fires for (com4, com5) under Eq0: the same-name parent is a
  // wildcard (com1 vs com2 need not be equal), the other parent com3 is
  // shared (paper Example 7: com4/com5 identified BEFORE com1/com2).
  auto c = MakeG2();
  CompiledPattern q4 = CompileDsl(c.g, R"(
    key Q4 for company {
      x -[name_of]-> n*
      _p:company -[name_of]-> n*
      _p -[parent_of]-> x
      y:company -[parent_of]-> x
    })");
  EqView eq0;
  EXPECT_TRUE(KeyIdentifies(c.g, q4, c.com4, c.com5, eq0));
}

TEST(EvalSearch, EntityVarBlocksWhereWildcardWouldPass) {
  // Same pattern as Q4 but with the same-name parent as an entity
  // variable: now (com4, com5) must wait for (com1, com2) ∈ Eq.
  auto c = MakeG2();
  CompiledPattern strict = CompileDsl(c.g, R"(
    key Q4strict for company {
      x -[name_of]-> n*
      p:company -[name_of]-> n*
      p -[parent_of]-> x
      y:company -[parent_of]-> x
    })");
  EqView eq0;
  EXPECT_FALSE(KeyIdentifies(c.g, strict, c.com4, c.com5, eq0));
  ConcurrentEquivalence eq(c.g.NumNodes());
  eq.Union(c.com1, c.com2);
  EXPECT_TRUE(KeyIdentifies(c.g, strict, c.com4, c.com5, EqView(&eq)));
}

TEST(EvalSearch, ConstantCondition) {
  Graph g;
  NodeId s1 = g.AddEntity("street");
  NodeId s2 = g.AddEntity("street");
  NodeId s3 = g.AddEntity("street");
  NodeId zip = g.AddValue("EH8 9AB");
  g.AddTriple(s1, "zip_code", zip).IgnoreError();
  g.AddTriple(s2, "zip_code", zip).IgnoreError();
  g.AddTriple(s3, "zip_code", zip).IgnoreError();
  g.AddTriple(s1, "nation_of", g.AddValue("UK")).IgnoreError();
  g.AddTriple(s2, "nation_of", g.AddValue("UK")).IgnoreError();
  g.AddTriple(s3, "nation_of", g.AddValue("US")).IgnoreError();
  g.Finalize();
  CompiledPattern q6 = CompileDsl(g, R"(
    key Q6 for street {
      x -[zip_code]-> code*
      x -[nation_of]-> "UK"
    })");
  EqView eq0;
  EXPECT_TRUE(KeyIdentifies(g, q6, s1, s2, eq0));
  EXPECT_FALSE(KeyIdentifies(g, q6, s1, s3, eq0));  // s3 is in the US
  EXPECT_FALSE(KeyIdentifies(g, q6, s2, s3, eq0));
}

TEST(EvalSearch, TypeMismatchRejectsImmediately) {
  auto m = MakeG1();
  CompiledPattern q2 = CompileDsl(m.g, R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    })");
  EqView eq0;
  EXPECT_FALSE(KeyIdentifies(m.g, q2, m.alb1, m.art1, eq0));
  EXPECT_FALSE(KeyIdentifies(m.g, q2, m.art1, m.art2, eq0));
}

TEST(EvalSearch, NeighborRestrictionConfinesSearch) {
  auto m = MakeG1();
  CompiledPattern q2 = CompileDsl(m.g, R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    })");
  EqView eq0;
  NodeSet full1 = DNeighbor(m.g, m.alb1, 1);
  NodeSet full2 = DNeighbor(m.g, m.alb2, 1);
  EXPECT_TRUE(KeyIdentifies(m.g, q2, m.alb1, m.alb2, eq0, &full1, &full2));
  // A crippled neighbor set without the year value blocks the match.
  NodeSet crippled;
  crippled.Insert(m.alb1);
  EXPECT_FALSE(
      KeyIdentifies(m.g, q2, m.alb1, m.alb2, eq0, &crippled, &full2));
}

TEST(EvalSearch, StatsAreCounted) {
  auto m = MakeG1();
  CompiledPattern q2 = CompileDsl(m.g, R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    })");
  EqView eq0;
  SearchStats stats;
  EXPECT_TRUE(KeyIdentifies(m.g, q2, m.alb1, m.alb2, eq0, nullptr, nullptr,
                            &stats));
  EXPECT_GT(stats.expansions, 0u);
  EXPECT_GT(stats.feasibility_checks, 0u);
  EXPECT_EQ(stats.full_instantiations, 1u);  // early termination
}

TEST(EvalSearch, MatchesAtSingleSide) {
  // Does G match Q(x) at e (paper §2.1)? The pair (e, e) under node
  // identity.
  auto MatchesAt = [](const Graph& g, const CompiledPattern& cp, NodeId e) {
    return KeyIdentifies(g, cp, e, e, EqView());
  };
  auto m = MakeG1();
  CompiledPattern q1 = CompileDsl(m.g, R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    })");
  EXPECT_TRUE(MatchesAt(m.g, q1, m.alb1));
  EXPECT_FALSE(MatchesAt(m.g, q1, m.art1));  // wrong type
  // An album with no recorded_by edge does not match.
  Graph g2 = m.g;  // copy
  NodeId lonely = g2.AddEntity("album");
  g2.AddTriple(lonely, "name_of", g2.AddValue("Solo")).IgnoreError();
  g2.Finalize();
  CompiledPattern q1b = CompileDsl(g2, R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    })");
  EXPECT_FALSE(MatchesAt(g2, q1b, lonely));
}

TEST(EvalSearch, SelfLoopPattern) {
  Graph g;
  NodeId p1 = g.AddEntity("page");
  NodeId p2 = g.AddEntity("page");
  NodeId p3 = g.AddEntity("page");
  NodeId u = g.AddValue("u");
  g.AddTriple(p1, "links_to", p1).IgnoreError();
  g.AddTriple(p2, "links_to", p2).IgnoreError();
  g.AddTriple(p1, "url", u).IgnoreError();
  g.AddTriple(p2, "url", u).IgnoreError();
  g.AddTriple(p3, "url", u).IgnoreError();  // no self loop
  g.Finalize();
  CompiledPattern k = CompileDsl(g, R"(
    key K for page {
      x -[links_to]-> x
      x -[url]-> u*
    })");
  EqView eq0;
  EXPECT_TRUE(KeyIdentifies(g, k, p1, p2, eq0));
  EXPECT_FALSE(KeyIdentifies(g, k, p1, p3, eq0));
}

TEST(EvalSearch, UnmatchablePatternIsFalse) {
  auto m = MakeG1();
  CompiledPattern ghost = CompileDsl(m.g, R"(
    key K for album {
      x -[no_such_pred]-> n*
    })");
  EXPECT_FALSE(ghost.matchable);
  EqView eq0;
  EXPECT_FALSE(KeyIdentifies(m.g, ghost, m.alb1, m.alb2, eq0));
}

}  // namespace
}  // namespace gkeys
