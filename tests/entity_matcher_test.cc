// Facade-level tests: option presets, custom-option dispatch, and a few
// pattern shapes not covered elsewhere (parallel edges, diamond patterns,
// multiple keys per type racing on the same pair).

#include "core/entity_matcher.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace gkeys {
namespace {

using testing::Pairs;

TEST(EmOptionsPresets, MatchThePaperVariants) {
  EmOptions mr = EmOptions::For(Algorithm::kEmMr, 4);
  EXPECT_EQ(mr.processors, 4);
  EXPECT_FALSE(mr.use_vf2);
  EXPECT_FALSE(PlanOptions::For(Algorithm::kEmMr, 4).use_pairing);

  EmOptions vf2 = EmOptions::For(Algorithm::kEmVf2Mr, 4);
  EXPECT_TRUE(vf2.use_vf2);

  EmOptions opt_mr = EmOptions::For(Algorithm::kEmOptMr, 4);
  EXPECT_TRUE(PlanOptions::For(Algorithm::kEmOptMr, 4).use_pairing);
  EXPECT_TRUE(opt_mr.use_dependency);
  EXPECT_TRUE(opt_mr.use_incremental);

  EmOptions vc = EmOptions::For(Algorithm::kEmVc, 4);
  // Gp is built from pairing (§5.1).
  EXPECT_TRUE(PlanOptions::For(Algorithm::kEmVc, 4).use_pairing);
  EXPECT_EQ(vc.bounded_messages, 0);
  EXPECT_FALSE(vc.prioritized);

  EmOptions opt_vc = EmOptions::For(Algorithm::kEmOptVc, 4);
  EXPECT_EQ(opt_vc.bounded_messages, 4);  // the paper's k = 4
  EXPECT_TRUE(opt_vc.prioritized);
}

TEST(EntityMatcher, AlgorithmNamesAreStable) {
  EXPECT_EQ(AlgorithmName(Algorithm::kNaiveChase), "NaiveChase");
  EXPECT_EQ(AlgorithmName(Algorithm::kEmMr), "EMMR");
  EXPECT_EQ(AlgorithmName(Algorithm::kEmVf2Mr), "EMVF2MR");
  EXPECT_EQ(AlgorithmName(Algorithm::kEmOptMr), "EMOptMR");
  EXPECT_EQ(AlgorithmName(Algorithm::kEmVc), "EMVC");
  EXPECT_EQ(AlgorithmName(Algorithm::kEmOptVc), "EMOptVC");
}

TEST(EntityMatcher, CustomOptionsDispatch) {
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();
  EmOptions custom;
  custom.processors = 2;
  custom.bounded_messages = 2;
  auto plan = Matcher::Compile(m.g, sigma1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto r = Matcher(Algorithm::kEmOptVc).options(custom).Run(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->pairs, Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}}));
}

// Diamond-shaped pattern: two paths from x converge on one value.
TEST(EntityMatcher, DiamondPattern) {
  Graph g;
  auto make = [&](const char* v_left, const char* v_right) {
    NodeId x = g.AddEntity("doc");
    NodeId l = g.AddEntity("sec");
    NodeId r = g.AddEntity("sec");
    g.AddTriple(x, "first", l).IgnoreError();
    g.AddTriple(x, "second", r).IgnoreError();
    g.AddTriple(l, "hash", g.AddValue(v_left)).IgnoreError();
    g.AddTriple(r, "hash", g.AddValue(v_right)).IgnoreError();
    return x;
  };
  NodeId d1 = make("H1", "H2");
  NodeId d2 = make("H1", "H2");
  NodeId d3 = make("H1", "H3");  // second section differs
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key DocByHashes for doc {
      x -[first]-> _l:sec
      x -[second]-> _r:sec
      _l -[hash]-> h1*
      _r -[hash]-> h2*
    }
  )").ok());
  for (Algorithm a : {Algorithm::kNaiveChase, Algorithm::kEmOptMr,
                      Algorithm::kEmOptVc}) {
    MatchResult r = testing::CompileAndRun(g, keys, a, 2);
    EXPECT_EQ(r.pairs, Pairs({{d1, d2}})) << AlgorithmName(a);
    (void)d3;
  }
}

// Two edges with different predicates between the same pattern nodes.
TEST(EntityMatcher, ParallelPatternEdges) {
  Graph g;
  auto make = [&](bool both) {
    NodeId x = g.AddEntity("user");
    NodeId y = g.AddEntity("account");
    g.AddTriple(x, "owns", y).IgnoreError();
    if (both) g.AddTriple(x, "manages", y).IgnoreError();
    g.AddTriple(x, "name", g.AddValue("sam")).IgnoreError();
    return x;
  };
  NodeId u1 = make(true);
  NodeId u2 = make(true);
  NodeId u3 = make(false);  // owns but does not manage
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key UserByManagedAccount for user {
      x -[name]-> n*
      x -[owns]-> _a:account
      x -[manages]-> _a
    }
  )").ok());
  for (Algorithm a : {Algorithm::kNaiveChase, Algorithm::kEmOptMr,
                      Algorithm::kEmOptVc}) {
    MatchResult r = testing::CompileAndRun(g, keys, a, 2);
    EXPECT_EQ(r.pairs, Pairs({{u1, u2}})) << AlgorithmName(a);
    (void)u3;
  }
}

// Several keys race on the same pair: identification is "any key", and
// the result never double-counts.
TEST(EntityMatcher, MultipleKeysSamePair) {
  Graph g;
  NodeId a = g.AddEntity("album");
  NodeId b = g.AddEntity("album");
  NodeId n = g.AddValue("N");
  NodeId y = g.AddValue("Y");
  NodeId l = g.AddValue("L");
  for (NodeId e : {a, b}) {
    g.AddTriple(e, "name_of", n).IgnoreError();
    g.AddTriple(e, "release_year", y).IgnoreError();
    g.AddTriple(e, "label", l).IgnoreError();
  }
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key ByYear for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    }
    key ByLabel for album {
      x -[name_of]-> n*
      x -[label]-> l*
    }
  )").ok());
  for (Algorithm algo :
       {Algorithm::kEmMr, Algorithm::kEmVc, Algorithm::kEmOptVc}) {
    MatchResult r = testing::CompileAndRun(g, keys, algo, 4);
    EXPECT_EQ(r.pairs, Pairs({{a, b}})) << AlgorithmName(algo);
    EXPECT_EQ(r.stats.confirmed, 1u);
  }
}

// A key on a type that exists but whose predicate vocabulary is partially
// missing must simply never fire (compile-time unmatchable).
TEST(EntityMatcher, PartiallyUnmatchableKeySet) {
  auto m = testing::MakeG1();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key Real for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    }
    key Ghost for album {
      x -[no_such_predicate]-> n*
    }
  )").ok());
  for (Algorithm a : {Algorithm::kNaiveChase, Algorithm::kEmOptMr,
                      Algorithm::kEmVc}) {
    MatchResult r = testing::CompileAndRun(m.g, keys, a, 2);
    EXPECT_EQ(r.pairs, Pairs({{m.alb1, m.alb2}})) << AlgorithmName(a);
  }
}

}  // namespace
}  // namespace gkeys
