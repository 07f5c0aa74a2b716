// EMMR-specific behavior beyond the cross-algorithm matrix: round
// semantics, dependency deferral, incremental re-checking, and stats.

#include "core/em_mapreduce.h"

#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::CompileAndRun;
using testing::MakeG1;
using testing::MakeSigma1;
using testing::Pairs;

TEST(EmMapReduce, RoundsMirrorDerivationDepth) {
  // G1 needs: round 1 (albums by Q2), round 2 (artists by Q3), round 3
  // (fixpoint confirmation).
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = CompileAndRun(m.g, sigma1, Algorithm::kEmMr, 2);
  EXPECT_EQ(r.pairs, Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}}));
  EXPECT_EQ(r.stats.rounds, 3u);
}

TEST(EmMapReduce, DependencyDeferralStillComplete) {
  // With use_dependency, recursive-only pairs enter in round 2 — but a
  // recursive key CAN fire via node identity, so completeness must not
  // rely on value-based seeds alone.
  Graph g;
  NodeId a1 = g.AddEntity("artist");
  NodeId a2 = g.AddEntity("artist");
  NodeId alb = g.AddEntity("album");
  g.AddTriple(a1, "name_of", g.AddValue("N")).IgnoreError();
  g.AddTriple(a2, "name_of", g.AddValue("N")).IgnoreError();
  g.AddTriple(alb, "recorded_by", a1).IgnoreError();
  g.AddTriple(alb, "recorded_by", a2).IgnoreError();
  g.Finalize();
  KeySet keys;
  // ONLY a recursive key; L0 is empty.
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
  )").ok());
  EmOptions opts = EmOptions::For(Algorithm::kEmMr, 2);
  opts.use_dependency = true;
  MatchResult r = CompileAndRun(g, keys, Algorithm::kEmMr, opts);
  EXPECT_EQ(r.pairs, Pairs({{a1, a2}}));
}

TEST(EmMapReduce, IncrementalSkipsQuietPairsButConverges) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 3;
  cfg.entities_per_type = 14;
  cfg.chained_fraction = 1.0;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  EmOptions base = EmOptions::For(Algorithm::kEmMr, 2);
  EmOptions incr = base;
  incr.use_incremental = true;
  MatchResult rb = CompileAndRun(ds.graph, ds.keys, Algorithm::kEmMr, base);
  MatchResult ri = CompileAndRun(ds.graph, ds.keys, Algorithm::kEmMr, incr);
  EXPECT_EQ(rb.pairs, ri.pairs);
  EXPECT_EQ(ri.pairs, ds.planted);
  EXPECT_LE(ri.stats.iso_checks, rb.stats.iso_checks)
      << "incremental must not check more often than the base";
}

TEST(EmMapReduce, AllOptimizationTogglesPreserveResult) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 12;
  cfg.seed = 77;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  for (int mask = 0; mask < 16; ++mask) {
    PlanOptions popts = PlanOptions::For(Algorithm::kEmMr, 3);
    popts.use_pairing = mask & 2;
    EmOptions opts;
    opts.processors = 3;
    opts.use_vf2 = mask & 1;
    opts.use_dependency = mask & 4;
    opts.use_incremental = mask & 8;
    MatchResult r = CompileAndRun(ds.graph, ds.keys,
                                  Matcher(Algorithm::kEmMr).options(opts),
                                  popts);
    EXPECT_EQ(r.pairs, ds.planted) << "option mask " << mask;
  }
}

TEST(EmMapReduce, ResultIndependentOfProcessorCount) {
  SyntheticConfig cfg;
  cfg.num_groups = 3;
  cfg.chain_length = 2;
  cfg.entities_per_type = 14;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  for (int p : {1, 2, 5, 9, 16}) {
    MatchResult r = CompileAndRun(ds.graph, ds.keys, Algorithm::kEmMr, p);
    EXPECT_EQ(r.pairs, ds.planted) << "p=" << p;
  }
}

TEST(EmMapReduce, EmptyCandidatesTerminateImmediately) {
  Graph g;
  g.AddEntity("t");
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl("key K for t { x -[p]-> v* }").ok());
  MatchResult r = CompileAndRun(g, keys, Algorithm::kEmMr, 2);
  EXPECT_TRUE(r.pairs.empty());
  EXPECT_LE(r.stats.rounds, 1u);
}

TEST(EmMapReduce, GhostPairsWakeDependents) {
  // Regression: (a, c) is unpairable by any key (dropped from L), yet it
  // becomes equal transitively via (a,b) + (b,c); the artist pair that
  // depends on (a, c) must still fire under the full optimization stack.
  Graph g;
  NodeId a = g.AddEntity("album");
  NodeId b = g.AddEntity("album");
  NodeId c = g.AddEntity("album");
  NodeId n = g.AddValue("N");
  for (NodeId e : {a, b, c}) g.AddTriple(e, "name_of", n).IgnoreError();
  NodeId y1 = g.AddValue("Y");
  g.AddTriple(a, "release_year", y1).IgnoreError();
  g.AddTriple(b, "release_year", y1).IgnoreError();
  NodeId l = g.AddValue("L");
  g.AddTriple(b, "label", l).IgnoreError();
  g.AddTriple(c, "label", l).IgnoreError();
  NodeId r1 = g.AddEntity("artist");
  NodeId r2 = g.AddEntity("artist");
  NodeId an = g.AddValue("AN");
  g.AddTriple(r1, "name_of", an).IgnoreError();
  g.AddTriple(r2, "name_of", an).IgnoreError();
  g.AddTriple(a, "recorded_by", r1).IgnoreError();
  g.AddTriple(c, "recorded_by", r2).IgnoreError();
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
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
  )").ok());
  MatchResult oracle = Chase(g, keys);
  EXPECT_EQ(oracle.pairs.size(), 4u);  // 3 album pairs + the artist pair
  for (int p : {1, 4}) {
    MatchResult r = CompileAndRun(g, keys, Algorithm::kEmOptMr, p);
    EXPECT_EQ(r.pairs, oracle.pairs) << "EMOptMR p=" << p;
  }
}

TEST(EmMapReduce, StatsConsistent) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = CompileAndRun(m.g, sigma1, Algorithm::kEmMr, 2);
  EXPECT_EQ(r.stats.confirmed, r.pairs.size());
  EXPECT_GT(r.stats.iso_checks, 0u);
  EXPECT_GE(r.stats.candidates_initial, r.stats.candidates);
  EXPECT_GT(r.stats.search.feasibility_checks, 0u);
}

}  // namespace
}  // namespace gkeys
