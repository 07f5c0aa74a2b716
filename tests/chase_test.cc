// The sequential reference chase (tests/chase_reference.h), the oracle
// the engines are checked against.
#include "chase_reference.h"

#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::MakeG1;
using testing::MakeSigma1;
using testing::Pairs;

TEST(Chase, EmptyKeySetYieldsNothing) {
  auto m = MakeG1();
  KeySet empty;
  MatchResult r = Chase(m.g, empty);
  EXPECT_TRUE(r.pairs.empty());
  EXPECT_EQ(r.stats.candidates, 0u);
}

TEST(Chase, KeysOnAbsentTypesYieldNothing) {
  auto m = MakeG1();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl("key K for martian { x -[p]-> v* }").ok());
  MatchResult r = Chase(m.g, keys);
  EXPECT_TRUE(r.pairs.empty());
}

TEST(Chase, ChurchRosserOrderIndependence) {
  // Proposition 1: every chase order yields the same result. Shuffle the
  // candidate visit order with many seeds.
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult base = Chase(m.g, sigma1);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ChaseOptions opts;
    opts.shuffle_seed = seed;
    MatchResult r = Chase(m.g, sigma1, opts);
    EXPECT_EQ(r.pairs, base.pairs) << "seed " << seed;
  }
}

TEST(Chase, ChurchRosserOnSyntheticWorkload) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 3;
  cfg.entities_per_type = 14;
  cfg.seed = 99;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  MatchResult base = Chase(ds.graph, ds.keys);
  for (uint64_t seed : {7u, 77u, 777u}) {
    ChaseOptions opts;
    opts.shuffle_seed = seed;
    MatchResult r = Chase(ds.graph, ds.keys, opts);
    EXPECT_EQ(r.pairs, base.pairs) << "seed " << seed;
  }
}

TEST(Chase, DataLocality) {
  // (G, Σ) |= (e1, e2) iff (Gd1 ∪ Gd2, Σ) |= (e1, e2): restricting the
  // search to d-neighbors changes nothing (paper §4.1).
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.radius = 2;
  cfg.entities_per_type = 16;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  ChaseOptions restricted;  // default: d-neighbor restricted
  ChaseOptions unrestricted;
  unrestricted.unrestricted_neighbors = true;
  EXPECT_EQ(Chase(ds.graph, ds.keys, restricted).pairs,
            Chase(ds.graph, ds.keys, unrestricted).pairs);
}

TEST(Chase, Vf2BackendAgrees) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  ChaseOptions vf2;
  vf2.use_vf2 = true;
  EXPECT_EQ(Chase(m.g, sigma1, vf2).pairs, Chase(m.g, sigma1).pairs);
}

TEST(Chase, TransitiveClosureInOutput) {
  // Three albums, all with the same name and year: every pair coincides,
  // and the output contains all three pairs (TC of Eq).
  Graph g;
  NodeId a = g.AddEntity("album");
  NodeId b = g.AddEntity("album");
  NodeId c = g.AddEntity("album");
  NodeId n = g.AddValue("N");
  NodeId y = g.AddValue("Y");
  for (NodeId e : {a, b, c}) {
    g.AddTriple(e, "name_of", n).IgnoreError();
    g.AddTriple(e, "release_year", y).IgnoreError();
  }
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    }
  )").ok());
  MatchResult r = Chase(g, keys);
  EXPECT_EQ(r.pairs, Pairs({{a, b}, {a, c}, {b, c}}));
}

TEST(Chase, TransitiveClosureAcrossKeys) {
  // a~b by name+year, b~c by name+label: a~c only by transitivity.
  Graph g;
  NodeId a = g.AddEntity("album");
  NodeId b = g.AddEntity("album");
  NodeId c = g.AddEntity("album");
  NodeId n = g.AddValue("N");
  g.AddTriple(a, "name_of", n).IgnoreError();
  g.AddTriple(b, "name_of", n).IgnoreError();
  g.AddTriple(c, "name_of", n).IgnoreError();
  NodeId y = g.AddValue("Y");
  g.AddTriple(a, "release_year", y).IgnoreError();
  g.AddTriple(b, "release_year", y).IgnoreError();
  g.AddTriple(c, "release_year", g.AddValue("Z")).IgnoreError();
  NodeId l = g.AddValue("L");
  g.AddTriple(b, "label", l).IgnoreError();
  g.AddTriple(c, "label", l).IgnoreError();
  g.AddTriple(a, "label", g.AddValue("M")).IgnoreError();
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
  MatchResult r = Chase(g, keys);
  EXPECT_EQ(r.pairs, Pairs({{a, b}, {b, c}, {a, c}}));
}

TEST(Chase, RoundsBoundedByIdentifications) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = Chase(m.g, sigma1);
  // Fixpoint reached in ≤ merges + 1 rounds.
  EXPECT_LE(r.stats.rounds, r.stats.confirmed + 1);
  EXPECT_GE(r.stats.rounds, 2u);  // Q3 needed Q2's result
}

TEST(Chase, StatsArePopulated) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = Chase(m.g, sigma1);
  // L: album pairs (3) + artist pairs (3).
  EXPECT_EQ(r.stats.candidates_initial, 6u);
  EXPECT_EQ(r.stats.candidates, 6u);  // no pairing filter in the oracle
  EXPECT_GT(r.stats.iso_checks, 0u);
  EXPECT_GT(r.stats.search.feasibility_checks, 0u);
}

}  // namespace
}  // namespace gkeys
