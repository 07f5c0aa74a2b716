#include "isomorph/pairing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/entity_matcher.h"
#include "gen/hostile.h"
#include "gen/synthetic.h"
#include "isomorph/eval_search.h"
#include "pairing_reference.h"
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

TEST(Pairing, AcceptsIdentifiablePair) {
  auto m = MakeG1();
  CompiledPattern q2 = CompileDsl(m.g, R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    })");
  NodeSet n1 = DNeighbor(m.g, m.alb1, 1);
  NodeSet n2 = DNeighbor(m.g, m.alb2, 1);
  PairingResult pr = ComputeMaxPairing(m.g, q2, m.alb1, m.alb2, n1, n2);
  EXPECT_TRUE(pr.paired);
  EXPECT_GT(pr.relation_size, 0u);
  EXPECT_TRUE(pr.reduced1.Contains(m.alb1));
  EXPECT_TRUE(pr.reduced2.Contains(m.alb2));
}

TEST(Pairing, RejectsValueMismatch) {
  auto m = MakeG1();
  CompiledPattern q2 = CompileDsl(m.g, R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    })");
  // alb3's year differs: no shared year value => prune to empty.
  NodeSet n1 = DNeighbor(m.g, m.alb1, 1);
  NodeSet n3 = DNeighbor(m.g, m.alb3, 1);
  PairingResult pr = ComputeMaxPairing(m.g, q2, m.alb1, m.alb3, n1, n3);
  EXPECT_FALSE(pr.paired);
}

TEST(Pairing, IsNecessaryNotSufficient) {
  // Pairing ignores Eq: art1/art2 pair by Q3 although identification
  // requires (alb1, alb2) ∈ Eq first. That is exactly why pairing is a
  // sound filter (Prop. 9) but not a decision procedure.
  auto m = MakeG1();
  CompiledPattern q3 = CompileDsl(m.g, R"(
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    })");
  NodeSet n1 = DNeighbor(m.g, m.art1, 1);
  NodeSet n2 = DNeighbor(m.g, m.art2, 1);
  PairingResult pr = ComputeMaxPairing(m.g, q3, m.art1, m.art2, n1, n2);
  EXPECT_TRUE(pr.paired);
  EqView eq0;
  EXPECT_FALSE(KeyIdentifies(m.g, q3, m.art1, m.art2, eq0, &n1, &n2));
}

TEST(Pairing, NeverFiltersIdentifiablePairs) {
  // Soundness on G2/Q4: the identifiable pair (com4, com5) must pair.
  auto c = MakeG2();
  CompiledPattern q4 = CompileDsl(c.g, R"(
    key Q4 for company {
      x -[name_of]-> n*
      _p:company -[name_of]-> n*
      _p -[parent_of]-> x
      y:company -[parent_of]-> x
    })");
  NodeSet n4 = DNeighbor(c.g, c.com4, 2);
  NodeSet n5 = DNeighbor(c.g, c.com5, 2);
  PairingResult pr = ComputeMaxPairing(c.g, q4, c.com4, c.com5, n4, n5);
  EXPECT_TRUE(pr.paired);
}

TEST(Pairing, ReducedNeighborsPreserveIdentification) {
  // §4.2: searching inside the reduced neighbors must still identify.
  auto c = MakeG2();
  CompiledPattern q4 = CompileDsl(c.g, R"(
    key Q4 for company {
      x -[name_of]-> n*
      _p:company -[name_of]-> n*
      _p -[parent_of]-> x
      y:company -[parent_of]-> x
    })");
  NodeSet n4 = DNeighbor(c.g, c.com4, 2);
  NodeSet n5 = DNeighbor(c.g, c.com5, 2);
  PairingResult pr = ComputeMaxPairing(c.g, q4, c.com4, c.com5, n4, n5);
  ASSERT_TRUE(pr.paired);
  EXPECT_LE(pr.reduced1.size(), n4.size());
  EXPECT_LE(pr.reduced2.size(), n5.size());
  EqView eq0;
  EXPECT_TRUE(KeyIdentifies(c.g, q4, c.com4, c.com5, eq0, &pr.reduced1,
                            &pr.reduced2));
}

TEST(Pairing, ReductionShrinksNoisyNeighborhoods) {
  // An identifiable pair with heavy unrelated structure around it: the
  // pairing relation must exclude the noise nodes.
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  NodeId shared = g.AddValue("V");
  g.AddTriple(a, "p", shared).IgnoreError();
  g.AddTriple(b, "p", shared).IgnoreError();
  std::vector<NodeId> noise;
  for (int i = 0; i < 20; ++i) {
    NodeId n = g.AddEntity("junk");
    noise.push_back(n);
    g.AddTriple(a, "q", n).IgnoreError();
    g.AddTriple(b, "q", n).IgnoreError();
  }
  g.Finalize();
  CompiledPattern k = CompileDsl(g, "key K for t {\n x -[p]-> v*\n}");
  NodeSet n1 = DNeighbor(g, a, 1);
  NodeSet n2 = DNeighbor(g, b, 1);
  PairingResult pr = ComputeMaxPairing(g, k, a, b, n1, n2);
  ASSERT_TRUE(pr.paired);
  EXPECT_LT(pr.reduced1.size(), n1.size());
  for (NodeId n : noise) {
    EXPECT_FALSE(pr.reduced1.Contains(n));
  }
}

TEST(Pairing, CollectPairsForProductGraph) {
  auto m = MakeG1();
  CompiledPattern q2 = CompileDsl(m.g, R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    })");
  NodeSet n1 = DNeighbor(m.g, m.alb1, 1);
  NodeSet n2 = DNeighbor(m.g, m.alb2, 1);
  PairingResult pr = ComputeMaxPairing(m.g, q2, m.alb1, m.alb2, n1, n2,
                                       /*collect_pairs=*/true);
  ASSERT_TRUE(pr.paired);
  EXPECT_FALSE(pr.pairs.empty());
  // The designated pair itself must be collected.
  EXPECT_NE(std::find(pr.pairs.begin(), pr.pairs.end(),
                      PackPair(m.alb1, m.alb2)),
            pr.pairs.end());
}

TEST(Pairing, UnmatchablePatternNeverPairs) {
  auto m = MakeG1();
  CompiledPattern ghost =
      CompileDsl(m.g, "key K for album {\n x -[ghost_pred]-> v*\n}");
  NodeSet n1 = DNeighbor(m.g, m.alb1, 1);
  NodeSet n2 = DNeighbor(m.g, m.alb2, 1);
  EXPECT_FALSE(ComputeMaxPairing(m.g, ghost, m.alb1, m.alb2, n1, n2).paired);
}

// ---- Oracle: the pre-worklist hash-table fixpoint ---------------------------
//
// ReferenceMaxPairing (tests/pairing_reference.h) is the original
// implementation, kept verbatim. The dense worklist engine, per-side
// domain prune included, must agree with it on every observable: paired,
// relation_size, reduced1/reduced2, collected pairs.

/// Runs both engines on one input and expects every observable to agree;
/// returns the dense engine's result.
PairingResult ExpectMatchesReference(const Graph& g, const CompiledPattern& cp,
                                     NodeId e1, NodeId e2) {
  NodeSet n1 = DNeighbor(g, e1, 1);
  NodeSet n2 = DNeighbor(g, e2, 1);
  PairingResult got = ComputeMaxPairing(g, cp, e1, e2, n1, n2,
                                        /*collect_pairs=*/true);
  PairingResult want = ReferenceMaxPairing(g, cp, e1, e2, n1, n2,
                                           /*collect_pairs=*/true);
  EXPECT_EQ(got.paired, want.paired);
  EXPECT_EQ(got.relation_size, want.relation_size);
  EXPECT_EQ(got.reduced1, want.reduced1);
  EXPECT_EQ(got.reduced2, want.reduced2);
  std::sort(want.pairs.begin(), want.pairs.end());
  EXPECT_EQ(got.pairs, want.pairs);
  return got;
}

TEST(PairingPrune, ValueNodePrunedOnOneSideKeepsDiagonalAligned) {
  // v2 lies in both balls but only a reaches it along p: the prune drops
  // it on the right side, so it must drop it on the left too, or the
  // diagonal of the value relation would pair v3 with a different node.
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  NodeId v0 = g.AddValue("V0");
  NodeId v2 = g.AddValue("V2");
  NodeId v3 = g.AddValue("V3");
  for (NodeId v : {v0, v2, v3}) g.AddTriple(a, "p", v).IgnoreError();
  g.AddTriple(b, "p", v0).IgnoreError();
  g.AddTriple(b, "r", v2).IgnoreError();
  g.AddTriple(b, "p", v3).IgnoreError();
  g.Finalize();
  CompiledPattern k = CompileDsl(g, "key K for t {\n x -[p]-> v*\n}");
  PairingResult pr = ExpectMatchesReference(g, k, a, b);
  ASSERT_TRUE(pr.paired);
  EXPECT_EQ(pr.relation_size, 3u);
  std::vector<uint64_t> want = {PackPair(a, b), PackPair(v0, v0),
                                PackPair(v3, v3)};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(pr.pairs, want);
  EXPECT_FALSE(pr.reduced1.Contains(v2));
  EXPECT_FALSE(pr.reduced2.Contains(v2));
}

TEST(PairingPrune, DesignatedPrunedOnOneSideNeverPairs) {
  // a keeps its witness on the left, and c keeps one on the right, but b
  // has no p-edge: e2 is pruned on its side alone, so nothing pairs and
  // the surviving (a, c) relation must not leak into the result.
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  NodeId c = g.AddEntity("t");
  NodeId u = g.AddValue("U");
  g.AddTriple(a, "p", u).IgnoreError();
  g.AddTriple(c, "p", u).IgnoreError();
  g.AddTriple(b, "r", u).IgnoreError();
  g.AddTriple(b, "s", c).IgnoreError();
  g.Finalize();
  CompiledPattern k = CompileDsl(g, "key K for t {\n x -[p]-> v*\n}");
  PairingResult pr = ExpectMatchesReference(g, k, a, b);
  EXPECT_FALSE(pr.paired);
  EXPECT_EQ(pr.relation_size, 0u);
  EXPECT_TRUE(pr.reduced1.empty());
  EXPECT_TRUE(pr.reduced2.empty());
  EXPECT_TRUE(pr.pairs.empty());
}

TEST(PairingPrune, ConstantReachedOnOneSideNeverPairs) {
  // The constant is in both balls, but only a reaches it along p.
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  NodeId v = g.AddValue("V");
  NodeId cst = g.AddValue("C");
  g.AddTriple(a, "q", v).IgnoreError();
  g.AddTriple(b, "q", v).IgnoreError();
  g.AddTriple(a, "p", cst).IgnoreError();
  g.AddTriple(b, "r", cst).IgnoreError();
  g.Finalize();
  CompiledPattern k = CompileDsl(
      g, "key K for t {\n x -[q]-> v*\n x -[p]-> \"C\"\n}");
  PairingResult pr = ExpectMatchesReference(g, k, a, b);
  EXPECT_FALSE(pr.paired);
  EXPECT_TRUE(pr.reduced1.empty());
  EXPECT_TRUE(pr.reduced2.empty());
}

/// Compares the dense worklist engine against the oracle on every
/// candidate pair × key of a dataset, on all observables.
void CheckAgainstOracle(const SyntheticDataset& ds, const EmContext& ctx) {
  PairingScratch scratch;
  size_t compared = 0;
  for (const Candidate& c : ctx.candidates()) {
    for (int ki : *c.keys) {
      const CompiledPattern& cp = ctx.compiled_keys()[ki].cp;
      PairingResult got =
          ComputeMaxPairing(ds.graph, cp, c.e1, c.e2, *c.nbr1, *c.nbr2,
                            /*collect_pairs=*/true, &scratch);
      PairingResult want =
          ReferenceMaxPairing(ds.graph, cp, c.e1, c.e2, *c.nbr1, *c.nbr2,
                              /*collect_pairs=*/true);
      ASSERT_EQ(got.paired, want.paired)
          << "pair (" << c.e1 << "," << c.e2 << ") key " << ki;
      ASSERT_EQ(got.relation_size, want.relation_size)
          << "pair (" << c.e1 << "," << c.e2 << ") key " << ki;
      ASSERT_EQ(got.reduced1, want.reduced1)
          << "pair (" << c.e1 << "," << c.e2 << ") key " << ki;
      ASSERT_EQ(got.reduced2, want.reduced2)
          << "pair (" << c.e1 << "," << c.e2 << ") key " << ki;
      std::sort(want.pairs.begin(), want.pairs.end());  // oracle: hash order
      ASSERT_EQ(got.pairs, want.pairs)
          << "pair (" << c.e1 << "," << c.e2 << ") key " << ki;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(PairingOracle, DenseWorklistMatchesReferenceOnRandomWorkloads) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    for (int d : {1, 2, 3}) {
      SyntheticConfig cfg;
      cfg.seed = seed;
      cfg.num_groups = 2;
      cfg.chain_length = 2;
      cfg.radius = d;
      cfg.entities_per_type = 10;
      SyntheticDataset ds = GenerateSynthetic(cfg);
      // No blocking: keep every same-type pair comparable.
      EmContext ctx(ds.graph, ds.keys,
                    PlanOptions{.use_pairing = false, .use_blocking = false});
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " d=" + std::to_string(d));
      CheckAgainstOracle(ds, ctx);
    }
  }
}

TEST(PairingOracle, DenseWorklistMatchesReferenceOnHotPowerLawLeaves) {
  // Every planted leaf pair chains through a planted hub pair, and the
  // planted leaves are the most-followed leaves: their balls hold many
  // leaves whose own `la` values lie outside the ball, the case the
  // per-side prune removes before the pair bitset.
  for (bool blocking : {true, false}) {
    PowerLawConfig cfg;
    cfg.chained_fraction = 1.0;
    cfg.follows_per_leaf = 2;
    cfg.scale = blocking ? 12.0 : 2.0;
    SyntheticDataset ds = GeneratePowerLaw(cfg);
    EmContext ctx(ds.graph, ds.keys,
                  PlanOptions{.use_pairing = false, .use_blocking = blocking});
    SCOPED_TRACE(blocking ? "blocked" : "unblocked");
    CheckAgainstOracle(ds, ctx);
  }
}

TEST(PairingOracle, DenseWorklistMatchesReferenceOnPaperGraphs) {
  auto c = MakeG2();
  CompiledPattern q4 = CompileDsl(c.g, R"(
    key Q4 for company {
      x -[name_of]-> n*
      _p:company -[name_of]-> n*
      _p -[parent_of]-> x
      y:company -[parent_of]-> x
    })");
  PairingScratch scratch;
  for (int d : {1, 2, 3}) {
    NodeSet n4 = DNeighbor(c.g, c.com4, d);
    NodeSet n5 = DNeighbor(c.g, c.com5, d);
    PairingResult got = ComputeMaxPairing(c.g, q4, c.com4, c.com5, n4, n5,
                                          /*collect_pairs=*/true, &scratch);
    PairingResult want = ReferenceMaxPairing(c.g, q4, c.com4, c.com5, n4, n5,
                                             /*collect_pairs=*/true);
    EXPECT_EQ(got.paired, want.paired) << "d=" << d;
    EXPECT_EQ(got.relation_size, want.relation_size) << "d=" << d;
    EXPECT_EQ(got.reduced1, want.reduced1) << "d=" << d;
    EXPECT_EQ(got.reduced2, want.reduced2) << "d=" << d;
    std::sort(want.pairs.begin(), want.pairs.end());
    EXPECT_EQ(got.pairs, want.pairs) << "d=" << d;
  }
}

TEST(PairingOracle, AllSixAlgorithmsByteIdenticalPairs) {
  // End-to-end guard: with the dense fixpoint underneath, every algorithm
  // still reproduces exactly the oracle chase's pair set.
  for (uint64_t seed : {5u, 6u}) {
    SyntheticConfig cfg;
    cfg.seed = seed;
    cfg.num_groups = 2;
    cfg.chain_length = 2;
    cfg.radius = 2;
    cfg.entities_per_type = 12;
    SyntheticDataset ds = GenerateSynthetic(cfg);
    std::vector<std::pair<NodeId, NodeId>> want =
        testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kNaiveChase, 1)
            .pairs;
    for (Algorithm a :
         {Algorithm::kEmMr, Algorithm::kEmVf2Mr, Algorithm::kEmOptMr,
          Algorithm::kEmVc, Algorithm::kEmOptVc}) {
      EXPECT_EQ(testing::CompileAndRun(ds.graph, ds.keys, a, 4).pairs, want)
          << AlgorithmName(a) << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace gkeys
