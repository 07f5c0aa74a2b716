#include "gen/hostile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/entity_matcher.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

// Staged ops as comparable tuples, so two generator instances can be
// checked for byte-identical streams.
std::vector<std::tuple<NodeId, std::string, NodeId>> Ops(
    const std::vector<GraphDelta::DeltaTriple>& ts) {
  std::vector<std::tuple<NodeId, std::string, NodeId>> out;
  for (const auto& t : ts) out.emplace_back(t.subject, t.pred, t.object);
  return out;
}

void ExpectSameDelta(const GraphDelta& a, const GraphDelta& b) {
  EXPECT_EQ(Ops(a.added()), Ops(b.added()));
  EXPECT_EQ(Ops(a.removed()), Ops(b.removed()));
  ASSERT_EQ(a.new_nodes().size(), b.new_nodes().size());
  for (size_t i = 0; i < a.new_nodes().size(); ++i) {
    EXPECT_EQ(a.new_nodes()[i].kind, b.new_nodes()[i].kind);
    EXPECT_EQ(a.new_nodes()[i].label, b.new_nodes()[i].label);
  }
}

// ---------------------------------------------------------------------------
// Power-law degree graphs
// ---------------------------------------------------------------------------

TEST(PowerLaw, Deterministic) {
  PowerLawConfig cfg;
  cfg.seed = 5;
  SyntheticDataset a = GeneratePowerLaw(cfg);
  SyntheticDataset b = GeneratePowerLaw(cfg);
  EXPECT_EQ(a.graph.NumNodes(), b.graph.NumNodes());
  EXPECT_EQ(a.graph.NumTriples(), b.graph.NumTriples());
  EXPECT_EQ(a.planted, b.planted);
}

TEST(PowerLaw, PlantedPairsAreExactGroundTruth) {
  for (uint64_t seed : {17u, 99u, 123u}) {
    PowerLawConfig cfg;
    cfg.seed = seed;
    SyntheticDataset ds = GeneratePowerLaw(cfg);
    EXPECT_FALSE(ds.planted.empty());
    MatchResult r = Chase(ds.graph, ds.keys);
    EXPECT_EQ(r.pairs, ds.planted) << "seed=" << seed;
  }
}

TEST(PowerLaw, DegreeDistributionIsSkewed) {
  PowerLawConfig cfg;
  SyntheticDataset ds = GeneratePowerLaw(cfg);
  Symbol hub = ds.graph.interner().Lookup("hub");
  ASSERT_NE(hub, kNoSymbol);
  std::vector<size_t> indeg;
  for (NodeId h : ds.graph.EntitiesOfType(hub)) {
    indeg.push_back(ds.graph.InDegree(h));
  }
  ASSERT_GE(indeg.size(), 4u);
  std::sort(indeg.begin(), indeg.end(), std::greater<>());
  // Zipf(1.2) over 12 hubs: the hottest hub takes roughly a quarter of
  // all 160 leaf links while the median hub sees a handful. Assert the
  // shape, not exact counts, so config tweaks don't thrash the test.
  size_t median = indeg[indeg.size() / 2];
  EXPECT_GE(indeg[0], 4 * std::max<size_t>(median, 1));
  EXPECT_GE(indeg[0], 20u);
}

TEST(PowerLaw, ScaleGrowsGraph) {
  PowerLawConfig small, large;
  large.scale = 3.0;
  SyntheticDataset s = GeneratePowerLaw(small);
  SyntheticDataset l = GeneratePowerLaw(large);
  EXPECT_GT(l.graph.NumTriples(), 2 * s.graph.NumTriples());
  EXPECT_GT(l.planted.size(), s.planted.size());
}

// ---------------------------------------------------------------------------
// Skewed key selectivity
// ---------------------------------------------------------------------------

TEST(SkewedSelectivity, PlantedPairsAreExactGroundTruth) {
  for (uint64_t seed : {23u, 7u, 555u}) {
    SkewedSelectivityConfig cfg;
    cfg.seed = seed;
    SyntheticDataset ds = GenerateSkewedSelectivity(cfg);
    EXPECT_FALSE(ds.planted.empty());
    MatchResult r = Chase(ds.graph, ds.keys);
    EXPECT_EQ(r.pairs, ds.planted) << "seed=" << seed;
  }
}

TEST(SkewedSelectivity, HotBucketDominatesCandidates) {
  SkewedSelectivityConfig cfg;
  SyntheticDataset ds = GenerateSkewedSelectivity(cfg);
  MatchResult r =
      testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kEmOptMr, 2);
  EXPECT_EQ(r.pairs, ds.planted);
  // All hot items share one literal on the key's only signature source,
  // so blocking is left with one giant bucket: |L| >= C(hot, 2) while
  // the identifiable share stays tiny.
  size_t hot = static_cast<size_t>(cfg.num_items * cfg.hot_fraction);
  size_t giant = hot * (hot - 1) / 2;
  EXPECT_GE(r.stats.candidates_initial, giant);
  EXPECT_LE(ds.planted.size() * 20, r.stats.candidates_initial);
}

TEST(SkewedSelectivity, Deterministic) {
  SkewedSelectivityConfig cfg;
  cfg.seed = 9;
  SyntheticDataset a = GenerateSkewedSelectivity(cfg);
  SyntheticDataset b = GenerateSkewedSelectivity(cfg);
  EXPECT_EQ(a.planted, b.planted);
  EXPECT_EQ(a.graph.NumTriples(), b.graph.NumTriples());
}

// ---------------------------------------------------------------------------
// Near-duplicate clusters
// ---------------------------------------------------------------------------

TEST(NearDuplicates, PlantedPairsAreExactGroundTruth) {
  for (uint64_t seed : {31u, 2u, 77u}) {
    NearDuplicateConfig cfg;
    cfg.seed = seed;
    SyntheticDataset ds = GenerateNearDuplicates(cfg);
    // One product pair and one part pair per cluster.
    EXPECT_EQ(ds.planted.size(), 2u * cfg.num_clusters);
    MatchResult r = Chase(ds.graph, ds.keys);
    EXPECT_EQ(r.pairs, ds.planted) << "seed=" << seed;
  }
}

TEST(NearDuplicates, ClustersAreCandidateDense) {
  NearDuplicateConfig cfg;
  SyntheticDataset ds = GenerateNearDuplicates(cfg);
  MatchResult r =
      testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kEmOptMr, 2);
  EXPECT_EQ(r.pairs, ds.planted);
  // Every cluster contributes ~k^2/2 same-token product candidates, only
  // one of which is a true duplicate.
  size_t per_cluster =
      static_cast<size_t>(cfg.cluster_size) * (cfg.cluster_size - 1) / 2;
  EXPECT_GE(r.stats.candidates_initial,
            static_cast<size_t>(cfg.num_clusters) * per_cluster);
  // Confirmed pairs are a small fraction of the candidates the decoys
  // force through isomorphism checking (2 planted pairs per cluster vs
  // ~k^2 near-miss candidates).
  EXPECT_LE(r.stats.confirmed * 4, r.stats.candidates_initial);
}

// ---------------------------------------------------------------------------
// Delta generators
// ---------------------------------------------------------------------------

TEST(DeltaGen, UnknownKindRejected) {
  DeltaGenConfig cfg;
  EXPECT_EQ(MakeDeltaGenerator("bogus", cfg).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DeltaGen, StreamsAreDeterministic) {
  PowerLawConfig pcfg;
  SyntheticDataset ds = GeneratePowerLaw(pcfg);
  DeltaGenConfig cfg;
  for (const char* kind : {"uniform", "hub", "churn"}) {
    auto ga = MakeDeltaGenerator(kind, cfg);
    auto gb = MakeDeltaGenerator(kind, cfg);
    ASSERT_TRUE(ga.ok() && gb.ok());
    // Same config over the same (static) graph: identical staged ops,
    // batch after batch — the workload oracle's core assumption.
    for (int i = 0; i < 4; ++i) {
      GraphDelta da = (*ga)->Next(ds.graph);
      GraphDelta db = (*gb)->Next(ds.graph);
      ExpectSameDelta(da, db);
    }
  }
}

TEST(DeltaGen, UniformBatchesApplyCleanly) {
  PowerLawConfig pcfg;
  SyntheticDataset ds = GeneratePowerLaw(pcfg);
  DeltaGenConfig cfg;
  auto gen = MakeDeltaGenerator("uniform", cfg);
  ASSERT_TRUE(gen.ok());
  for (int i = 0; i < 5; ++i) {
    GraphDelta d = (*gen)->Next(ds.graph);
    EXPECT_LE(d.num_added_triples() + d.num_removed_triples(),
              cfg.ops_per_batch);
    ASSERT_TRUE(ds.graph.Apply(d).ok()) << "batch " << i;
  }
}

TEST(DeltaGen, HubOpsConcentrateOnHighDegreeEntities) {
  PowerLawConfig pcfg;
  SyntheticDataset ds = GeneratePowerLaw(pcfg);
  const Graph& g = ds.graph;
  DeltaGenConfig cfg;
  cfg.hub_fraction = 0.05;
  cfg.ops_per_batch = 16;
  auto gen = MakeDeltaGenerator("hub", cfg);
  ASSERT_TRUE(gen.ok());
  // Degree rank of the generator's target pool.
  std::vector<size_t> degrees;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.IsEntity(n)) degrees.push_back(g.OutDegree(n) + g.InDegree(n));
  }
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  size_t top = std::max<size_t>(1, degrees.size() * cfg.hub_fraction);
  size_t floor = degrees[top - 1];
  auto is_hub = [&](NodeId n) {
    return g.IsEntity(n) && g.OutDegree(n) + g.InDegree(n) >= floor;
  };
  GraphDelta d = (*gen)->Next(g);
  size_t ops = 0;
  for (const auto& t : d.removed()) {
    EXPECT_TRUE(is_hub(t.subject) || is_hub(t.object));
    ++ops;
  }
  for (const auto& t : d.added()) {
    // Additions attach a staged entity TO a hub.
    EXPECT_TRUE(is_hub(t.object));
    EXPECT_GE(t.subject, d.base_nodes());
    ++ops;
  }
  EXPECT_GT(ops, 0u);
}

TEST(DeltaGen, ChurnRemovesThenReAddsVerbatim) {
  PowerLawConfig pcfg;
  pcfg.follows_per_leaf = 0;
  SyntheticDataset ds = GeneratePowerLaw(pcfg);
  size_t triples0 = ds.graph.NumTriples();
  std::vector<std::pair<NodeId, NodeId>> pairs0 =
      Chase(ds.graph, ds.keys).pairs;

  DeltaGenConfig cfg;
  cfg.churn_repeats = 2;
  auto gen = MakeDeltaGenerator("churn", cfg);
  ASSERT_TRUE(gen.ok());
  for (int cycle = 0; cycle < 3; ++cycle) {
    GraphDelta rm = (*gen)->Next(ds.graph);
    EXPECT_GT(rm.num_removed_triples(), 0u);
    EXPECT_EQ(rm.num_added_triples(), 0u);
    ASSERT_TRUE(ds.graph.Apply(rm).ok());
    EXPECT_LT(ds.graph.NumTriples(), triples0);

    GraphDelta re = (*gen)->Next(ds.graph);
    EXPECT_EQ(re.num_removed_triples(), 0u);
    EXPECT_EQ(re.num_added_triples(), rm.num_removed_triples());
    ASSERT_TRUE(ds.graph.Apply(re).ok());
    // The re-add restores the region exactly: triple count and the full
    // match result return to the original.
    EXPECT_EQ(ds.graph.NumTriples(), triples0);
    EXPECT_EQ(Chase(ds.graph, ds.keys).pairs, pairs0) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace gkeys
