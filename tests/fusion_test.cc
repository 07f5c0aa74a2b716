// Tests for entity fusion (contracting chase(G, Σ) classes).

#include <gtest/gtest.h>

#include "core/entity_matcher.h"
#include "eq/equivalence.h"
#include "gen/datasets.h"
#include "graph/merge.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

TEST(Fusion, ContractsIdentifiedClasses) {
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();
  MatchResult r = Chase(m.g, sigma1);
  ASSERT_EQ(r.pairs.size(), 2u);
  FusionResult fused = FuseEntities(m.g, r.pairs);
  EXPECT_EQ(fused.entities_fused, 2u);  // one album + one artist gone
  EXPECT_EQ(fused.graph.NumEntities(), m.g.NumEntities() - 2);
  // The fused pairs map to a single node.
  EXPECT_EQ(fused.node_map[m.alb1], fused.node_map[m.alb2]);
  EXPECT_EQ(fused.node_map[m.art1], fused.node_map[m.art2]);
  EXPECT_NE(fused.node_map[m.alb1], fused.node_map[m.alb3]);
}

TEST(Fusion, DeduplicatesParallelTriples) {
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();
  FusionResult fused = FuseEntities(m.g, Chase(m.g, sigma1).pairs);
  // alb1 and alb2 both had (name_of, "Anthology 2"): the fused node has
  // exactly one such triple.
  NodeId merged_album = fused.node_map[m.alb1];
  size_t name_edges = 0;
  Symbol name_of = fused.graph.interner().Lookup("name_of");
  for (const Edge& e : fused.graph.Out(merged_album)) {
    name_edges += (e.pred == name_of);
  }
  EXPECT_EQ(name_edges, 1u);
}

TEST(Fusion, FusedGraphSatisfiesTheKeys) {
  // After fusing chase(G, Σ), re-running the chase finds nothing new —
  // fusion reaches a key-satisfying state on these workloads.
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();
  FusionResult fused = FuseEntities(m.g, Chase(m.g, sigma1).pairs);
  EXPECT_TRUE(Satisfies(fused.graph, sigma1));
}

TEST(Fusion, EmptyPairsIsIdentity) {
  auto m = testing::MakeG1();
  FusionResult fused = FuseEntities(m.g, {});
  EXPECT_EQ(fused.entities_fused, 0u);
  EXPECT_EQ(fused.graph.NumNodes(), m.g.NumNodes());
  EXPECT_EQ(fused.graph.NumTriples(), m.g.NumTriples());
}

TEST(Fusion, EndToEndOnDBpediaSim) {
  DBpediaSimConfig cfg;
  cfg.scale = 0.5;
  SyntheticDataset ds = GenerateDBpediaSim(cfg);
  MatchResult r =
      testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kEmOptVc, 4);
  FusionResult fused = FuseEntities(ds.graph, r.pairs);
  EXPECT_GT(fused.entities_fused, 0u);
  // Fusion eliminates exactly one entity per extra class member: one per
  // union that merged two classes.
  ConcurrentEquivalence classes(ds.graph.NumNodes());
  for (auto [a, b] : r.pairs) classes.Union(a, b);
  EXPECT_EQ(fused.entities_fused, classes.num_merges());
  // And the fused knowledge base is duplicate-free under Σ.
  EXPECT_TRUE(testing::CompileAndRun(fused.graph, ds.keys,
                                     Algorithm::kEmOptVc, 4)
                  .pairs.empty());
}

}  // namespace
}  // namespace gkeys
