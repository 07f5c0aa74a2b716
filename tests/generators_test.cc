#include <algorithm>

#include <gtest/gtest.h>

#include "core/entity_matcher.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

TEST(Synthetic, Deterministic) {
  SyntheticConfig cfg;
  cfg.seed = 5;
  SyntheticDataset a = GenerateSynthetic(cfg);
  SyntheticDataset b = GenerateSynthetic(cfg);
  EXPECT_EQ(a.graph.NumNodes(), b.graph.NumNodes());
  EXPECT_EQ(a.graph.NumTriples(), b.graph.NumTriples());
  EXPECT_EQ(a.planted, b.planted);
}

TEST(Synthetic, KeyCountAndShape) {
  SyntheticConfig cfg;
  cfg.num_groups = 4;
  cfg.chain_length = 3;
  cfg.radius = 2;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  EXPECT_EQ(ds.keys.count(), 12u);  // groups * chain_length
  EXPECT_EQ(ds.keys.MaxRadius(), 2);
  EXPECT_EQ(ds.keys.LongestDependencyChain(), 3);
  // Each chain has exactly one value-based (leaf) key.
  EXPECT_EQ(std::count_if(ds.keys.keys().begin(), ds.keys.keys().end(),
                          [](const Key& k) { return !k.recursive(); }),
            4);
}

TEST(Synthetic, PlantedPairsAreExactGroundTruth) {
  for (int c : {1, 2, 3}) {
    for (int d : {1, 2}) {
      SyntheticConfig cfg;
      cfg.num_groups = 2;
      cfg.chain_length = c;
      cfg.radius = d;
      cfg.entities_per_type = 12;
      cfg.seed = 100 + c * 10 + d;
      SyntheticDataset ds = GenerateSynthetic(cfg);
      EXPECT_FALSE(ds.planted.empty());
      MatchResult r = Chase(ds.graph, ds.keys);
      EXPECT_EQ(r.pairs, ds.planted) << "c=" << c << " d=" << d;
    }
  }
}

TEST(Synthetic, ScaleGrowsGraph) {
  SyntheticConfig small, large;
  large.scale = 3.0;
  SyntheticDataset s = GenerateSynthetic(small);
  SyntheticDataset l = GenerateSynthetic(large);
  EXPECT_GT(l.graph.NumTriples(), 2 * s.graph.NumTriples());
  EXPECT_GT(l.planted.size(), s.planted.size());
}

TEST(Synthetic, ZeroDuplicates) {
  SyntheticConfig cfg;
  cfg.duplicate_fraction = 0.0;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  EXPECT_TRUE(ds.planted.empty());
  EXPECT_TRUE(Chase(ds.graph, ds.keys).pairs.empty());
}

TEST(Synthetic, NoiseDoesNotChangeResult) {
  SyntheticConfig with, without;
  with.noise_edges_per_entity = 4;
  without.noise_edges_per_entity = 0;
  SyntheticDataset a = GenerateSynthetic(with);
  SyntheticDataset b = GenerateSynthetic(without);
  EXPECT_EQ(Chase(a.graph, a.keys).pairs, a.planted);
  EXPECT_EQ(Chase(b.graph, b.keys).pairs, b.planted);
}

TEST(Synthetic, RadiusMatchesKeyStructure) {
  SyntheticConfig cfg;
  cfg.radius = 3;
  cfg.chain_length = 2;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  for (const Key& k : ds.keys.keys()) {
    EXPECT_EQ(k.radius(), 3) << k.name();
  }
}

TEST(GoogleSim, PlantedPairsAreExactGroundTruth) {
  GoogleSimConfig cfg;
  SyntheticDataset ds = GenerateGoogleSim(cfg);
  EXPECT_FALSE(ds.planted.empty());
  MatchResult r = Chase(ds.graph, ds.keys);
  EXPECT_EQ(r.pairs, ds.planted);
}

TEST(GoogleSim, HasExpectedSchema) {
  GoogleSimConfig cfg;
  SyntheticDataset ds = GenerateGoogleSim(cfg);
  EXPECT_TRUE(ds.keys.HasKeyForType("person"));
  EXPECT_TRUE(ds.keys.HasKeyForType("employer"));
  EXPECT_TRUE(ds.keys.HasKeyForType("place"));
  // person -> employer -> place.
  EXPECT_EQ(ds.keys.LongestDependencyChain(), 3);
  Symbol person = ds.graph.interner().Lookup("person");
  ASSERT_NE(person, kNoSymbol);
  EXPECT_GE(ds.graph.EntitiesOfType(person).size(),
            static_cast<size_t>(cfg.num_persons));
}

TEST(GoogleSim, ChainedDuplicatesNeedMultipleMapReduceRounds) {
  // In MapReduce, mappers only see the previous round's Eq, so the
  // person -> employer -> place chain needs one round per level (the §6
  // Exp-3 "rounds grow with c" effect). The sequential chase can resolve
  // the whole chain in one pass, so the bound is asserted on EMMR.
  GoogleSimConfig cfg;
  cfg.duplicate_pairs = 6;
  SyntheticDataset ds = GenerateGoogleSim(cfg);
  MatchResult r =
      testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kEmMr, 2);
  EXPECT_EQ(r.pairs, ds.planted);
  EXPECT_GE(r.stats.rounds, 3u);
}

TEST(DBpediaSim, PlantedPairsAreExactGroundTruth) {
  DBpediaSimConfig cfg;
  SyntheticDataset ds = GenerateDBpediaSim(cfg);
  EXPECT_FALSE(ds.planted.empty());
  MatchResult r = Chase(ds.graph, ds.keys);
  EXPECT_EQ(r.pairs, ds.planted);
}

TEST(DBpediaSim, CoversThePaperKeyShapes) {
  DBpediaSimConfig cfg;
  SyntheticDataset ds = GenerateDBpediaSim(cfg);
  // Mutual recursion album <-> artist, DAG company keys, a constant key,
  // and the Fig. 7 keys.
  EXPECT_EQ(ds.keys.count(), 10u);
  bool has_constant = false, has_wildcard = false, has_recursive = false;
  for (const Key& k : ds.keys.keys()) {
    for (const auto& n : k.pattern().nodes()) {
      if (n.kind == VarKind::kConstant) has_constant = true;
      if (n.kind == VarKind::kWildcard) has_wildcard = true;
    }
    has_recursive |= k.recursive();
  }
  EXPECT_TRUE(has_constant);
  EXPECT_TRUE(has_wildcard);
  EXPECT_TRUE(has_recursive);
}

TEST(DBpediaSim, Deterministic) {
  DBpediaSimConfig cfg;
  cfg.seed = 3;
  SyntheticDataset a = GenerateDBpediaSim(cfg);
  SyntheticDataset b = GenerateDBpediaSim(cfg);
  EXPECT_EQ(a.planted, b.planted);
  EXPECT_EQ(a.graph.NumTriples(), b.graph.NumTriples());
}

}  // namespace
}  // namespace gkeys
