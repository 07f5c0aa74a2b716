// Cross-algorithm equivalence: every parallel algorithm must return
// exactly chase(G, Σ) (the paper's central correctness claims: Prop. 7,
// Lemma 8, Theorem 6, Lemma 11, Theorem 10). Parameterized over the five
// algorithms × processor counts × workloads.

#include <gtest/gtest.h>

#include "core/entity_matcher.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

struct AlgoParam {
  Algorithm algorithm;
  int processors;
};

std::string ParamName(const ::testing::TestParamInfo<AlgoParam>& info) {
  return AlgorithmName(info.param.algorithm) + "_p" +
         std::to_string(info.param.processors);
}

class AlgorithmsTest : public ::testing::TestWithParam<AlgoParam> {
 protected:
  // The matrix runs through the session API: compile a plan with the
  // algorithm's preset, then execute it.
  MatchResult Match(const SyntheticDataset& ds) const {
    return testing::CompileAndRun(ds.graph, ds.keys, GetParam().algorithm,
                                  GetParam().processors);
  }
};

TEST_P(AlgorithmsTest, MatchesOracleOnSynthetic) {
  SyntheticConfig cfg;
  cfg.num_groups = 3;
  cfg.chain_length = 3;
  cfg.radius = 2;
  cfg.entities_per_type = 16;
  cfg.seed = 1234;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  MatchResult oracle = Chase(ds.graph, ds.keys);
  EXPECT_EQ(oracle.pairs, ds.planted) << "generator ground truth";
  MatchResult r = Match(ds);
  EXPECT_EQ(r.pairs, oracle.pairs);
}

TEST_P(AlgorithmsTest, MatchesOracleOnGoogleSim) {
  GoogleSimConfig cfg;
  cfg.scale = 0.5;
  SyntheticDataset ds = GenerateGoogleSim(cfg);
  MatchResult oracle = Chase(ds.graph, ds.keys);
  EXPECT_EQ(oracle.pairs, ds.planted);
  MatchResult r = Match(ds);
  EXPECT_EQ(r.pairs, oracle.pairs);
}

TEST_P(AlgorithmsTest, MatchesOracleOnDBpediaSim) {
  DBpediaSimConfig cfg;
  cfg.scale = 0.5;
  SyntheticDataset ds = GenerateDBpediaSim(cfg);
  MatchResult oracle = Chase(ds.graph, ds.keys);
  EXPECT_EQ(oracle.pairs, ds.planted);
  MatchResult r = Match(ds);
  EXPECT_EQ(r.pairs, oracle.pairs);
}

TEST_P(AlgorithmsTest, LongChainResolves) {
  // c = 5: the deepest dependency chains of Exp-3.
  SyntheticConfig cfg;
  cfg.num_groups = 1;
  cfg.chain_length = 5;
  cfg.radius = 1;
  cfg.entities_per_type = 12;
  cfg.chained_fraction = 1.0;  // every duplicate requires the full chain
  cfg.seed = 5;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  MatchResult r = Match(ds);
  EXPECT_EQ(r.pairs, ds.planted);
}

TEST_P(AlgorithmsTest, NoDuplicatesMeansEmptyResult) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 10;
  cfg.duplicate_fraction = 0.0;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  ASSERT_TRUE(ds.planted.empty());
  MatchResult r = Match(ds);
  EXPECT_TRUE(r.pairs.empty());
}

TEST_P(AlgorithmsTest, ConfirmedStatMatchesOutput) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 12;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  MatchResult r = Match(ds);
  EXPECT_EQ(r.stats.confirmed, r.pairs.size());
  EXPECT_GT(r.stats.candidates, 0u);
  EXPECT_LE(r.stats.candidates, r.stats.candidates_initial);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmsTest,
    ::testing::Values(AlgoParam{Algorithm::kEmMr, 1},
                      AlgoParam{Algorithm::kEmMr, 4},
                      AlgoParam{Algorithm::kEmVf2Mr, 4},
                      AlgoParam{Algorithm::kEmOptMr, 1},
                      AlgoParam{Algorithm::kEmOptMr, 4},
                      AlgoParam{Algorithm::kEmVc, 1},
                      AlgoParam{Algorithm::kEmVc, 4},
                      AlgoParam{Algorithm::kEmOptVc, 1},
                      AlgoParam{Algorithm::kEmOptVc, 4},
                      AlgoParam{Algorithm::kEmOptVc, 8}),
    ParamName);

// ---- Optimization-specific behavior (not covered by the matrix) ----

TEST(Optimizations, PairingReducesCandidates) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 20;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  // Signature blocking already removes every unidentifiable pair here;
  // run without it so the comparison isolates the pairing filter.
  PlanOptions base_opts = PlanOptions::For(Algorithm::kEmMr, 2);
  base_opts.use_blocking = false;
  MatchResult base = testing::CompileAndRun(ds.graph, ds.keys,
                                            Algorithm::kEmMr, base_opts);
  PlanOptions opt_opts = PlanOptions::For(Algorithm::kEmOptMr, 2);
  opt_opts.use_blocking = false;
  MatchResult opt = testing::CompileAndRun(ds.graph, ds.keys,
                                           Algorithm::kEmOptMr, opt_opts);
  EXPECT_EQ(base.pairs, opt.pairs);
  EXPECT_LT(opt.stats.candidates, base.stats.candidates)
      << "pairing must filter unidentifiable pairs from L";
  EXPECT_LT(opt.stats.iso_checks, base.stats.iso_checks)
      << "fewer candidates + incremental checking must mean fewer checks";
}

TEST(Optimizations, BoundedMessagesReduceTraffic) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 20;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  MatchResult base =
      testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kEmVc, 4);
  MatchResult opt =
      testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kEmOptVc, 4);
  EXPECT_EQ(base.pairs, opt.pairs);
  EXPECT_LE(opt.stats.messages, base.stats.messages)
      << "bounded-k must not send more messages than unbounded EMVC";
}

TEST(Optimizations, MapReduceRoundsGrowWithChainLength) {
  // The §6 Exp-3 observation: the number of MapReduce rounds grows with c.
  size_t prev_rounds = 0;
  for (int c : {1, 3, 5}) {
    SyntheticConfig cfg;
    cfg.num_groups = 1;
    cfg.chain_length = c;
    cfg.entities_per_type = 12;
    cfg.chained_fraction = 1.0;
    SyntheticDataset ds = GenerateSynthetic(cfg);
    MatchResult r =
        testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kEmMr, 2);
    EXPECT_EQ(r.pairs, ds.planted);
    EXPECT_GT(r.stats.rounds, prev_rounds) << "c=" << c;
    prev_rounds = r.stats.rounds;
  }
}

TEST(Optimizations, Vf2DoesMoreSearchWork) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 1;
  cfg.entities_per_type = 16;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  MatchResult fast =
      testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kEmMr, 2);
  MatchResult slow =
      testing::CompileAndRun(ds.graph, ds.keys, Algorithm::kEmVf2Mr, 2);
  EXPECT_EQ(fast.pairs, slow.pairs);
  EXPECT_GE(slow.stats.search.full_instantiations,
            fast.stats.search.full_instantiations)
      << "VF2 enumerates all matches; EvalMR stops at the first";
}

}  // namespace
}  // namespace gkeys
