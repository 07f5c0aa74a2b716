// Randomized property tests over generated workloads: the paper's
// meta-theorems checked on many random instances via parameterized sweeps.

#include <gtest/gtest.h>

#include "core/entity_matcher.h"
#include "gen/synthetic.h"
#include "isomorph/pairing.h"
#include "isomorph/vf2.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

struct WorkloadParam {
  uint64_t seed;
  int groups;
  int chain;
  int radius;
  int entities;
};

std::string WorkloadName(const ::testing::TestParamInfo<WorkloadParam>& i) {
  return "s" + std::to_string(i.param.seed) + "_g" +
         std::to_string(i.param.groups) + "_c" +
         std::to_string(i.param.chain) + "_d" +
         std::to_string(i.param.radius) + "_n" +
         std::to_string(i.param.entities);
}

class WorkloadProperty : public ::testing::TestWithParam<WorkloadParam> {
 protected:
  SyntheticDataset MakeDataset() const {
    SyntheticConfig cfg;
    cfg.seed = GetParam().seed;
    cfg.num_groups = GetParam().groups;
    cfg.chain_length = GetParam().chain;
    cfg.radius = GetParam().radius;
    cfg.entities_per_type = GetParam().entities;
    return GenerateSynthetic(cfg);
  }
};

TEST_P(WorkloadProperty, ChaseEqualsPlanted) {
  SyntheticDataset ds = MakeDataset();
  EXPECT_EQ(Chase(ds.graph, ds.keys).pairs, ds.planted);
}

TEST_P(WorkloadProperty, ChurchRosser) {
  SyntheticDataset ds = MakeDataset();
  ChaseOptions shuffled;
  shuffled.shuffle_seed = GetParam().seed * 31 + 7;
  EXPECT_EQ(Chase(ds.graph, ds.keys, shuffled).pairs, ds.planted);
}

TEST_P(WorkloadProperty, ParallelAlgorithmsAgree) {
  SyntheticDataset ds = MakeDataset();
  for (Algorithm a : {Algorithm::kEmOptMr, Algorithm::kEmOptVc}) {
    EXPECT_EQ(testing::CompileAndRun(ds.graph, ds.keys, a, 4).pairs, ds.planted)
        << AlgorithmName(a);
  }
}

TEST_P(WorkloadProperty, PairingIsNecessary) {
  // Prop. 9(a): an unpairable pair is never identified. Equivalently the
  // identified pairs must all be paired by some key.
  SyntheticDataset ds = MakeDataset();
  EmContext ctx(ds.graph, ds.keys, PlanOptions{.use_pairing = false});
  ConcurrentEquivalence final_eq(ds.graph.NumNodes());
  for (auto [a, b] : ds.planted) final_eq.Union(a, b);
  for (const Candidate& c : ctx.candidates()) {
    if (!final_eq.Same(c.e1, c.e2)) continue;  // only identified pairs
    bool paired = false;
    for (int ki : *c.keys) {
      if (ComputeMaxPairing(ds.graph, ctx.compiled_keys()[ki].cp, c.e1,
                            c.e2, *c.nbr1, *c.nbr2)
              .paired) {
        paired = true;
        break;
      }
    }
    EXPECT_TRUE(paired) << "identified pair (" << c.e1 << "," << c.e2
                        << ") must be pairable";
  }
}

TEST_P(WorkloadProperty, EvalSearchAgreesWithVf2Enumeration) {
  // Lemma 8 on random instances: the combined early-terminating search
  // decides exactly like full enumeration + coincidence, under the final
  // (hardest) Eq.
  SyntheticDataset ds = MakeDataset();
  EmContext ctx(ds.graph, ds.keys, PlanOptions{.use_pairing = false});
  ConcurrentEquivalence eq(ds.graph.NumNodes());
  for (auto [a, b] : ds.planted) eq.Union(a, b);
  EqView view(&eq);
  size_t checked = 0;
  for (const Candidate& c : ctx.candidates()) {
    if (++checked > 300) break;  // cap work per instance
    for (int ki : *c.keys) {
      const CompiledPattern& cp = ctx.compiled_keys()[ki].cp;
      EXPECT_EQ(
          KeyIdentifies(ds.graph, cp, c.e1, c.e2, view, c.nbr1, c.nbr2),
          IdentifiesByEnumeration(ds.graph, cp, c.e1, c.e2, view, c.nbr1,
                                  c.nbr2))
          << "pair (" << c.e1 << "," << c.e2 << ") key " << ki;
    }
  }
}

TEST_P(WorkloadProperty, MonotoneInEq) {
  // Chase steps only ever add pairs: running entity matching on a graph
  // whose planted pairs are pre-merged must still be a fixpoint (nothing
  // new appears, nothing disappears).
  SyntheticDataset ds = MakeDataset();
  EmContext ctx(ds.graph, ds.keys, PlanOptions{.use_pairing = false});
  ConcurrentEquivalence eq(ds.graph.NumNodes());
  for (auto [a, b] : ds.planted) eq.Union(a, b);
  EqView view(&eq);
  for (const Candidate& c : ctx.candidates()) {
    if (eq.Same(c.e1, c.e2)) continue;
    int key = -1;
    EXPECT_FALSE(ctx.IdentifiesWitness(c, view, &key, /*witness=*/nullptr,
                                       /*stats=*/nullptr,
                                       /*unrestricted=*/false,
                                       /*use_vf2=*/false))
        << "fixpoint must be stable: (" << c.e1 << "," << c.e2 << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadProperty,
    ::testing::Values(WorkloadParam{1, 1, 1, 1, 10},
                      WorkloadParam{2, 2, 2, 1, 12},
                      WorkloadParam{3, 2, 2, 2, 12},
                      WorkloadParam{4, 1, 3, 2, 14},
                      WorkloadParam{5, 3, 1, 3, 10},
                      WorkloadParam{6, 2, 4, 1, 10},
                      WorkloadParam{7, 1, 2, 3, 16},
                      WorkloadParam{8, 4, 2, 2, 8}),
    WorkloadName);

}  // namespace
}  // namespace gkeys
