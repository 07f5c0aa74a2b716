// Micro-benchmarks for the matching substrates: the combined EvalMR
// search vs VF2 full enumeration (the §4.1 early-termination claim),
// pairing-relation computation (Prop. 9, including a hub-sized ball),
// d-neighbor extraction, and union-find operations.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "gen/hostile.h"
#include "graph/neighborhood.h"
#include "isomorph/pairing.h"
#include "isomorph/vf2.h"
#include "pairing_reference.h"

namespace gkeys {
namespace bench {
namespace {

/// Shared workload: one synthetic dataset plus its context and one
/// identifiable candidate to probe.
struct MicroFixture {
  SyntheticDataset ds;
  std::unique_ptr<EmContext> ctx;
  const Candidate* planted_candidate = nullptr;
  const Candidate* negative_candidate = nullptr;
  // The Eq type the engines' iso checks read.
  ConcurrentEquivalence eq;

  MicroFixture()
      : ds(MakeDataset(Dataset::kSynthetic, 1.0, 2, 2)),
        eq(ds.graph.NumNodes()) {
    // Unblocked enumeration: these benches probe single candidate-pair
    // calls, and with signature blocking on every surviving candidate can
    // be a planted (positive) pair — the negative probe would not exist.
    ctx = std::make_unique<EmContext>(
        ds.graph, ds.keys,
        PlanOptions{.use_pairing = false, .use_blocking = false});
    for (auto [a, b] : ds.planted) eq.Union(a, b);
    for (const Candidate& c : ctx->candidates()) {
      if (eq.Same(c.e1, c.e2) && planted_candidate == nullptr) {
        planted_candidate = &c;
      }
      if (!eq.Same(c.e1, c.e2) && negative_candidate == nullptr) {
        negative_candidate = &c;
      }
    }
  }

  static MicroFixture& Get() {
    static MicroFixture* f = new MicroFixture();
    return *f;
  }
};

void BM_EvalSearchPositive(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  const Candidate& c = *f.planted_candidate;
  EqView view(&f.eq);
  for (auto _ : state) {
    bool found = false;
    for (int ki : *c.keys) {
      found = KeyIdentifies(f.ds.graph, f.ctx->compiled_keys()[ki].cp, c.e1,
                            c.e2, view, c.nbr1, c.nbr2);
      if (found) break;
    }
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_EvalSearchPositive);

void BM_Vf2EnumerationPositive(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  const Candidate& c = *f.planted_candidate;
  EqView view(&f.eq);
  for (auto _ : state) {
    bool found = false;
    for (int ki : *c.keys) {
      found = IdentifiesByEnumeration(f.ds.graph,
                                      f.ctx->compiled_keys()[ki].cp, c.e1,
                                      c.e2, view, c.nbr1, c.nbr2);
      if (found) break;
    }
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_Vf2EnumerationPositive);

void BM_EvalSearchNegative(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  if (f.negative_candidate == nullptr) {
    state.SkipWithError("no negative candidate in the workload");
    return;
  }
  const Candidate& c = *f.negative_candidate;
  EqView view(&f.eq);
  for (auto _ : state) {
    bool found = false;
    for (int ki : *c.keys) {
      found |= KeyIdentifies(f.ds.graph, f.ctx->compiled_keys()[ki].cp,
                             c.e1, c.e2, view, c.nbr1, c.nbr2);
    }
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_EvalSearchNegative);

void BM_PairingComputation(benchmark::State& state) {
  // Scratch reuse mirrors how the engines call pairing (one arena per
  // worker thread, reused across every candidate pair).
  MicroFixture& f = MicroFixture::Get();
  const Candidate& c = *f.planted_candidate;
  PairingScratch scratch;
  for (auto _ : state) {
    for (int ki : *c.keys) {
      PairingResult pr =
          ComputeMaxPairing(f.ds.graph, f.ctx->compiled_keys()[ki].cp,
                            c.e1, c.e2, *c.nbr1, *c.nbr2,
                            /*collect_pairs=*/false, &scratch);
      benchmark::DoNotOptimize(pr.paired);
    }
  }
}
BENCHMARK(BM_PairingComputation);

void BM_PairingReference(benchmark::State& state) {
  // The pre-dense-worklist implementation on the same inputs, kept timed
  // so the BM_PairingComputation speedup stays measured per commit.
  MicroFixture& f = MicroFixture::Get();
  const Candidate& c = *f.planted_candidate;
  for (auto _ : state) {
    for (int ki : *c.keys) {
      PairingResult pr =
          ReferenceMaxPairing(f.ds.graph, f.ctx->compiled_keys()[ki].cp,
                              c.e1, c.e2, *c.nbr1, *c.nbr2);
      benchmark::DoNotOptimize(pr.paired);
    }
  }
}
BENCHMARK(BM_PairingReference);

void BM_PairingDense(benchmark::State& state) {
  // Pairing over full (unreduced) d-neighborhoods of one candidate as d
  // grows: the dense-worklist fixpoint's target regime (bench_vary_d's
  // prep axis distilled to the per-pair call).
  MicroFixture& f = MicroFixture::Get();
  const Candidate& c = *f.planted_candidate;
  const int d = static_cast<int>(state.range(0));
  NodeSet n1 = DNeighbor(f.ds.graph, c.e1, d);
  NodeSet n2 = DNeighbor(f.ds.graph, c.e2, d);
  PairingScratch scratch;
  size_t relation = 0;
  for (auto _ : state) {
    for (int ki : *c.keys) {
      PairingResult pr =
          ComputeMaxPairing(f.ds.graph, f.ctx->compiled_keys()[ki].cp,
                            c.e1, c.e2, n1, n2,
                            /*collect_pairs=*/false, &scratch);
      relation = std::max(relation, pr.relation_size);
      benchmark::DoNotOptimize(pr.paired);
    }
  }
  state.counters["nbr_nodes"] = static_cast<double>(n1.size() + n2.size());
  state.counters["relation"] = static_cast<double>(relation);
}
BENCHMARK(BM_PairingDense)->Arg(2)->Arg(3)->Arg(4);

void BM_PairingReferenceDense(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  const Candidate& c = *f.planted_candidate;
  const int d = static_cast<int>(state.range(0));
  NodeSet n1 = DNeighbor(f.ds.graph, c.e1, d);
  NodeSet n2 = DNeighbor(f.ds.graph, c.e2, d);
  for (auto _ : state) {
    for (int ki : *c.keys) {
      PairingResult pr =
          ReferenceMaxPairing(f.ds.graph, f.ctx->compiled_keys()[ki].cp,
                              c.e1, c.e2, n1, n2);
      benchmark::DoNotOptimize(pr.paired);
    }
  }
  state.counters["nbr_nodes"] = static_cast<double>(n1.size() + n2.size());
}
BENCHMARK(BM_PairingReferenceDense)->Arg(2)->Arg(3)->Arg(4);

/// The ball² case: the planted leaf pair of a power-law graph with the
/// largest d-neighborhoods. Every planted leaf pair chains through a
/// planted hub pair, and the planted leaves are the most-followed leaves,
/// so both balls hold hundreds of followers whose own `la` values lie
/// outside the ball and can never support K_leaf.
struct HubFixture {
  SyntheticDataset ds;
  std::unique_ptr<EmContext> ctx;
  const Candidate* hot = nullptr;

  HubFixture() : ds(GeneratePowerLaw(Config())) {
    ctx = std::make_unique<EmContext>(ds.graph, ds.keys,
                                      PlanOptions{.use_pairing = false});
    auto ball = [](const Candidate& c) {
      return c.nbr1->size() + c.nbr2->size();
    };
    for (const Candidate& c : ctx->candidates()) {
      // Leaf pairs carry the recursive key; hub pairs do not.
      if (c.has_recursive_key && (hot == nullptr || ball(c) > ball(*hot))) {
        hot = &c;
      }
    }
  }

  static PowerLawConfig Config() {
    PowerLawConfig config;
    config.chained_fraction = 1.0;
    config.follows_per_leaf = 2;
    config.scale = 10;
    return config;
  }

  static HubFixture& Get() {
    static HubFixture* f = new HubFixture();
    return *f;
  }
};

void BM_PairingHub(benchmark::State& state) {
  HubFixture& f = HubFixture::Get();
  const Candidate& c = *f.hot;
  PairingScratch scratch;
  size_t relation = 0;
  for (auto _ : state) {
    for (int ki : *c.keys) {
      PairingResult pr =
          ComputeMaxPairing(f.ds.graph, f.ctx->compiled_keys()[ki].cp,
                            c.e1, c.e2, *c.nbr1, *c.nbr2,
                            /*collect_pairs=*/false, &scratch);
      relation = std::max(relation, pr.relation_size);
      benchmark::DoNotOptimize(pr.paired);
    }
  }
  state.counters["nbr_nodes"] =
      static_cast<double>(c.nbr1->size() + c.nbr2->size());
  state.counters["relation"] = static_cast<double>(relation);
}
BENCHMARK(BM_PairingHub);

void BM_PairingReferenceHub(benchmark::State& state) {
  HubFixture& f = HubFixture::Get();
  const Candidate& c = *f.hot;
  for (auto _ : state) {
    for (int ki : *c.keys) {
      PairingResult pr =
          ReferenceMaxPairing(f.ds.graph, f.ctx->compiled_keys()[ki].cp,
                              c.e1, c.e2, *c.nbr1, *c.nbr2);
      benchmark::DoNotOptimize(pr.paired);
    }
  }
  state.counters["nbr_nodes"] =
      static_cast<double>(c.nbr1->size() + c.nbr2->size());
}
BENCHMARK(BM_PairingReferenceHub)->Unit(benchmark::kMillisecond);

void BM_DNeighborExtraction(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  const Candidate& c = *f.planted_candidate;
  int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    NodeSet n = DNeighbor(f.ds.graph, c.e1, d);
    benchmark::DoNotOptimize(n.size());
  }
}
BENCHMARK(BM_DNeighborExtraction)->Arg(1)->Arg(2)->Arg(3);

void BM_ConcurrentUnionFindOps(benchmark::State& state) {
  size_t n = 100000;
  for (auto _ : state) {
    ConcurrentEquivalence eq(n);
    for (NodeId i = 0; i + 1 < n; i += 2) eq.Union(i, i + 1);
    bool same = eq.Same(0, 1);
    benchmark::DoNotOptimize(same);
  }
  state.SetItemsProcessed(state.iterations() * (n / 2));
}
BENCHMARK(BM_ConcurrentUnionFindOps);

}  // namespace
}  // namespace bench
}  // namespace gkeys

int main(int argc, char** argv) {
  gkeys::bench::InitJson(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The capture reporter mirrors every run into the --json sink, so the
  // CI artifact records the pairing / search micro timings per commit.
  gkeys::bench::JsonRowReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  gkeys::bench::FlushJson();
  return 0;
}
