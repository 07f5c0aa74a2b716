// Exp-3, varying d (paper Fig. 8(d), 8(h), 8(l)): wall time as the key
// radius d grows from 1 to 5, fixing p = 4, c = 2. The paper's claims:
// d is a major cost factor (d-neighbors grow with d), and the pairing
// strategy of EMOptMR shrinks the neighbors substantially (60%/42%/53%),
// making it up to ~4.8x faster than EMMR at d = 3.

#include "bench_util.h"

namespace gkeys {
namespace bench {
namespace {

void RegisterAll() {
  for (int d : {1, 2, 3, 4, 5}) {
    auto data = std::make_shared<SyntheticDataset>(
        MakeDataset(Dataset::kSynthetic, /*scale=*/0.3, /*c=*/2, d));
    for (Algorithm algo : PaperAlgorithms()) {
      std::string name = "VaryD/Synthetic/" + AlgorithmName(algo) +
                         "/d:" + std::to_string(d);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [data, algo, name](benchmark::State& state) {
            RunEntityMatching(state, *data, algo, /*processors=*/4, name);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  // Neighbor-reduction factor (the §6 "Gd is 2.5/1.7/2.1 times smaller"
  // numbers): measured via EmContext with and without pairing.
  for (int d : {1, 2, 3}) {
    std::string name = "VaryD/NeighborReduction/d:" + std::to_string(d);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [d](benchmark::State& state) {
          SyntheticDataset ds =
              MakeDataset(Dataset::kSynthetic, /*scale=*/0.5, /*c=*/2, d);
          double full_avg = 0, reduced_avg = 0;
          for (auto _ : state) {
            EmContext ctx(ds.graph, ds.keys,
                          PlanOptions::For(Algorithm::kEmOptMr, 1));
            full_avg = static_cast<double>(ctx.neighbor_nodes()) /
                       std::max<size_t>(1, ctx.neighbor_entities());
            reduced_avg =
                static_cast<double>(ctx.neighbor_nodes_reduced()) /
                std::max<size_t>(1, 2 * ctx.candidates().size());
            benchmark::DoNotOptimize(reduced_avg);
          }
          state.counters["avg_nbr_full"] = full_avg;
          state.counters["avg_nbr_reduced"] = reduced_avg;
          state.counters["reduction_factor"] =
              reduced_avg > 0 ? full_avg / reduced_avg : 0;
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace gkeys

int main(int argc, char** argv) {
  gkeys::bench::InitJson(&argc, argv);
  gkeys::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gkeys::bench::FlushJson();
  return 0;
}
