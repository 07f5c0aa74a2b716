// Product-graph size (paper §5.1): the paper reports |Gp| = 2.7 * |G| on
// average — crucially LINEAR in |G|, not the naive |G|^2. This benchmark
// measures |Vp| + |Ep| against |G| across datasets and scales, plus the
// time to compile the EMVC plan that builds Gp.

#include "bench_util.h"
#include "core/match_plan.h"

namespace gkeys {
namespace bench {
namespace {

void RegisterAll() {
  for (Dataset ds :
       {Dataset::kGoogle, Dataset::kDBpedia, Dataset::kSynthetic}) {
    for (double scale : {0.5, 1.0, 2.0}) {
      std::string name = "ProductGraph/" + DatasetName(ds) +
                         "/scale:" + std::to_string(scale).substr(0, 3);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [ds, scale](benchmark::State& state) {
            SyntheticDataset data = MakeDataset(ds, scale);
            PlanOptions popts = PlanOptions::For(Algorithm::kEmVc, 1);
            size_t nodes = 0, edges = 0;
            for (auto _ : state) {
              auto plan = CompileMatchPlan(data.graph, data.keys, popts);
              if (!plan.ok()) {
                state.SkipWithError(plan.status().ToString().c_str());
                return;
              }
              nodes = plan->product_graph().NumNodes();
              edges = plan->product_graph().NumEdges();
              benchmark::DoNotOptimize(nodes);
            }
            double g_size = static_cast<double>(data.graph.NumTriples());
            state.counters["G_triples"] = g_size;
            state.counters["Gp_nodes"] = static_cast<double>(nodes);
            state.counters["Gp_edges"] = static_cast<double>(edges);
            state.counters["Gp_over_G"] =
                static_cast<double>(nodes + edges) / g_size;
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace gkeys

int main(int argc, char** argv) {
  gkeys::bench::InitJson(&argc, argv);
  gkeys::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  gkeys::bench::JsonRowReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  gkeys::bench::FlushJson();
  return 0;
}
