// Table 2 (paper §6): candidate matches vs confirmed matches on the three
// datasets. The paper reports, per dataset, the candidate count seen by
// EMOptVC (pairs surviving the pairing filter), the larger candidate
// count of EMOptMR, and the confirmed matches — identical for both
// algorithms. Counters: candidates_optvc, candidates_optmr, confirmed.

#include "bench_util.h"

namespace gkeys {
namespace bench {
namespace {

void RegisterAll() {
  for (Dataset ds :
       {Dataset::kGoogle, Dataset::kDBpedia, Dataset::kSynthetic}) {
    std::string name = "Table2/" + DatasetName(ds);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [ds, name](benchmark::State& state) {
          SyntheticDataset data = MakeDataset(ds, /*scale=*/1.0);
          // One plan, two algorithms: EMOptVC and EMOptMR share the same
          // compiled preparation (both use pairing; the skeleton serves VC).
          auto plan = Matcher::Compile(
              data.graph, data.keys,
              PlanOptions::For(Algorithm::kEmOptVc, /*p=*/4));
          if (!plan.ok()) {
            state.SkipWithError(plan.status().ToString().c_str());
            return;
          }
          MatchResult vc, mr;
          for (auto _ : state) {
            auto rvc = Matcher(Algorithm::kEmOptVc).processors(4).Run(*plan);
            auto rmr = Matcher(Algorithm::kEmOptMr).processors(4).Run(*plan);
            if (!rvc.ok() || !rmr.ok()) {
              state.SkipWithError("run failed");
              return;
            }
            vc = *std::move(rvc);
            mr = *std::move(rmr);
            benchmark::DoNotOptimize(vc.pairs.size());
          }
          if (vc.pairs != mr.pairs) {
            state.SkipWithError("EMOptVC and EMOptMR disagree");
            return;
          }
          state.counters["candidates_raw"] =
              static_cast<double>(mr.stats.candidates_initial);
          state.counters["candidates_blocked"] =
              static_cast<double>(mr.stats.candidates_blocked);
          state.counters["candidates_optmr"] =
              static_cast<double>(mr.stats.candidates);
          // EMOptVC's effective candidates: pairs represented in Gp.
          state.counters["candidates_optvc"] =
              static_cast<double>(vc.stats.candidates);
          state.counters["confirmed"] =
              static_cast<double>(vc.pairs.size());
          state.counters["prep_s"] = plan->compile_seconds();
          state.counters["run_s"] = vc.stats.run_seconds;
          JsonMatchRow(name + "/EMOptVC", data, *plan, vc);
          JsonMatchRow(name + "/EMOptMR", data, *plan, mr);
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
