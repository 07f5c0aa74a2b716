// Ablation study backing the §6 "Effectiveness of optimization" numbers:
// each §4.2 / §5.2 optimization toggled independently on the synthetic
// workload, so the contribution of pairing (smaller L + neighbors),
// entity dependency, incremental checking, bounded messages (k), and
// prioritized propagation can be read off individually.

#include "bench_util.h"

namespace gkeys {
namespace bench {
namespace {

struct Variant {
  const char* name;
  Algorithm base;
  void (*tweak)(PlanOptions&, EmOptions&);
};

void RegisterAll() {
  auto data = std::make_shared<SyntheticDataset>(
      MakeDataset(Dataset::kSynthetic, /*scale=*/1.0, /*c=*/3, /*d=*/2));

  static const Variant kVariants[] = {
      {"MR/base", Algorithm::kEmMr, [](PlanOptions&, EmOptions&) {}},
      {"MR/vf2", Algorithm::kEmMr,
       [](PlanOptions&, EmOptions& o) { o.use_vf2 = true; }},
      {"MR/pairing", Algorithm::kEmMr,
       [](PlanOptions& p, EmOptions&) { p.use_pairing = true; }},
      {"MR/dependency", Algorithm::kEmMr,
       [](PlanOptions&, EmOptions& o) { o.use_dependency = true; }},
      {"MR/incremental", Algorithm::kEmMr,
       [](PlanOptions&, EmOptions& o) { o.use_incremental = true; }},
      {"MR/all_opts", Algorithm::kEmOptMr, [](PlanOptions&, EmOptions&) {}},
      {"VC/base", Algorithm::kEmVc, [](PlanOptions&, EmOptions&) {}},
      {"VC/bounded_k4", Algorithm::kEmVc,
       [](PlanOptions&, EmOptions& o) { o.bounded_messages = 4; }},
      {"VC/prioritized", Algorithm::kEmVc,
       [](PlanOptions&, EmOptions& o) { o.prioritized = true; }},
      {"VC/all_opts", Algorithm::kEmOptVc, [](PlanOptions&, EmOptions&) {}},
  };

  for (const Variant& v : kVariants) {
    std::string name = std::string("Ablation/") + v.name;
    Algorithm base = v.base;
    auto tweak = v.tweak;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [data, base, tweak](benchmark::State& state) {
          // Pairing is a compile-time choice; everything else is a run-time
          // knob on the Matcher, so each variant compiles once and reruns.
          PlanOptions popts = PlanOptions::For(base, /*p=*/4);
          EmOptions opts = EmOptions::For(base, /*p=*/4);
          tweak(popts, opts);
          auto plan = Matcher::Compile(data->graph, data->keys, popts);
          if (!plan.ok()) {
            state.SkipWithError(plan.status().ToString().c_str());
            return;
          }
          Matcher matcher(base);
          matcher.options(opts);
          MatchResult r;
          for (auto _ : state) {
            auto run = matcher.Run(*plan);
            if (!run.ok()) {
              state.SkipWithError(run.status().ToString().c_str());
              return;
            }
            r = *std::move(run);
            benchmark::DoNotOptimize(r.pairs.size());
          }
          if (r.pairs != data->planted) {
            state.SkipWithError("ablation variant changed the result");
            return;
          }
          ExportCounters(state, r);
          state.counters["prep_s"] = plan->compile_seconds();
          state.counters["run_s"] = r.stats.run_seconds;
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
  gkeys::bench::JsonRowReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  gkeys::bench::FlushJson();
  return 0;
}
