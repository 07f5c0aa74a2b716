#ifndef GKEYS_BENCH_BENCH_UTIL_H_
#define GKEYS_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "core/entity_matcher.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"

namespace gkeys {
namespace bench {

// ---- Machine-readable results (--json=<path>) -------------------------------
//
// Every bench main accepts --json=<path> in addition to the standard
// benchmark flags. Each timed configuration appends one row of numeric
// fields (graph size, prep_s, run_s, pairs, counters); FlushJson() writes
// them as a JSON array so CI can archive a perf trajectory per commit.

struct JsonSink {
  std::string path;
  JsonRows rows;

  static JsonSink& Get() {
    static JsonSink sink;
    return sink;
  }
};

/// Consumes a --json=<path> argument before benchmark::Initialize (which
/// rejects flags it does not know).
inline void InitJson(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      JsonSink::Get().path = arg.substr(7);
      for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
      --*argc;
      argv[*argc] = nullptr;  // keep the argv[argc] == nullptr sentinel
      --i;
    }
  }
}

/// Appends one result row (no-op unless --json was given).
inline void JsonRow(
    const std::string& name,
    std::vector<std::pair<std::string, double>> fields) {
  JsonSink& sink = JsonSink::Get();
  if (sink.path.empty()) return;
  sink.rows.emplace_back(name, std::move(fields));
}

/// Writes all recorded rows. Call once, after RunSpecifiedBenchmarks.
/// Names and keys are escaped and non-finite values become null
/// (RenderJsonRows), so the artifact always parses.
inline void FlushJson() {
  JsonSink& sink = JsonSink::Get();
  if (sink.path.empty()) return;
  FILE* f = std::fopen(sink.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", sink.path.c_str());
    return;
  }
  std::string body = RenderJsonRows(sink.rows);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

/// A console reporter that additionally records every finished benchmark
/// run as a JsonRow (per-iteration real/cpu seconds, iterations, user
/// counters), so micro benches publish machine-readable rows without
/// hand-timing. Pass to RunSpecifiedBenchmarks in place of the default.
class JsonRowReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      std::vector<std::pair<std::string, double>> fields = {
          {"real_s_per_iter",
           run.real_accumulated_time / static_cast<double>(run.iterations)},
          {"cpu_s_per_iter",
           run.cpu_accumulated_time / static_cast<double>(run.iterations)},
          {"iterations", static_cast<double>(run.iterations)}};
      for (const auto& [cname, counter] : run.counters) {
        fields.emplace_back(cname, counter.value);
      }
      JsonRow(run.benchmark_name(), std::move(fields));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

/// The three evaluation datasets of paper §6.
enum class Dataset { kGoogle, kDBpedia, kSynthetic };

inline std::string DatasetName(Dataset d) {
  switch (d) {
    case Dataset::kGoogle: return "Google";
    case Dataset::kDBpedia: return "DBpedia";
    case Dataset::kSynthetic: return "Synthetic";
  }
  return "?";
}

/// Builds a dataset at a given scale with dependency-chain length `c` and
/// key radius `d`. The Google/DBpedia simulators have fixed schemas (their
/// own c and d); c/d sweeps therefore use the synthetic generator, exactly
/// as the paper varies its synthetic Σ.
inline SyntheticDataset MakeDataset(Dataset which, double scale, int c = 2,
                                    int d = 2) {
  switch (which) {
    case Dataset::kGoogle: {
      GoogleSimConfig cfg;
      // Sized so one matching round is compute-bound (≫ framework
      // overhead); |L| grows quadratically in the per-type population.
      cfg.scale = scale * 6.0;
      return GenerateGoogleSim(cfg);
    }
    case Dataset::kDBpedia: {
      DBpediaSimConfig cfg;
      cfg.scale = scale * 4.0;
      return GenerateDBpediaSim(cfg);
    }
    case Dataset::kSynthetic: {
      SyntheticConfig cfg;
      cfg.num_groups = 5;
      cfg.chain_length = c;
      cfg.radius = d;
      cfg.entities_per_type = 60;
      cfg.scale = scale;
      return GenerateSynthetic(cfg);
    }
  }
  return {};
}

/// The five algorithms evaluated in the paper's figures.
inline const std::vector<Algorithm>& PaperAlgorithms() {
  static const std::vector<Algorithm> algos = {
      Algorithm::kEmVf2Mr, Algorithm::kEmMr, Algorithm::kEmOptMr,
      Algorithm::kEmVc, Algorithm::kEmOptVc};
  return algos;
}

/// Publishes MatchResult statistics as benchmark counters.
inline void ExportCounters(benchmark::State& state, const MatchResult& r) {
  state.counters["pairs"] = static_cast<double>(r.pairs.size());
  state.counters["candidates"] = static_cast<double>(r.stats.candidates);
  state.counters["rounds"] = static_cast<double>(r.stats.rounds);
  state.counters["iso_checks"] = static_cast<double>(r.stats.iso_checks);
  state.counters["messages"] = static_cast<double>(r.stats.messages);
}

/// The standard JSON row for one entity-matching configuration: `r` is a
/// run of `plan`. Call it outside the timed loop, since `plan_bytes`
/// walks the whole plan.
inline void JsonMatchRow(const std::string& name,
                         const SyntheticDataset& ds, const MatchPlan& plan,
                         const MatchResult& r) {
  JsonRow(name,
          {{"nodes", static_cast<double>(ds.graph.NumNodes())},
           {"triples", static_cast<double>(ds.graph.NumTriples())},
           {"prep_s", plan.compile_seconds()},
           {"run_s", r.stats.run_seconds},
           {"pairs", static_cast<double>(r.pairs.size())},
           {"candidates_initial",
            static_cast<double>(r.stats.candidates_initial)},
           {"candidates_blocked",
            static_cast<double>(r.stats.candidates_blocked)},
           {"candidates", static_cast<double>(r.stats.candidates)},
           {"rounds", static_cast<double>(r.stats.rounds)},
           {"iso_checks", static_cast<double>(r.stats.iso_checks)},
           {"messages", static_cast<double>(r.stats.messages)},
           {"plan_bytes",
            static_cast<double>(plan.memory_bytes() +
                                ProvenanceIndexBytes(r.derivations))}});
}

/// One timed entity-matching run, reused by the figure benchmarks. The
/// plan is compiled ONCE outside the timing loop (the compile-once/
/// run-many contract of Matcher), so iterations measure the fixpoint
/// phase and the one-off preparation cost is reported honestly as the
/// `prep_s` counter next to the per-run `run_s`.
inline void RunEntityMatching(benchmark::State& state,
                              const SyntheticDataset& ds, Algorithm algo,
                              int processors,
                              const std::string& json_name = "") {
  auto plan = Matcher::Compile(ds.graph, ds.keys,
                               PlanOptions::For(algo, processors));
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  Matcher matcher(algo);
  matcher.processors(processors);
  size_t pairs = 0;
  MatchResult last;
  for (auto _ : state) {
    auto r = matcher.Run(*plan);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    last = *std::move(r);
    pairs = last.pairs.size();
    benchmark::DoNotOptimize(pairs);
  }
  if (pairs != ds.planted.size()) {
    state.SkipWithError("result mismatch vs planted ground truth");
    return;
  }
  ExportCounters(state, last);
  state.counters["prep_s"] = plan->compile_seconds();
  state.counters["run_s"] = last.stats.run_seconds;
  if (!json_name.empty()) {
    JsonMatchRow(json_name, ds, *plan, last);
  }
}

}  // namespace bench
}  // namespace gkeys

#endif  // GKEYS_BENCH_BENCH_UTIL_H_
