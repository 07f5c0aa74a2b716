// Incremental re-matching amortization: Graph::Apply + MatchPlan::Patch +
// Matcher::Rematch versus a from-scratch Compile + Run on the post-delta
// graph, across delta sizes (0.1%, 1%, 10% of edges) and delta kinds on
// the three evaluation datasets:
//   add — the held-out-edges methodology: generate the full dataset,
//         withhold a random delta-sized slice of its triples, compile and
//         run on the remainder, then stream the slice back in;
//   del — compile and run on the FULL dataset, then remove a random
//         delta-sized slice (exercises provenance retraction + seeding);
//   mix — withhold half the slice, re-add it while removing the other
//         half from the present triples.
// Every Rematch seeds from the previous result; the rows record that
// (seeded) and the derivations a removal retracted. Counters report
// absolute times and the speedup; results are verified byte-identical
// against the from-scratch run.

#include "bench_util.h"

#include "common/rng.h"
#include "common/timer.h"
#include "graph/delta.h"

namespace gkeys {
namespace bench {
namespace {

/// Rebuilds `src` node-for-node (same NodeIds) without the triples whose
/// index is flagged in `held`.
Graph RebuildWithout(const Graph& src, const std::vector<Triple>& triples,
                     const std::vector<uint8_t>& held) {
  Graph g;
  for (NodeId n = 0; n < src.NumNodes(); ++n) {
    if (src.IsEntity(n)) {
      g.AddEntity(src.interner().Resolve(src.entity_type(n)));
    } else {
      g.AddValue(src.value_str(n));
    }
  }
  for (size_t i = 0; i < triples.size(); ++i) {
    if (held[i]) continue;
    const Triple& t = triples[i];
    g.AddTriple(t.subject, src.interner().Resolve(t.pred), t.object).IgnoreError();
  }
  g.Finalize();
  return g;
}

/// Which way the benchmark's delta mutates the base graph.
enum class DeltaKind { kAdd, kRemove, kMixed };

const char* DeltaKindName(DeltaKind k) {
  switch (k) {
    case DeltaKind::kAdd: return "add";
    case DeltaKind::kRemove: return "del";
    case DeltaKind::kMixed: return "mix";
  }
  return "?";
}

void RegisterAll() {
  for (Algorithm algo : {Algorithm::kEmOptVc, Algorithm::kEmOptMr}) {
  for (Dataset ds :
       {Dataset::kGoogle, Dataset::kDBpedia, Dataset::kSynthetic}) {
    // Scale 1 is the bench_table2 configuration; scale 4 shows the
    // asymptotics — full compile grows superlinearly with the graph
    // while patch + rematch stay proportional to the delta's region.
    for (double scale : {1.0, 4.0}) {
      for (DeltaKind kind :
           {DeltaKind::kAdd, DeltaKind::kRemove, DeltaKind::kMixed}) {
      for (double frac : {0.001, 0.01, 0.1}) {
        std::string name = "Incremental/" + AlgorithmName(algo) + "/" +
                           DatasetName(ds) + "/x" +
                           std::to_string(static_cast<int>(scale)) + "/" +
                           DeltaKindName(kind) + "_" +
                           std::to_string(frac);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [ds, frac, name, algo, scale, kind](benchmark::State& state) {
              SyntheticDataset data = MakeDataset(ds, scale);
            std::vector<Triple> triples;
            data.graph.ForEachTriple(
                [&](const Triple& t) { triples.push_back(t); });
            const size_t delta_size = std::max<size_t>(
                1, static_cast<size_t>(frac * triples.size()));
            Rng rng(42);
            // `held` triples stay out of the base graph (re-added by the
            // delta); `removed` ones are present and removed by it.
            const size_t held_count =
                kind == DeltaKind::kAdd
                    ? delta_size
                    : (kind == DeltaKind::kMixed ? delta_size / 2 : 0);
            std::vector<uint8_t> held(triples.size(), 0);
            for (size_t chosen = 0; chosen < held_count;) {
              size_t pick = rng.Below(triples.size());
              if (!held[pick]) {
                held[pick] = 1;
                ++chosen;
              }
            }
            std::vector<uint8_t> removed(triples.size(), 0);
            for (size_t chosen = 0; chosen < delta_size - held_count;) {
              size_t pick = rng.Below(triples.size());
              if (!held[pick] && !removed[pick]) {
                removed[pick] = 1;
                ++chosen;
              }
            }

            double patch_s = 0, rematch_s = 0, full_compile_s = 0,
                   full_run_s = 0, base_compile_s = 0;
            size_t pairs = 0, dirty = 0, reused = 0;
            size_t seeded = 0, retracted = 0;
            bool mismatch = false;
            for (auto _ : state) {
              state.PauseTiming();
              Graph base = RebuildWithout(data.graph, triples, held);
              auto plan = Matcher::Compile(base, data.keys,
                                           PlanOptions::For(algo, 1));
              if (!plan.ok()) {
                state.SkipWithError(plan.status().ToString().c_str());
                return;
              }
              base_compile_s = plan->compile_seconds();
              Matcher matcher(algo);
              matcher.processors(1);
              auto prev = matcher.Run(*plan);
              if (!prev.ok()) {
                state.SkipWithError(prev.status().ToString().c_str());
                return;
              }
              GraphDelta delta(base);
              for (size_t i = 0; i < triples.size(); ++i) {
                if (!held[i] && !removed[i]) continue;
                const Triple& t = triples[i];
                if (held[i]) {
                  delta.AddTriple(
                      t.subject, data.graph.interner().Resolve(t.pred),
                      t.object).IgnoreError();
                } else {
                  delta.RemoveTriple(
                      t.subject, data.graph.interner().Resolve(t.pred),
                      t.object).IgnoreError();
                }
              }
              state.ResumeTiming();

              // Incremental path: apply once (it mutates the graph), then
              // patch and rematch — both pure — timed as the min over a
              // few repetitions (single-CPU wall clocks are noisy).
              constexpr int kReps = 3;
              Timer apply_timer;
              auto dirty_or = base.Apply(delta);
              if (!dirty_or.ok()) {
                state.SkipWithError(dirty_or.status().ToString().c_str());
                return;
              }
              double t_apply = apply_timer.Seconds();
              double t_patch = 1e9;
              StatusOr<MatchPlan> patched = MatchPlan();
              for (int r = 0; r < kReps; ++r) {
                Timer t;
                patched = plan->Patch(delta);
                if (!patched.ok()) {
                  state.SkipWithError(patched.status().ToString().c_str());
                  return;
                }
                t_patch = std::min(t_patch, t.Seconds());
              }
              double t_rematch = 1e9;
              StatusOr<MatchResult> rematched = MatchResult();
              for (int r = 0; r < kReps; ++r) {
                Timer t;
                rematched = matcher.Rematch(*patched, *prev, delta);
                if (!rematched.ok()) {
                  state.SkipWithError(
                      rematched.status().ToString().c_str());
                  return;
                }
                t_rematch = std::min(t_rematch, t.Seconds());
              }

              // From-scratch baseline on the (now post-delta) graph.
              double t_full_compile = 1e9, t_full_run = 1e9;
              StatusOr<MatchResult> fresh_run = MatchResult();
              for (int r = 0; r < kReps; ++r) {
                Timer full;
                auto fresh = Matcher::Compile(base, data.keys,
                                              PlanOptions::For(algo, 1));
                if (!fresh.ok()) {
                  state.SkipWithError(fresh.status().ToString().c_str());
                  return;
                }
                double c = full.Seconds();
                Timer runt;
                fresh_run = matcher.Run(*fresh);
                if (!fresh_run.ok()) {
                  state.SkipWithError(
                      fresh_run.status().ToString().c_str());
                  return;
                }
                t_full_compile = std::min(t_full_compile, c);
                t_full_run = std::min(t_full_run, runt.Seconds());
              }
              double t_full_total = t_full_compile + t_full_run;

              // Graph::Apply is common to both alternatives (a full
              // recompile also needs the delta applied first), so it is
              // reported separately and not charged to either side.
              patch_s = t_patch;
              rematch_s = t_rematch;
              if (const ContextPatchInfo* pi = patched->patch_info()) {
                state.counters["patch_keys_s"] = pi->keys_seconds;
                state.counters["patch_affected_s"] = pi->affected_seconds;
                state.counters["patch_dnbr_s"] = pi->dneighbor_seconds;
                state.counters["patch_enum_s"] = pi->enumerate_seconds;
                state.counters["patch_pairing_s"] = pi->pairing_seconds;
                state.counters["patch_depindex_s"] = pi->depindex_seconds;
                state.counters["patch_pg_s"] = pi->product_graph_seconds;
              }
              state.counters["apply_s"] = t_apply;
              full_compile_s = t_full_compile;
              full_run_s = t_full_total - t_full_compile;
              pairs = rematched->pairs.size();
              dirty = patched->dirty_candidates().size();
              reused = patched->context().candidates().size() - dirty;
              seeded = rematched->stats.rematch_seeded;
              retracted = rematched->stats.derivations_retracted;
              mismatch = rematched->pairs != fresh_run->pairs;
              benchmark::DoNotOptimize(pairs);
            }
            if (mismatch) {
              state.SkipWithError("patch+rematch diverged from full run");
              return;
            }
            double inc_total = patch_s + rematch_s;
            double full_total = full_compile_s + full_run_s;
            state.counters["delta_triples"] = static_cast<double>(delta_size);
            state.counters["patch_s"] = patch_s;
            state.counters["rematch_s"] = rematch_s;
            state.counters["full_compile_s"] = full_compile_s;
            state.counters["full_run_s"] = full_run_s;
            state.counters["speedup"] =
                inc_total > 0 ? full_total / inc_total : 0;
            state.counters["pairs"] = static_cast<double>(pairs);
            state.counters["dirty_candidates"] = static_cast<double>(dirty);
            state.counters["reused_candidates"] = static_cast<double>(reused);
            state.counters["seeded"] = static_cast<double>(seeded);
            state.counters["retracted"] = static_cast<double>(retracted);
            JsonRow(name,
                    {{"triples", static_cast<double>(triples.size())},
                     {"scale", scale},
                     {"delta_triples", static_cast<double>(delta_size)},
                     {"delta_frac", frac},
                     {"base_compile_s", base_compile_s},
                     {"patch_s", patch_s},
                     {"rematch_s", rematch_s},
                     {"full_compile_s", full_compile_s},
                     {"full_run_s", full_run_s},
                     {"speedup", inc_total > 0 ? full_total / inc_total : 0},
                     {"pairs", static_cast<double>(pairs)},
                     {"dirty_candidates", static_cast<double>(dirty)},
                     {"reused_candidates", static_cast<double>(reused)},
                     {"seeded", static_cast<double>(seeded)},
                     {"retracted", static_cast<double>(retracted)}});
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
      }
      }
    }
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
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gkeys::bench::FlushJson();
  return 0;
}
