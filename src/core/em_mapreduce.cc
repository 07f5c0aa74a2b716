#include "core/em_mapreduce.h"

#include "core/fixpoint.h"
#include "mapreduce/mapreduce.h"

namespace gkeys {

namespace {

// Status codes flowing through the MapReduce rounds.
constexpr uint8_t kUnidentified = 0;  // keep for next round
constexpr uint8_t kNewlyIdentified = 1;  // merge into Eq
constexpr uint8_t kTcIdentified = 2;  // became Same transitively

}  // namespace

StatusOr<MatchResult> RunEmMapReduce(const EmContext& ctx,
                                     const EmOptions& opts, MatchSink* sink,
                                     const RematchSeed* seed) {
  const auto& candidates = ctx.candidates();
  const int p = std::max(1, opts.processors);

  internal::FixpointRun run(ctx, opts, sink, seed);
  const ConcurrentEquivalence& eq = run.eq();
  const EqView view = run.view();

  // Search stats aggregated lock-free (mappers run concurrently; a mutex
  // here would serialize the map phase and destroy parallel scalability).
  std::atomic<uint64_t> iso_checks{0};
  std::atomic<uint64_t> stat_expansions{0};
  std::atomic<uint64_t> stat_feasibility{0};
  std::atomic<uint64_t> stat_full{0};

  // MapEM (paper Fig. 4). V1: 1 = run the isomorphism check, 0 = carry
  // forward unchecked (incremental optimization skips quiet pairs).
  using V2 = std::pair<uint32_t, uint8_t>;
  mapreduce::Job<uint32_t, uint8_t, NodeId, V2, uint32_t, uint8_t> job(
      /*map=*/
      [&](const uint32_t& idx, const uint8_t& check,
          mapreduce::Emitter<NodeId, V2>& out) {
        const Candidate& c = candidates[idx];
        if (eq.Same(c.e1, c.e2)) {
          // Identified transitively since last round: drop from the
          // pipeline, but tell the reducer so dependents get re-checked.
          out.Emit(c.e1, {idx, kTcIdentified});
          return;
        }
        if (check != 0) {
          SearchStats local;
          iso_checks.fetch_add(1, std::memory_order_relaxed);
          thread_local Witness witness;
          int fired = -1;
          const bool found = ctx.IdentifiesWitness(
              c, view, &fired, &witness, &local, /*unrestricted=*/false,
              opts.use_vf2);
          // Recorded in map order: premises were Same under the previous
          // rounds' Eq, whose derivations are already logged.
          if (found) run.Record(c, fired, witness);
          stat_expansions.fetch_add(local.expansions,
                                    std::memory_order_relaxed);
          stat_feasibility.fetch_add(local.feasibility_checks,
                                     std::memory_order_relaxed);
          stat_full.fetch_add(local.full_instantiations,
                              std::memory_order_relaxed);
          if (found) {
            out.Emit(c.e1, {idx, kNewlyIdentified});
            out.Emit(c.e2, {idx, kNewlyIdentified});
            return;
          }
        }
        out.Emit(c.e1, {idx, kUnidentified});
      },
      /*reduce=*/
      [&](const NodeId&, const std::vector<V2>& values,
          mapreduce::Emitter<uint32_t, uint8_t>& out) {
        for (const auto& [idx, code] : values) {
          if (code == kNewlyIdentified) {
            const Candidate& c = candidates[idx];
            run.Merge(c.e1, c.e2);  // TC is implicit in union-find.
            out.Emit(idx, kNewlyIdentified);
          } else if (code == kTcIdentified) {
            out.Emit(idx, kTcIdentified);
          } else {
            out.Emit(idx, kUnidentified);
          }
        }
      });

  // DriverMR: choose the first round's inputs. With the dependency
  // optimization, start from L0 (pairs carrying a value-based key);
  // everything else enters in round 2, after its dependencies had a
  // chance to fire. A seeded rematch instead admits exactly the dirty
  // candidates; clean ones are pulled in by the wake-ups below. A
  // candidate in the pipeline reports its own transitive equality
  // (kTcIdentified), so the shell's sweep watches only the ones a
  // seeded run has not admitted.
  std::vector<std::pair<uint32_t, uint8_t>> inputs;
  std::vector<uint8_t> entered(candidates.size(), 0);
  auto admit = [&](uint32_t i) {
    inputs.emplace_back(i, 1);
    entered[i] = 1;
    run.MarkDone(i);
  };
  bool deferred_pending = false;
  if (run.seeded()) {
    for (uint32_t i : seed->active) admit(i);
  } else {
    for (uint32_t i = 0; i < candidates.size(); ++i) {
      run.MarkDone(i);  // enters by round 2 at the latest
      if (opts.use_dependency && !candidates[i].has_value_based_key) {
        deferred_pending = true;
        continue;
      }
      admit(i);
    }
  }

  while (!inputs.empty() || deferred_pending) {
    GKEYS_RETURN_IF_ERROR(run.BeginRound());
    size_t merges_before = eq.num_merges();
    auto outputs = job.Run(inputs, p);

    // Collect per-pair outcomes (a pair may appear twice when identified).
    std::vector<uint32_t> identified;
    std::vector<uint32_t> carried;
    {
      std::vector<uint8_t> seen(candidates.size(), 0);
      for (const auto& [idx, code] : outputs) {
        if (seen[idx]) continue;
        seen[idx] = 1;
        if (code == kUnidentified) {
          carried.push_back(idx);
        } else {
          identified.push_back(idx);
        }
      }
    }

    bool changed = eq.num_merges() != merges_before;

    // Mark dependents of everything identified this round dirty, and of
    // every watched candidate or ghost that became equal transitively.
    std::vector<uint8_t> dirty(candidates.size(), 0);
    for (uint32_t idx : identified) {
      for (uint32_t dep : ctx.dependents(idx)) dirty[dep] = 1;
    }
    run.Sweep([&](uint32_t dep) { dirty[dep] = 1; });

    run.stats().iso_checks = iso_checks.load();
    GKEYS_RETURN_IF_ERROR(run.EndRound());

    inputs.clear();
    if (deferred_pending) {
      // Round 2 of the dependency optimization: admit the deferred pairs.
      for (uint32_t i = 0; i < candidates.size(); ++i) {
        if (!entered[i]) admit(i);
      }
      deferred_pending = false;
      // Carried pairs continue (checked again only if dirty when the
      // incremental optimization is on).
      for (uint32_t idx : carried) {
        inputs.emplace_back(idx,
                            (!opts.use_incremental || dirty[idx]) ? 1 : 0);
      }
      continue;
    }
    if (!changed) break;  // Eq is a fixpoint (paper Fig. 4 line 5)
    for (uint32_t idx : carried) {
      inputs.emplace_back(idx,
                          (!opts.use_incremental || dirty[idx]) ? 1 : 0);
    }
    // Seeded rematch: clean candidates woken by this round's merges join
    // the pipeline (in the full run everything entered in rounds 1–2).
    if (run.seeded()) {
      for (uint32_t i = 0; i < candidates.size(); ++i) {
        if (dirty[i] != 0 && entered[i] == 0) admit(i);
      }
    }
  }

  run.stats().search.expansions = stat_expansions.load();
  run.stats().search.feasibility_checks = stat_feasibility.load();
  run.stats().search.full_instantiations = stat_full.load();
  return run.Finish();
}

}  // namespace gkeys
