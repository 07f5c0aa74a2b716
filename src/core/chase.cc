#include "core/chase.h"

#include <numeric>

#include "core/fixpoint.h"
#include "core/satisfaction.h"

namespace gkeys {

StatusOr<MatchResult> RunChase(const EmContext& ctx, const EmOptions& opts,
                               MatchSink* sink, const RematchSeed* seed) {
  const size_t num_candidates = ctx.candidates().size();
  std::vector<uint32_t> active;
  if (seed == nullptr) {
    active.resize(num_candidates);
    std::iota(active.begin(), active.end(), 0);
  } else {
    active.assign(seed->active.begin(), seed->active.end());
  }

  internal::FixpointRun run(ctx, opts, sink, seed);
  // A full run keeps every candidate in the pipeline until it is
  // identified. A seeded rematch admits a clean candidate only when a
  // merge can change its outcome: a dependency fired, or a watched pair
  // (candidate or ghost) became equal transitively.
  std::vector<uint8_t> in_pipeline(num_candidates, seed == nullptr ? 1 : 0);
  for (uint32_t idx : active) in_pipeline[idx] = 1;
  std::vector<uint32_t> next;
  auto wake = [&](uint32_t dep) {
    if (in_pipeline[dep] != 0) return;
    in_pipeline[dep] = 1;
    next.push_back(dep);
  };

  Witness witness;
  std::vector<uint32_t> merged;  // this round's identifications, in order
  while (!active.empty()) {
    GKEYS_RETURN_IF_ERROR(run.BeginRound());
    next.clear();
    merged.clear();
    for (uint32_t idx : active) {
      const Candidate& c = ctx.candidates()[idx];
      if (run.eq().Same(c.e1, c.e2)) continue;  // already identified (or TC)
      ++run.stats().iso_checks;
      int fired = -1;
      const bool found =
          ctx.IdentifiesWitness(c, run.view(), &fired, &witness,
                                &run.stats().search,
                                /*unrestricted=*/false, opts.use_vf2);
      if (!found) {
        next.push_back(idx);
        continue;
      }
      run.Record(c, fired, witness);
      run.Merge(c.e1, c.e2);
      merged.push_back(idx);
    }
    if (run.seeded()) {
      for (uint32_t idx : merged) {
        run.MarkDone(idx);
        for (uint32_t dep : ctx.dependents(idx)) wake(dep);
      }
      run.Sweep(wake);
    }
    active.swap(next);
    GKEYS_RETURN_IF_ERROR(run.EndRound());
    if (merged.empty()) break;  // no chase step applies: the fixpoint
  }
  return run.Finish();
}

bool Satisfies(const Graph& g, const KeySet& keys) {
  return FindViolations(g, keys, 1).empty();
}

}  // namespace gkeys
