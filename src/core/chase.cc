#include "core/chase.h"

#include <numeric>

#include "common/rng.h"
#include "common/timer.h"
#include "core/fixpoint.h"
#include "core/satisfaction.h"

namespace gkeys {

namespace {

/// The chase fixpoint, with the oracle's own knobs from `oracle`: its
/// shuffle_seed shuffles the first round's visiting order, and
/// unrestricted_neighbors widens the search to all of G (the search
/// strategy comes from opts.use_vf2).
StatusOr<MatchResult> ChaseFixpoint(const EmContext& ctx,
                                    const EmOptions& opts,
                                    const ChaseOptions& oracle,
                                    MatchSink* sink, const RematchSeed* seed) {
  const size_t num_candidates = ctx.candidates().size();
  std::vector<uint32_t> active;
  if (seed == nullptr) {
    active.resize(num_candidates);
    std::iota(active.begin(), active.end(), 0);
    if (oracle.shuffle_seed != 0) {
      Rng rng(oracle.shuffle_seed);
      for (size_t i = active.size(); i > 1; --i) {
        std::swap(active[i - 1], active[rng.Below(i)]);
      }
    }
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
      const bool found = ctx.IdentifiesWitness(
          c, run.view(), &fired, &witness, &run.stats().search,
          oracle.unrestricted_neighbors, opts.use_vf2);
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

}  // namespace

StatusOr<MatchResult> RunChase(const EmContext& ctx, const EmOptions& opts,
                               MatchSink* sink, const RematchSeed* seed) {
  return ChaseFixpoint(ctx, opts, ChaseOptions{}, sink, seed);
}

MatchResult Chase(const Graph& g, const KeySet& keys,
                  const ChaseOptions& options) {
  Timer prep_timer;
  EmOptions eopts;
  eopts.processors = 1;
  eopts.use_vf2 = options.use_vf2;
  // The oracle enumerates exhaustively (blocked/unblocked equivalence
  // tests compare the algorithms against this).
  eopts.use_blocking = false;
  EmContext ctx(g, keys, eopts);
  double prep_seconds = prep_timer.Seconds();

  // No sink, so the run cannot fail.
  auto r = ChaseFixpoint(ctx, eopts, options, nullptr, nullptr);
  MatchResult result = r.ok() ? *std::move(r) : MatchResult{};
  result.stats.prep_seconds = prep_seconds;
  return result;
}

bool Identified(const Graph& g, const KeySet& keys, NodeId e1, NodeId e2) {
  if (e1 == e2) return true;
  MatchResult r = Chase(g, keys);
  if (e1 > e2) std::swap(e1, e2);
  for (const auto& [a, b] : r.pairs) {
    if (a == e1 && b == e2) return true;
  }
  return false;
}

bool Satisfies(const Graph& g, const Key& key) {
  KeySet single;
  single.Add(key);
  return Satisfies(g, single);
}

bool Satisfies(const Graph& g, const KeySet& keys) {
  return FindViolations(g, keys, 1).empty();
}

}  // namespace gkeys
