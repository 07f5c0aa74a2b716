#ifndef GKEYS_CORE_CHASE_H_
#define GKEYS_CORE_CHASE_H_

#include "core/em_common.h"
#include "keys/key.h"

namespace gkeys {

/// The sequential chase (paper §3.1) over a pre-built context with
/// run-time options: repeatedly applies chase steps — any key identifying
/// any candidate pair under the current Eq — until no step applies. By
/// Proposition 1 (Church–Rosser) the result is order-independent. The
/// loop behind ChaseWithProvenance and Matcher's kNaiveChase. Visits
/// candidates in plan order. With a sink, streams pairs/progress per
/// round and honors cancellation. (The tests' oracle, tests/
/// chase_reference.h, is a separate plain loop.)
///
/// With a `seed` (Matcher::Rematch), Eq starts from the seed's previous
/// pairs, only the seed's active candidates are checked initially, and
/// new merges wake dependents (and ghost watchers) instead of the
/// exhaustive re-scan — the incremental counterpart of the same fixpoint.
StatusOr<MatchResult> RunChase(const EmContext& ctx, const EmOptions& opts,
                               MatchSink* sink,
                               const RematchSeed* seed = nullptr);

/// G |= Σ: satisfaction of every key, i.e. FindViolations(g, keys, 1)
/// (core/satisfaction.h) finds nothing. Equivalent to the chase deriving
/// no non-reflexive pair — its first step would be such a violation —
/// but it stops at the first violation instead of running the fixpoint.
bool Satisfies(const Graph& g, const KeySet& keys);

}  // namespace gkeys

#endif  // GKEYS_CORE_CHASE_H_
