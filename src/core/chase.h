#ifndef GKEYS_CORE_CHASE_H_
#define GKEYS_CORE_CHASE_H_

#include <cstdint>

#include "core/em_common.h"
#include "keys/key.h"

namespace gkeys {

/// Options for the sequential reference chase.
struct ChaseOptions {
  /// When nonzero, candidate pairs are visited in a seed-dependent random
  /// order each round. Used by the Church–Rosser property tests (Prop. 1):
  /// every order must yield the same chase(G, Σ).
  uint64_t shuffle_seed = 0;
  /// Use VF2 enumeration instead of the combined EvalMR search.
  bool use_vf2 = false;
  /// Skip the d-neighbor restriction and search all of G. The data-
  /// locality property (§4.1) guarantees the result is unchanged; tests
  /// verify exactly that.
  bool unrestricted_neighbors = false;
};

/// The sequential reference implementation of chase(G, Σ) (paper §3.1):
/// repeatedly applies chase steps — any key identifying any candidate pair
/// under the current Eq — until no step is applicable, maintaining Eq's
/// transitivity through union-find. By Proposition 1 (Church–Rosser) the
/// result is order-independent; this implementation is the correctness
/// oracle every parallel algorithm is tested against.
MatchResult Chase(const Graph& g, const KeySet& keys,
                  const ChaseOptions& options = {});

/// The chase fixpoint over a pre-built context with run-time options —
/// the single loop behind Chase(), ChaseWithProvenance and Matcher's
/// kNaiveChase, so oracle and plan-based execution cannot diverge. Visits
/// candidates in plan order. With a sink, streams pairs/progress per
/// round and honors cancellation.
///
/// With a `seed` (Matcher::Rematch), Eq starts from the seed's previous
/// pairs, only the seed's active candidates are checked initially, and
/// new merges wake dependents (and ghost watchers) instead of the
/// exhaustive re-scan — the incremental counterpart of the same fixpoint.
StatusOr<MatchResult> RunChase(const EmContext& ctx, const EmOptions& opts,
                               MatchSink* sink,
                               const RematchSeed* seed = nullptr);

/// Decision procedure: (G, Σ) |= (e1, e2)? Runs the chase and looks the
/// pair up (the problem shown NP-complete in Theorem 2 — exponential only
/// through the subgraph-isomorphism search inside each chase step).
bool Identified(const Graph& g, const KeySet& keys, NodeId e1, NodeId e2);

/// Key satisfaction G |= Q(x) (paper §2.2): no two *distinct* entities
/// have coinciding matches of Q under node identity.
bool Satisfies(const Graph& g, const Key& key);

/// G |= Σ: satisfaction of every key, i.e. FindViolations(g, keys, 1)
/// (core/satisfaction.h) finds nothing. Equivalent to the chase deriving
/// no non-reflexive pair — its first step would be such a violation —
/// but it stops at the first violation instead of running the fixpoint.
bool Satisfies(const Graph& g, const KeySet& keys);

}  // namespace gkeys

#endif  // GKEYS_CORE_CHASE_H_
