#ifndef GKEYS_TESTS_CHASE_REFERENCE_H_
#define GKEYS_TESTS_CHASE_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/chase.h"
#include "core/em_common.h"
#include "eq/equivalence.h"
#include "keys/key.h"

namespace gkeys {

/// Options for the sequential reference chase.
struct ChaseOptions {
  /// When nonzero, candidate pairs are visited in a seed-dependent random
  /// order. Used by the Church–Rosser property tests (Prop. 1): every
  /// order must yield the same chase(G, Σ).
  uint64_t shuffle_seed = 0;
  /// Use VF2 enumeration instead of the combined EvalMR search.
  bool use_vf2 = false;
  /// Skip the d-neighbor restriction and search all of G. The data-
  /// locality property (§4.1) guarantees the result is unchanged; tests
  /// verify exactly that.
  bool unrestricted_neighbors = false;
};

/// The sequential reference implementation of chase(G, Σ) (paper §3.1),
/// the oracle every algorithm is tested against: rounds over the whole
/// candidate list L, each applying every chase step — any key identifying
/// any candidate pair under the current Eq — until a round applies none.
/// It shares the compiled context (L, d-neighbors, compiled keys) and the
/// isomorphism search with the engines, but none of their fixpoint
/// machinery (internal::FixpointRun): no seeds, wake-ups, logs or
/// streaming. L is enumerated exhaustively (no pairing, no blocking).
/// Fills the pairs and the counters the tests read (candidates, rounds,
/// iso checks, search, confirmed); records no derivations.
inline MatchResult Chase(const Graph& g, const KeySet& keys,
                         const ChaseOptions& options = {}) {
  const EmContext ctx(
      g, keys, PlanOptions{.use_pairing = false, .use_blocking = false});
  MatchResult result;
  EmStats& stats = result.stats;
  stats.candidates_initial = ctx.candidates_initial();
  stats.candidates = ctx.candidates().size();

  std::vector<uint32_t> order(ctx.candidates().size());
  std::iota(order.begin(), order.end(), 0);
  if (options.shuffle_seed != 0) {
    Rng rng(options.shuffle_seed);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
  }
  ConcurrentEquivalence eq(g.NumNodes());
  const EqView view(&eq);
  bool merged = true;
  while (merged) {
    merged = false;
    ++stats.rounds;
    for (uint32_t idx : order) {
      const Candidate& c = ctx.candidates()[idx];
      if (eq.Same(c.e1, c.e2)) continue;
      ++stats.iso_checks;
      int fired = -1;
      if (ctx.IdentifiesWitness(c, view, &fired, /*witness=*/nullptr,
                                &stats.search,
                                options.unrestricted_neighbors,
                                options.use_vf2)) {
        eq.Union(c.e1, c.e2);
        merged = true;
      }
    }
  }

  // Every pair of every class, ascending: the nodes bucketed by root.
  std::vector<std::pair<NodeId, NodeId>> by_root;  // (root, member)
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    by_root.emplace_back(eq.Find(n), n);
  }
  std::sort(by_root.begin(), by_root.end());
  for (size_t begin = 0, end = 0; begin < by_root.size(); begin = end) {
    while (end < by_root.size() &&
           by_root[end].first == by_root[begin].first) {
      ++end;
    }
    for (size_t a = begin; a < end; ++a) {
      for (size_t b = a + 1; b < end; ++b) {
        result.pairs.emplace_back(by_root[a].second, by_root[b].second);
      }
    }
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  stats.confirmed = result.pairs.size();
  return result;
}

/// Decision procedure: (G, Σ) |= (e1, e2)? Runs the chase and looks the
/// pair up (the problem shown NP-complete in Theorem 2 — exponential only
/// through the subgraph-isomorphism search inside each chase step).
inline bool Identified(const Graph& g, const KeySet& keys, NodeId e1,
                       NodeId e2) {
  if (e1 == e2) return true;
  if (e1 > e2) std::swap(e1, e2);
  const MatchResult r = Chase(g, keys);
  return std::binary_search(r.pairs.begin(), r.pairs.end(),
                            std::make_pair(e1, e2));
}

/// Key satisfaction G |= Q(x) (paper §2.2): no two *distinct* entities
/// have coinciding matches of Q under node identity.
inline bool Satisfies(const Graph& g, const Key& key) {
  KeySet single;
  single.Add(key);
  return Satisfies(g, single);
}

}  // namespace gkeys

#endif  // GKEYS_TESTS_CHASE_REFERENCE_H_
