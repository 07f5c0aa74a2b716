#ifndef GKEYS_ISOMORPH_PAIRING_H_
#define GKEYS_ISOMORPH_PAIRING_H_

#include <cstdint>
#include <memory>

#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "pattern/pattern.h"

namespace gkeys {

/// Result of the maximum-pairing computation (paper Prop. 9).
struct PairingResult {
  /// Whether (e1, e2, x) survives in the maximum pairing relation, i.e.,
  /// (e1, e2) can be paired by Q. Pairing is a *necessary* condition for
  /// identification, so `false` proves (G, {Q}) ⊭ (e1, e2).
  bool paired = false;
  /// Nodes of Gd1 / Gd2 appearing in the maximum pairing relation. The
  /// §4.2 optimization replaces the d-neighbors by the subgraphs these
  /// induce.
  NodeSet reduced1;
  NodeSet reduced2;
  /// |P^Q|: size of the maximum pairing relation.
  size_t relation_size = 0;
  /// When requested, every surviving pair packed as (first << 32 | second),
  /// deduplicated across pattern nodes, ascending. The product-graph
  /// builder (§5.1) consumes these to form Vp.
  std::vector<uint64_t> pairs;
};

/// Packs a product pair the way PairingResult::pairs stores it.
inline uint64_t PackPair(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Reusable buffers for ComputeMaxPairing: per-pattern-node candidate
/// domains, bitset relations, witness adjacency, and the deletion
/// worklist. One candidate-pair call is dominated by small allocations
/// without it, so the plan/engine layer keeps one scratch per worker
/// thread and threads it through every call. Not thread-safe; each thread
/// needs its own.
class PairingScratch {
 public:
  PairingScratch();
  ~PairingScratch();
  PairingScratch(const PairingScratch&) = delete;
  PairingScratch& operator=(const PairingScratch&) = delete;

 private:
  friend class PairingEngine;
  friend PairingResult ComputeMaxPairing(const Graph& g,
                                         const CompiledPattern& cp, NodeId e1,
                                         NodeId e2, const NodeSet& n1,
                                         const NodeSet& n2, bool collect_pairs,
                                         PairingScratch* scratch);
  struct State;
  std::unique_ptr<State> state_;
};

/// Computes the maximum pairing relation P^Q of Q at (e1, e2) over the
/// d-neighbors (n1, n2) by fixpoint pruning (Prop. 9): start from all
/// locally type/value-compatible triples (s1, s2, s_Q) and repeatedly
/// delete triples missing a required witness along some pattern edge,
/// until stable.
///
/// Cost: a per-side prune linear in the witness adjacency of Gd1 and Gd2,
/// then O(|Q|·|dom1′|·|dom2′|) over the surviving candidate domains. The
/// prune is unary arc consistency on each side alone: a candidate of a
/// pattern node survives only if, along every incident pattern triple, it
/// has an edge on its own side to a surviving candidate of the other
/// endpoint (value and constant candidates must survive on both sides).
/// Each side's projection of P^Q satisfies exactly that, so the prune
/// never drops a member of P^Q and every result field is unchanged; it
/// only keeps the quadratic relation from spanning candidates (e.g. the
/// thousands of leaves in a hub's ball) that could never pair.
///
/// Representation: per pattern node the surviving candidates of each side
/// are indexed into dense ids and the pair relation is a row-major bitset
/// over |left|×|right|; witness support is checked by word-scans over
/// precomputed per-(node, triple) adjacency, and deletions propagate
/// through a worklist that re-checks only the neighbor pairs whose witness
/// the deleted pair could have been (instead of rescanning whole relations
/// until quiescence).
///
/// `scratch` may be null (a private scratch is used); passing one reuses
/// its buffers across calls.
PairingResult ComputeMaxPairing(const Graph& g, const CompiledPattern& cp,
                                NodeId e1, NodeId e2, const NodeSet& n1,
                                const NodeSet& n2,
                                bool collect_pairs = false,
                                PairingScratch* scratch = nullptr);

}  // namespace gkeys

#endif  // GKEYS_ISOMORPH_PAIRING_H_
