#ifndef GKEYS_EQ_EQUIVALENCE_H_
#define GKEYS_EQ_EQUIVALENCE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace gkeys {

/// The equivalence relation Eq over entities of a graph (paper §3.1).
/// Starts as node identity (every entity in its own class) and grows as
/// chase steps identify pairs. Union-find with path compression + union by
/// rank; transitivity of Eq (the paper's TC computation) is implicit in the
/// union-find classes.
class EquivalenceRelation {
 public:
  /// Creates the identity relation over node ids [0, num_nodes).
  explicit EquivalenceRelation(size_t num_nodes);

  /// Representative of n's class.
  NodeId Find(NodeId n) const;

  /// Whether (a, b) ∈ Eq.
  bool Same(NodeId a, NodeId b) const { return Find(a) == Find(b); }

  /// Merges the classes of a and b. Returns true iff they were distinct
  /// (i.e., the relation grew).
  bool Union(NodeId a, NodeId b);

  size_t num_nodes() const { return parent_.size(); }

  /// Number of Union calls that actually merged two classes.
  size_t num_merges() const { return merges_; }

  /// All classes with ≥ 2 members, each sorted ascending.
  std::vector<std::vector<NodeId>> NontrivialClasses() const;

  /// All identified pairs (a, b) with a < b — i.e., chase(G, Σ) minus the
  /// trivial reflexive pairs. Quadratic in class sizes (matches the
  /// paper's output, which lists every identified pair).
  std::vector<std::pair<NodeId, NodeId>> IdentifiedPairs() const;

  friend bool operator==(const EquivalenceRelation& a,
                         const EquivalenceRelation& b) {
    return a.IdentifiedPairs() == b.IdentifiedPairs();
  }

 private:
  mutable std::vector<NodeId> parent_;
  std::vector<uint8_t> rank_;
  size_t merges_ = 0;
};

/// Lock-free concurrent union-find (Anderson–Woll style) shared by worker
/// threads in the EMMR reducers and the EMVC engine. `Same` may transiently
/// miss a racing merge; both algorithms tolerate that (the pair is simply
/// re-checked in a later round / message), so the fixpoint is unaffected —
/// the same guarantee the paper's global-variable Eq in HDFS provides.
class ConcurrentEquivalence {
 public:
  explicit ConcurrentEquivalence(size_t num_nodes);

  NodeId Find(NodeId n) const;
  bool Same(NodeId a, NodeId b) const;
  /// Returns true iff this call merged two distinct classes.
  bool Union(NodeId a, NodeId b);

  size_t num_nodes() const { return parent_.size(); }
  size_t num_merges() const {
    return merges_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::vector<std::atomic<NodeId>> parent_;
  std::atomic<size_t> merges_{0};
};

/// The identified pairs (a, b), a < b, ascending, of the classes whose
/// members are listed as (root << 32) | member entries, in any order,
/// duplicates allowed. Every member of a listed class must appear.
std::vector<std::pair<NodeId, NodeId>> ClassPairs(
    std::vector<uint64_t> members);

/// The identified pairs of `eq` (either flavor, with no union running),
/// listed from `merges`, the unions that merged two classes, in any
/// order. A node leaves its singleton class only through a union naming
/// it, so this lists what IdentifiedPairs() lists without reading any
/// other node: a sort of the merges' endpoints by root, plus a sort of
/// the pairs when classes interleave. A ConcurrentEquivalence root is
/// its class's smallest member, so classes of two never interleave.
template <typename Relation>
std::vector<std::pair<NodeId, NodeId>> PairsOfMergedClasses(
    const Relation& eq, std::span<const std::pair<NodeId, NodeId>> merges) {
  std::vector<uint64_t> members;
  members.reserve(2 * merges.size());
  for (const auto& [a, b] : merges) {
    members.push_back((static_cast<uint64_t>(eq.Find(a)) << 32) | a);
    members.push_back((static_cast<uint64_t>(eq.Find(b)) << 32) | b);
  }
  return ClassPairs(std::move(members));
}

/// Read-only view over either relation flavor, so matchers take one type.
class EqView {
 public:
  EqView() = default;
  explicit EqView(const EquivalenceRelation* seq) : seq_(seq) {}
  explicit EqView(const ConcurrentEquivalence* conc) : conc_(conc) {}

  /// Whether (a, b) ∈ Eq. With no underlying relation, falls back to node
  /// identity (Eq0).
  bool Same(NodeId a, NodeId b) const {
    if (seq_ != nullptr) return seq_->Same(a, b);
    if (conc_ != nullptr) return conc_->Same(a, b);
    return a == b;
  }

 private:
  const EquivalenceRelation* seq_ = nullptr;
  const ConcurrentEquivalence* conc_ = nullptr;
};

}  // namespace gkeys

#endif  // GKEYS_EQ_EQUIVALENCE_H_
