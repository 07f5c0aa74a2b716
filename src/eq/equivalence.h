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
/// chase steps identify pairs; transitivity of Eq (the paper's TC
/// computation) is implicit in the union-find classes. Lock-free
/// (Anderson–Woll style), so worker threads in the EMMR reducers and the
/// EMVC engine share one; single-threaded callers use it as a plain
/// union-find. `Same` may transiently miss a racing merge; both
/// algorithms tolerate that (the pair is simply re-checked in a later
/// round / message), so the fixpoint is unaffected — the same guarantee
/// the paper's global-variable Eq in HDFS provides. A class's root is
/// always its smallest member.
class ConcurrentEquivalence {
 public:
  /// Creates the identity relation over node ids [0, num_nodes).
  explicit ConcurrentEquivalence(size_t num_nodes);

  /// Representative of n's class: its smallest member.
  NodeId Find(NodeId n) const;
  /// Whether (a, b) ∈ Eq.
  bool Same(NodeId a, NodeId b) const;
  /// Merges the classes of a and b. Returns true iff this call merged two
  /// distinct classes (i.e., the relation grew).
  bool Union(NodeId a, NodeId b);

  size_t num_nodes() const { return parent_.size(); }
  /// Number of Union calls that actually merged two classes.
  size_t num_merges() const {
    return merges_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::vector<std::atomic<NodeId>> parent_;
  std::atomic<size_t> merges_{0};
};

/// One member of a class, labelled by the class's root, as ClassPairs
/// reads it.
inline uint64_t ClassEntry(NodeId root, NodeId member) {
  return (static_cast<uint64_t>(root) << 32) | member;
}

/// The identified pairs (a, b), a < b, ascending, of the classes whose
/// members are listed as ClassEntry(root, member) entries, in any order,
/// duplicates allowed. Every member of a listed class must appear.
std::vector<std::pair<NodeId, NodeId>> ClassPairs(
    std::vector<uint64_t> members);

/// The identified pairs of `eq` (with no union running), listed from
/// `merges`, the unions that merged two classes, in any order. A node
/// leaves its singleton class only through a union naming it, so this
/// lists every pair of Eq without reading any other node (ClassPairs: a
/// sort of the merges' endpoints by root, plus a sort of the pairs when
/// classes interleave; roots are smallest members, so classes of two
/// never do).
std::vector<std::pair<NodeId, NodeId>> PairsOfMergedClasses(
    const ConcurrentEquivalence& eq,
    std::span<const std::pair<NodeId, NodeId>> merges);

/// Read-only view of Eq, so matchers take one type.
class EqView {
 public:
  EqView() = default;
  explicit EqView(const ConcurrentEquivalence* eq) : eq_(eq) {}

  /// Whether (a, b) ∈ Eq. With no underlying relation, falls back to node
  /// identity (Eq0).
  bool Same(NodeId a, NodeId b) const {
    return eq_ != nullptr ? eq_->Same(a, b) : a == b;
  }

 private:
  const ConcurrentEquivalence* eq_ = nullptr;
};

}  // namespace gkeys

#endif  // GKEYS_EQ_EQUIVALENCE_H_
