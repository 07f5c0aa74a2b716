#ifndef GKEYS_GRAPH_NEIGHBORHOOD_H_
#define GKEYS_GRAPH_NEIGHBORHOOD_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace gkeys {

/// A subset of the nodes of a graph, used to represent induced subgraphs
/// such as the d-neighbor Gd of an entity (paper §4.1). A triple (s, p, o)
/// belongs to the induced subgraph iff s and o are members and (s, p, o)
/// is a triple of the underlying graph.
///
/// Stored as a sorted, duplicate-free vector rather than a hash set: the
/// matching inner loops (VF2 / combined-search feasibility, pairing,
/// product-graph construction) only ever probe with Contains and scan in
/// order, so a flat array wins on locality and memory, and union /
/// intersection become linear merges. Ordered iteration is part of the
/// contract — consumers rely on ascending NodeId order.
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(std::vector<NodeId> nodes) : nodes_(std::move(nodes)) {
    std::sort(nodes_.begin(), nodes_.end());
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  }

  /// Wraps a vector that is already sorted and duplicate-free (BFS and
  /// pairing build their results in bulk, then seal them with this).
  static NodeSet FromSorted(std::vector<NodeId> sorted_unique) {
    NodeSet s;
    s.nodes_ = std::move(sorted_unique);
    return s;
  }

  /// Sorted insert; O(size) worst case. Bulk construction should collect
  /// into a vector and use the constructor / FromSorted instead.
  void Insert(NodeId n) {
    auto it = std::lower_bound(nodes_.begin(), nodes_.end(), n);
    if (it == nodes_.end() || *it != n) nodes_.insert(it, n);
  }

  bool Contains(NodeId n) const {
    return std::binary_search(nodes_.begin(), nodes_.end(), n);
  }

  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// Set union, in place: one linear merge.
  void UnionWith(const NodeSet& other) {
    if (other.empty()) return;
    if (empty()) {
      nodes_ = other.nodes_;
      return;
    }
    std::vector<NodeId> merged;
    merged.reserve(nodes_.size() + other.nodes_.size());
    std::set_union(nodes_.begin(), nodes_.end(), other.nodes_.begin(),
                   other.nodes_.end(), std::back_inserter(merged));
    nodes_ = std::move(merged);
  }

  /// Keeps only members also present in `other`: one linear merge.
  void IntersectWith(const NodeSet& other) {
    auto out = nodes_.begin();
    auto a = nodes_.begin();
    auto b = other.nodes_.begin();
    while (a != nodes_.end() && b != other.nodes_.end()) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        *out++ = *a++;
        ++b;
      }
    }
    nodes_.erase(out, nodes_.end());
  }

  std::vector<NodeId> ToVector() const { return nodes_; }

  /// The members in ascending order (the backing storage itself).
  const std::vector<NodeId>& sorted() const { return nodes_; }

  auto begin() const { return nodes_.begin(); }
  auto end() const { return nodes_.end(); }

  size_t MemoryBytes() const { return nodes_.capacity() * sizeof(NodeId); }

  friend bool operator==(const NodeSet& a, const NodeSet& b) {
    return a.nodes_ == b.nodes_;
  }

 private:
  std::vector<NodeId> nodes_;
};

/// Computes the d-neighbor of `center`: all nodes within `d` hops of
/// `center`, treating edges as undirected (paper §4.1). The center itself
/// is always included. `d` ≥ 0.
NodeSet DNeighbor(const Graph& g, NodeId center, int d);

namespace internal {
/// Capacity in bytes of the calling thread's DNeighbor visited scratch.
/// Test hook for the shrink-on-much-smaller-graph policy; the buffer is
/// released when it is ≥ 4× the current graph (and ≥ 64 KiB).
size_t DNeighborScratchBytes();
}  // namespace internal

}  // namespace gkeys

#endif  // GKEYS_GRAPH_NEIGHBORHOOD_H_
