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

/// One byte per node, owned by one thread and reused across passes, so a
/// sparse pass over a large graph pays for the nodes it touches, not for
/// NumNodes(). Every byte is zero between passes: a pass marks the nodes
/// it needs and clears exactly those (Pass does this on scope exit). Each
/// use site keeps its own thread_local instance, so nested passes at
/// different sites never share one; DNeighbor's visited map is one.
class NodeMarks {
 public:
  /// A pass over a graph of `num_nodes` nodes. Every mark reads zero at
  /// the start; the ones Set() are cleared when the pass ends.
  class Pass {
   public:
    Pass(NodeMarks& marks, size_t num_nodes) : marks_(marks) {
      marks_.Reserve(num_nodes);
    }
    ~Pass() { Reset(); }
    Pass(const Pass&) = delete;
    Pass& operator=(const Pass&) = delete;

    uint8_t operator[](NodeId n) const { return marks_.bytes_[n]; }
    /// Sets n's mark to `v` (nonzero).
    void Set(NodeId n, uint8_t v) {
      if (marks_.bytes_[n] == 0) marks_.touched_.push_back(n);
      marks_.bytes_[n] = v;
    }
    /// Clears every mark set so far (the pass goes on).
    void Reset() {
      for (NodeId n : marks_.touched_) marks_.bytes_[n] = 0;
      marks_.touched_.clear();
    }

   private:
    NodeMarks& marks_;
  };

  /// Capacity of the mark array in bytes.
  size_t capacity_bytes() const { return bytes_.capacity(); }

 private:
  friend NodeSet DNeighbor(const Graph& g, NodeId center, int d);

  /// Grows the array to `num_nodes` zeroed bytes, or releases it when it
  /// is at least 4× that (and at least 64 KiB): without this it would pin
  /// the largest graph this thread ever saw for the thread's lifetime.
  void Reserve(size_t num_nodes);

  std::vector<uint8_t> bytes_;
  std::vector<NodeId> touched_;
};

/// Computes the d-neighbor of `center`: all nodes within `d` hops of
/// `center`, treating edges as undirected (paper §4.1). The center itself
/// is always included. `d` ≥ 0.
NodeSet DNeighbor(const Graph& g, NodeId center, int d);

namespace internal {
/// Capacity in bytes of the calling thread's DNeighbor visited scratch.
/// Test hook for NodeMarks' shrink-on-much-smaller-graph policy.
size_t DNeighborScratchBytes();
}  // namespace internal

}  // namespace gkeys

#endif  // GKEYS_GRAPH_NEIGHBORHOOD_H_
