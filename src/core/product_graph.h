#ifndef GKEYS_CORE_PRODUCT_GRAPH_H_
#define GKEYS_CORE_PRODUCT_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/em_common.h"

namespace gkeys {

/// Sentinel for "no product node".
inline constexpr uint32_t kNoPNode = UINT32_MAX;

/// The product graph Gp = (Vp, Ep) of paper §5.1. Nodes are pairs
/// (o1, o2) of graph nodes that appear in the maximum pairing relation of
/// some key at some candidate pair (Prop. 9) — including diagonal pairs
/// (o, o) and value pairs (v, v). There is an edge
/// ((s1, s2), p, (o1, o2)) iff (s1, p, o1) and (s2, p, o2) are both
/// triples of G. EMVC messages travel on these edges.
///
/// The paper's `dep` edges are kept at candidate granularity in
/// EmContext::dependents(); its `tc` edges are subsumed by the shared
/// union-find Eq (a merge makes the whole class equal at once, which is
/// exactly what tc-propagation computes). Both substitutions are recorded
/// in docs/ARCHITECTURE.md, "Deviations from the paper".
class ProductGraph {
 public:
  struct PEdge {
    Symbol pred;
    uint32_t dst;
  };

  /// The graph-node pair represented by product node `v`.
  std::pair<NodeId, NodeId> pair(uint32_t v) const { return nodes_[v]; }

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return num_edges_; }

  const std::vector<PEdge>& Out(uint32_t v) const { return out_[v]; }
  const std::vector<PEdge>& In(uint32_t v) const { return in_[v]; }

  /// Product node for (a, b), or kNoPNode.
  uint32_t Find(NodeId a, NodeId b) const;

  /// Product node of candidate i, or kNoPNode when the candidate is not
  /// pairable by any key (then it is not identifiable either).
  uint32_t CandidateNode(uint32_t candidate) const {
    return candidate_nodes_[candidate];
  }

  /// Prioritized-propagation statistic (§5.2): how many out-(resp. in-)
  /// edges with predicate `pred` leave product node `v`. Collected at
  /// construction time, as the paper prescribes.
  uint32_t OutCount(uint32_t v, Symbol pred) const;
  uint32_t InCount(uint32_t v, Symbol pred) const;

  /// Approximate heap footprint in bytes (bytes-per-plan accounting).
  size_t MemoryBytes() const;

 private:
  friend ProductGraph PatchProductGraph(
      const ProductGraph& prev, const EmContext& ctx,
      const std::vector<int64_t>& candidate_reuse,
      std::span<const NodeId> graph_dirty);
  // Snapshot (de)serialization: restores nodes_ and the relation pool,
  // then replays Finish() to rebuild the derived adjacency.
  friend class storage::PlanCodec;

  using Relation = std::vector<uint64_t>;

  /// Interns the product node for a packed pair and bumps its
  /// supporting-relation count.
  static void AddNodeRef(ProductGraph& pg, uint64_t packed);

  /// The edge pass, run once Vp (nodes_, index_, candidate_pairs_) is
  /// final: out-edges are recomputed for nodes that are new or touch a
  /// graph node in `graph_dirty`, and copied from `prev` (through
  /// prev_to_new, prev node id → new id or kNoPNode) for the rest; then
  /// in_, the counts and candidate_nodes_ are derived. With an empty
  /// `prev` every node is new — the from-scratch pass.
  static void Finish(const EmContext& ctx, ProductGraph& pg,
                     const ProductGraph& prev,
                     const std::vector<uint32_t>& prev_to_new,
                     std::span<const NodeId> graph_dirty);

  std::vector<std::pair<NodeId, NodeId>> nodes_;
  std::unordered_map<uint64_t, uint32_t> index_;
  std::vector<std::vector<PEdge>> out_;
  std::vector<std::vector<PEdge>> in_;
  std::vector<uint32_t> candidate_nodes_;
  std::vector<std::unordered_map<Symbol, uint32_t>> out_count_;
  std::vector<std::unordered_map<Symbol, uint32_t>> in_count_;
  // Per candidate, its union-over-keys pairing relation as packed pairs
  // (the node-discovery phase's raw output), shared across plan
  // generations. PatchProductGraph re-shares carried-over candidates'
  // relations instead of re-running their pairing fixpoints.
  std::vector<std::shared_ptr<const Relation>> candidate_pairs_;
  // Per product node: how many candidate relations contain it. Lets a
  // patch retire the contributions of dropped/re-paired candidates and
  // keep only supported nodes, without rediscovering Vp from scratch.
  std::vector<uint32_t> node_refs_;
  size_t num_edges_ = 0;
};

/// Builds Gp for `ctx`: candidates carried over from the source plan
/// (candidate_reuse[i] >= 0, an index into `prev`'s candidates) re-share
/// their cached pairing relations from `prev`; every other candidate
/// runs the pairing fixpoint per key and contributes its surviving
/// pairs, and retired contributions are reference-counted away. The edge
/// pass recomputes only product nodes that are new or touch a graph node
/// in `graph_dirty` (the delta's touched set); every other node's
/// adjacency is copied from `prev` and extended with edges into the new
/// nodes. Product-node ids may differ from a from-scratch build; Gp
/// semantics do not depend on them.
ProductGraph PatchProductGraph(const ProductGraph& prev,
                               const EmContext& ctx,
                               const std::vector<int64_t>& candidate_reuse,
                               std::span<const NodeId> graph_dirty);

/// Gp from scratch: PatchProductGraph over an empty product graph with no
/// reuse, so every candidate runs its pairing fixpoint.
ProductGraph BuildProductGraph(const EmContext& ctx);

}  // namespace gkeys

#endif  // GKEYS_CORE_PRODUCT_GRAPH_H_
