#ifndef GKEYS_CORE_PRODUCT_GRAPH_H_
#define GKEYS_CORE_PRODUCT_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
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
/// Only a plan builds Gp (from the relations its pairing pass collects),
/// or a snapshot load replays it. Both adjacency directions are CSR
/// arrays whose per-node runs are sorted by predicate.
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
  size_t NumEdges() const { return out_csr_.edges.size(); }

  /// Out-edges of `v`, grouped by ascending predicate.
  std::span<const PEdge> Out(uint32_t v) const { return out_csr_.Run(v); }
  /// In-edges of `v` (PEdge::dst is the source), sorted by (pred, source).
  std::span<const PEdge> In(uint32_t v) const { return in_csr_.Run(v); }
  /// The `pred`-labeled part of Out(v) / In(v).
  std::span<const PEdge> Out(uint32_t v, Symbol pred) const {
    return out_csr_.Run(v, pred);
  }
  std::span<const PEdge> In(uint32_t v, Symbol pred) const {
    return in_csr_.Run(v, pred);
  }

  /// Product node for (a, b), or kNoPNode.
  uint32_t Find(NodeId a, NodeId b) const;

  /// Product node of candidate i, or kNoPNode when the candidate is not
  /// pairable by any key (then it is not identifiable either).
  uint32_t CandidateNode(uint32_t candidate) const {
    return candidate_nodes_[candidate];
  }

  /// Prioritized-propagation statistic (§5.2): how many out-(resp. in-)
  /// edges with predicate `pred` leave product node `v` — the length of
  /// that predicate's run, so nothing is stored for it.
  uint32_t OutCount(uint32_t v, Symbol pred) const {
    return static_cast<uint32_t>(Out(v, pred).size());
  }
  uint32_t InCount(uint32_t v, Symbol pred) const {
    return static_cast<uint32_t>(In(v, pred).size());
  }

  /// Approximate heap footprint in bytes (bytes-per-plan accounting).
  size_t MemoryBytes() const;

 private:
  friend ProductGraph PatchProductGraph(
      const ProductGraph& prev, const EmContext& ctx,
      const ContextPatchInfo& info, std::span<const NodeId> graph_dirty);
  // Snapshot (de)serialization: restores nodes_ and the relation pool,
  // then replays Finish() to rebuild the derived adjacency.
  friend class storage::PlanCodec;

  /// One adjacency direction: node v's run is
  /// edges[offsets[v], offsets[v + 1]), grouped by ascending predicate.
  struct Csr {
    std::vector<uint32_t> offsets{0};
    std::vector<PEdge> edges;

    std::span<const PEdge> Run(uint32_t v) const {
      return {edges.data() + offsets[v], edges.data() + offsets[v + 1]};
    }
    std::span<const PEdge> Run(uint32_t v, Symbol pred) const;
  };

  /// Interns the product node for a packed pair and bumps its
  /// supporting-relation count.
  static void AddNodeRef(ProductGraph& pg, uint64_t packed);

  /// The slot of slots_ holding `packed`'s node, or the empty slot where
  /// it would go. slots_ must be non-empty.
  size_t Probe(uint64_t packed) const;

  /// Resizes slots_ to `num_slots` (a power of two) and reinserts nodes_.
  void Rehash(size_t num_slots);

  /// The edge pass, run once Vp (nodes_, slots_, candidate_pairs_) is
  /// final. Out-runs are recomputed for nodes that are new or touch a
  /// graph node in `graph_dirty`, and copied from `prev` (through
  /// prev_to_new, prev node id → new id or kNoPNode) for the rest, with
  /// the edges from those clean nodes into new nodes merged into their
  /// predicate runs; the in-CSR and candidate_nodes_ are derived from
  /// the out-CSR. With an empty `prev` every node is new — the
  /// from-scratch pass.
  static void Finish(const EmContext& ctx, ProductGraph& pg,
                     const ProductGraph& prev,
                     const std::vector<uint32_t>& prev_to_new,
                     std::span<const NodeId> graph_dirty);

  std::vector<std::pair<NodeId, NodeId>> nodes_;
  // Open-addressing index of nodes_ (linear probing, power-of-two size,
  // at most half full, kNoPNode = empty): a slot holds a node id and is
  // probed against nodes_, so no pair is stored twice.
  std::vector<uint32_t> slots_;
  Csr out_csr_;
  Csr in_csr_;
  std::vector<uint32_t> candidate_nodes_;
  // Per candidate, its union-over-keys pairing relation (collected by
  // the plan's pairing pass), shared across plan generations.
  // PatchProductGraph re-shares carried-over candidates' relations.
  std::vector<std::shared_ptr<const PairingRelation>> candidate_pairs_;
  // Per product node: how many candidate relations contain it. Lets a
  // patch retire the contributions of dropped/re-paired candidates and
  // keep only supported nodes, without rediscovering Vp from scratch.
  std::vector<uint32_t> node_refs_;
};

/// Builds Gp for the plan context `ctx` that the patch constructor made
/// from `prev`'s context, with `info` its output: candidates carried over
/// (info.candidate_reuse[i] >= 0, an index into `prev`'s candidates)
/// re-share their relations from `prev`, every other candidate brings the
/// relation the pairing pass collected (info.relations[i]), and retired
/// contributions are reference-counted away. The edge pass recomputes
/// only product nodes that are new or touch a graph node in `graph_dirty`
/// (the delta's touched set); every other node's out-run is copied from
/// `prev`. A compile passes an empty `prev`. Product-node ids may differ
/// from a from-scratch build; Gp semantics do not depend on them.
ProductGraph PatchProductGraph(const ProductGraph& prev,
                               const EmContext& ctx,
                               const ContextPatchInfo& info,
                               std::span<const NodeId> graph_dirty);

}  // namespace gkeys

#endif  // GKEYS_CORE_PRODUCT_GRAPH_H_
