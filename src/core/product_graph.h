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
  // Snapshot (de)serialization: restores nodes_ and the relation table,
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

  /// How a patched Vp relates to its source's: nodes [0, survivors) are
  /// the source's surviving nodes in their order, and the nodes after
  /// them are new. The maps are empty when no source node died (then a
  /// survivor keeps its id).
  struct NodeMap {
    uint32_t survivors = 0;
    std::vector<uint32_t> prev_to_new;  // source id → id, or kNoPNode
    std::vector<uint32_t> new_to_prev;  // survivor id → source id
  };

  /// The edge pass, run once Vp (nodes_, slots_, relations_) is final.
  /// Ep is ((s1, s2), p, (o1, o2)) iff (s1, p, o1) and (s2, p, o2) are in
  /// G. Both directions are edited the same way: the runs of new nodes
  /// and of survivors with an endpoint in `graph_dirty` are recomputed
  /// from G (an in-run sorted by (pred, source)); every other run is
  /// valid in the new graph and copied from `prev` — a block copy of each
  /// range of such nodes when no node died, else remapped edge by edge
  /// dropping edges to dead nodes — with its edges to or from new nodes
  /// merged into their predicate runs. A carried candidate's product
  /// node comes from the node map (cand_new_to_old: the candidate
  /// position map), a recompiled one's from Find. The dirty endpoints
  /// are marked in a per-thread scratch cleared by the entries it set.
  /// With an empty `prev` every node is new — the from-scratch pass.
  static void Finish(const EmContext& ctx, ProductGraph& pg,
                     const ProductGraph& prev, const NodeMap& map,
                     std::span<const int64_t> cand_new_to_old,
                     std::span<const NodeId> graph_dirty);

  std::vector<std::pair<NodeId, NodeId>> nodes_;
  // Open-addressing index of nodes_ (linear probing, power-of-two size,
  // at most half full, kNoPNode = empty): a slot holds a node id and is
  // probed against nodes_, so no pair is stored twice.
  std::vector<uint32_t> slots_;
  Csr out_csr_;
  Csr in_csr_;
  std::vector<uint32_t> candidate_nodes_;
  // Per candidate position, its union-over-keys pairing relation
  // (collected by the plan's pairing pass), in chunks shared across plan
  // generations: PatchProductGraph clones only the chunks holding a
  // recompiled or shifted candidate.
  CandidateTable<PairingRelation, 1> relations_;
  // Per product node: how many candidate relations contain it. Lets a
  // patch retire the contributions of dropped/re-paired candidates and
  // keep only supported nodes, without rediscovering Vp from scratch.
  std::vector<uint32_t> node_refs_;
};

/// Builds Gp for the plan context `ctx` that the patch constructor made
/// from `prev`'s context, with `info` its output: candidates carried over
/// (through info.candidate_reuse, the position map) re-share their
/// relations from `prev`, every dirty candidate brings the relation the
/// pairing pass collected (info.relations), and the retired candidates'
/// contributions are reference-counted away; Vp is compacted only when a
/// node lost its last one. The edge pass recomputes only the rows of
/// product nodes that are new or touch a graph node in `graph_dirty`
/// (the delta's touched set); every other row is copied from `prev`. A
/// compile passes an empty `prev`. Product-node ids may differ from a
/// from-scratch build; Gp semantics do not depend on them.
ProductGraph PatchProductGraph(const ProductGraph& prev,
                               const EmContext& ctx,
                               const ContextPatchInfo& info,
                               std::span<const NodeId> graph_dirty);

}  // namespace gkeys

#endif  // GKEYS_CORE_PRODUCT_GRAPH_H_
