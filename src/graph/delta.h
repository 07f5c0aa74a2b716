#ifndef GKEYS_GRAPH_DELTA_H_
#define GKEYS_GRAPH_DELTA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace gkeys {

/// A batch of mutations staged against one base graph: added / removed
/// triples plus the entities and values those triples introduce. The
/// delta is a value type — building it never touches the base graph —
/// but NodeIds are resolved eagerly against the base, so staged ops live
/// in the base graph's id space:
///
///     GraphDelta delta(g);
///     NodeId e = delta.AddEntity("person");       // id g will assign
///     NodeId v = delta.AddValue("alice");         // dedups against g
///     delta.AddTriple(e, "name", v);
///     delta.RemoveTriple(old_s, "name", old_o);
///     auto dirty = g.Apply(delta);                // mutate + re-Finalize
///     auto plan2 = plan.Patch(delta);             // incremental recompile
///
/// Lifecycle: one delta is good for one Apply — ids staged for new nodes
/// assume the base graph's node count, so Apply rejects a delta whose
/// base has since grown (InvalidArgument). After Apply, the same delta
/// value is still what MatchPlan::Patch and Matcher::Rematch consume
/// (they read the staged ops, never re-apply them). The base graph must
/// outlive the delta.
///
/// Thread-safety: staging mutates the delta and is not synchronized —
/// build a delta on one thread. Once built it is logically const and may
/// be read (Apply/Patch/Rematch/TouchedNodes) from any thread, one
/// mutating consumer (Apply) at a time.
///
/// Error contract: staging methods return InvalidArgument for unknown
/// ids or a non-entity subject, eagerly; existence of removed triples is
/// checked by Graph::Apply (NotFound), not at staging time. Removal
/// deltas are first-class downstream: Matcher::Rematch retracts the
/// derivations a removed triple invalidates and seeds from the rest,
/// instead of rerunning the world (see Rematch in core/matcher.h).
class GraphDelta {
 public:
  /// Stages against `base` as it is right now (captures the node count).
  explicit GraphDelta(const Graph& base)
      : base_(&base), base_nodes_(base.NumNodes()) {}

  // ---- Staging -------------------------------------------------------

  /// Stages a fresh entity of `type`; returns the NodeId Graph::Apply
  /// will materialize it with.
  NodeId AddEntity(std::string_view type);

  /// Stages (or resolves) the value node for a literal: an existing base
  /// value or an already-staged one is returned as-is (value equality).
  NodeId AddValue(std::string_view literal);

  /// Stages triple (s, p, o). s/o may be base nodes or staged ones.
  /// InvalidArgument when an id is unknown or s is not an entity.
  Status AddTriple(NodeId s, std::string_view p, NodeId o);

  /// Stages the removal of triple (s, p, o). Removals must reference
  /// base nodes; whether the triple exists is checked by Graph::Apply.
  Status RemoveTriple(NodeId s, std::string_view p, NodeId o);

  // ---- Inspection ----------------------------------------------------

  bool empty() const {
    return added_.empty() && removed_.empty() && new_nodes_.empty();
  }
  size_t num_added_triples() const { return added_.size(); }
  size_t num_removed_triples() const { return removed_.size(); }
  size_t num_new_nodes() const { return new_nodes_.size(); }
  bool has_removals() const { return !removed_.empty(); }

  /// Node count of the base graph at staging time (Apply checks this).
  size_t base_nodes() const { return base_nodes_; }

  /// Every node the delta touches — endpoints of added/removed triples
  /// and all staged nodes — sorted ascending, deduplicated. This is the
  /// per-node dirty set the incremental plan patch works from.
  std::vector<NodeId> TouchedNodes() const;

  // ---- Raw ops (consumed by Graph::Apply / MatchPlan::Patch) ---------

  struct NewNode {
    NodeKind kind;
    std::string label;  // entity type or value literal
  };
  struct DeltaTriple {
    NodeId subject;
    std::string pred;
    NodeId object;
  };

  const std::vector<NewNode>& new_nodes() const { return new_nodes_; }
  const std::vector<DeltaTriple>& added() const { return added_; }
  const std::vector<DeltaTriple>& removed() const { return removed_; }

  /// A staged triple as a hash-set key (Graph::Apply's removal check,
  /// DeltaBinder's group rules). `pred` is a view: valid only while the
  /// string it points into lives.
  struct TripleRef {
    NodeId subject;
    std::string_view pred;
    NodeId object;
    bool operator==(const TripleRef&) const = default;
  };
  struct TripleRefHash {
    size_t operator()(const TripleRef& t) const noexcept {
      const uint64_t ends = uint64_t{t.subject} << 32 | t.object;
      return std::hash<std::string_view>{}(t.pred) ^
             static_cast<size_t>(ends * 0x9e3779b97f4a7c15ull);
    }
  };

 private:
  bool Staged(NodeId n) const {
    return n >= base_nodes_ && n < base_nodes_ + new_nodes_.size();
  }
  bool Known(NodeId n) const { return n < base_nodes_ || Staged(n); }
  bool IsEntityNode(NodeId n) const {
    if (n < base_nodes_) return base_->IsEntity(n);
    return Staged(n) && new_nodes_[n - base_nodes_].kind == NodeKind::kEntity;
  }

  const Graph* base_;
  size_t base_nodes_;
  std::vector<NewNode> new_nodes_;
  // Staged value literals → staged NodeId (base values resolve through
  // the base graph instead).
  std::unordered_map<std::string, NodeId> staged_values_;
  std::vector<DeltaTriple> added_;
  std::vector<DeltaTriple> removed_;
};

}  // namespace gkeys

#endif  // GKEYS_GRAPH_DELTA_H_
