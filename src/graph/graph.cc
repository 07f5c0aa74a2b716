#include "graph/graph.h"

#include <algorithm>
#include <unordered_set>

#include "graph/delta.h"

namespace gkeys {

NodeId Graph::AddEntity(Symbol type) {
  NodeId id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(NodeKind::kEntity);
  labels_.push_back(type);
  if (csr_built_) TouchNewNode(id);
  by_type_[type].push_back(id);
  ++num_entities_;
  return id;
}

NodeId Graph::AddValue(std::string_view value) {
  Symbol sym = interner_.Intern(value);
  auto it = value_nodes_.find(sym);
  if (it != value_nodes_.end()) return it->second;
  NodeId id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(NodeKind::kValue);
  labels_.push_back(sym);
  if (csr_built_) TouchNewNode(id);
  value_nodes_.emplace(sym, id);
  return id;
}

void Graph::TouchNewNode(NodeId n) {
  finalized_ = false;
  dirty_nodes_.push_back(n);
}

std::vector<Edge>& Graph::ThawNode(
    std::unordered_map<NodeId, std::vector<Edge>>& overlay,
    const std::vector<size_t>& offsets, const std::vector<Edge>& edges,
    NodeId n) {
  finalized_ = false;
  auto [it, inserted] = overlay.try_emplace(n);
  if (inserted) {
    dirty_nodes_.push_back(n);
    if (n < csr_nodes_) {
      it->second.assign(edges.begin() + offsets[n],
                        edges.begin() + offsets[n + 1]);
    }
  }
  return it->second;
}

Status Graph::AddTriple(NodeId s, Symbol p, NodeId o) {
  if (s >= kinds_.size() || o >= kinds_.size()) {
    return Status::InvalidArgument("AddTriple: node id out of range");
  }
  if (!IsEntity(s)) {
    return Status::InvalidArgument("AddTriple: subject must be an entity");
  }
  if (!csr_built_) {
    build_.push_back(Triple{s, p, o});
  } else {
    ThawNode(out_overlay_, out_offsets_, out_edges_, s).push_back(Edge{p, o});
    ThawNode(in_overlay_, in_offsets_, in_edges_, o).push_back(Edge{p, s});
  }
  ++num_triples_;
  return Status::OK();
}

Status Graph::RemoveTriple(NodeId s, Symbol p, NodeId o) {
  if (s >= kinds_.size() || o >= kinds_.size()) {
    return Status::InvalidArgument("RemoveTriple: node id out of range");
  }
  if (!HasTriple(s, p, o)) {
    return Status::NotFound("RemoveTriple: (" + DescribeNode(s) + ", " +
                            interner_.Resolve(p) + ", " + DescribeNode(o) +
                            ") is not in the graph");
  }
  // Duplicate adds are tracked until Finalize() dedups, so removing an
  // edge must subtract however many copies actually existed.
  auto erase_all = [](auto& list, const auto& item) -> size_t {
    size_t before = list.size();
    list.erase(std::remove(list.begin(), list.end(), item), list.end());
    return before - list.size();
  };
  size_t removed;
  if (!csr_built_) {
    removed = erase_all(build_, Triple{s, p, o});
  } else {
    removed = erase_all(ThawNode(out_overlay_, out_offsets_, out_edges_, s),
                        Edge{p, o});
    erase_all(ThawNode(in_overlay_, in_offsets_, in_edges_, o), Edge{p, s});
  }
  num_triples_ -= removed;
  return Status::OK();
}

void Graph::Finalize() {
  if (finalized_) return;
  const size_t n = NumNodes();
  if (!csr_built_) {
    // First finalization: counting sort of the flat triple list into one
    // CSR direction (keyed by subject for out-edges, by object for
    // in-edges), then sort + dedup of each node's run, compacted in place.
    auto counting_sort = [this, n](bool out, std::vector<size_t>& offsets,
                                   std::vector<Edge>& edges) -> size_t {
      offsets.assign(n + 1, 0);
      for (const Triple& t : build_) {
        ++offsets[(out ? t.subject : t.object) + 1];
      }
      for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
      std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
      edges.resize(build_.size());
      for (const Triple& t : build_) {
        if (out) {
          edges[cursor[t.subject]++] = Edge{t.pred, t.object};
        } else {
          edges[cursor[t.object]++] = Edge{t.pred, t.subject};
        }
      }
      size_t kept = 0;
      for (size_t i = 0; i < n; ++i) {
        const auto first = edges.begin() + offsets[i];
        const auto last = edges.begin() + offsets[i + 1];
        std::sort(first, last);
        const auto unique_end = std::unique(first, last);
        if (kept != offsets[i]) {
          std::copy(first, unique_end, edges.begin() + kept);
        }
        offsets[i] = kept;
        kept += unique_end - first;
      }
      offsets[n] = kept;
      edges.resize(kept);
      edges.shrink_to_fit();
      return kept;
    };
    num_triples_ = counting_sort(true, out_offsets_, out_edges_);
    counting_sort(false, in_offsets_, in_edges_);
    build_.clear();
    build_.shrink_to_fit();
  } else {
    // Re-finalization after per-node thaws: sort + dedup only the dirty
    // runs, then rebuild each direction by walking the sorted dirty ids.
    // The clean nodes between two dirty ids are one block copy of edges,
    // their offsets shifted by the running size change; each dirty id
    // takes its overlay run, or keeps its CSR run when this direction
    // never thawed it (a new node without edges gets an empty run). No
    // clean node costs a map probe.
    std::sort(dirty_nodes_.begin(), dirty_nodes_.end());
    dirty_nodes_.erase(std::unique(dirty_nodes_.begin(), dirty_nodes_.end()),
                       dirty_nodes_.end());
    auto splice = [this, n](std::unordered_map<NodeId, std::vector<Edge>>&
                                overlay,
                            std::vector<size_t>& offsets,
                            std::vector<Edge>& edges) -> size_t {
      auto old_run = [&](NodeId i) {
        return i < csr_nodes_
                   ? std::span<const Edge>(edges.data() + offsets[i],
                                           offsets[i + 1] - offsets[i])
                   : std::span<const Edge>();
      };
      std::vector<std::span<const Edge>> runs;
      runs.reserve(dirty_nodes_.size());
      size_t total = edges.size();
      for (NodeId d : dirty_nodes_) {
        auto it = overlay.find(d);
        if (it == overlay.end()) {
          runs.push_back(old_run(d));
          continue;
        }
        std::vector<Edge>& adj = it->second;
        std::sort(adj.begin(), adj.end());
        adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
        total += adj.size();
        total -= old_run(d).size();
        runs.push_back(adj);
      }
      std::vector<size_t> new_offsets(n + 1);
      std::vector<Edge> new_edges;
      new_edges.reserve(total);
      NodeId next = 0;  // first node not placed yet
      // Copies the clean nodes [next, end). Every node past the old CSR
      // is dirty (TouchNewNode), so a clean range lies inside the CSR.
      auto copy_clean = [&](NodeId end) {
        if (next == end) return;
        assert(end <= csr_nodes_);
        const size_t shift = new_edges.size() - offsets[next];
        for (NodeId i = next; i < end; ++i) {
          new_offsets[i] = offsets[i] + shift;
        }
        new_edges.insert(new_edges.end(), edges.begin() + offsets[next],
                         edges.begin() + offsets[end]);
      };
      for (size_t k = 0; k < dirty_nodes_.size(); ++k) {
        const NodeId d = dirty_nodes_[k];
        copy_clean(d);
        new_offsets[d] = new_edges.size();
        new_edges.insert(new_edges.end(), runs[k].begin(), runs[k].end());
        next = d + 1;
      }
      copy_clean(static_cast<NodeId>(n));
      new_offsets[n] = new_edges.size();
      offsets = std::move(new_offsets);
      edges = std::move(new_edges);
      overlay.clear();
      return total;
    };
    num_triples_ = splice(out_overlay_, out_offsets_, out_edges_);
    splice(in_overlay_, in_offsets_, in_edges_);
  }
  dirty_nodes_.clear();
  csr_nodes_ = n;
  csr_built_ = true;
  finalized_ = true;
}

std::vector<NodeId> Graph::DirtyNodes() const {
  std::vector<NodeId> dirty = dirty_nodes_;
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

StatusOr<std::vector<NodeId>> Graph::Apply(const GraphDelta& delta) {
  if (delta.base_nodes() != NumNodes()) {
    return Status::InvalidArgument(
        "Graph::Apply: delta was staged against a graph with " +
        std::to_string(delta.base_nodes()) + " nodes, this graph has " +
        std::to_string(NumNodes()));
  }
  // Every removal is checked before anything mutates, so a failing Apply
  // leaves the graph as it was. Adds run first, so a removal is valid
  // when its triple is in the graph or among the delta's adds, and no
  // earlier removal of the delta took it already.
  using Ref = GraphDelta::TripleRef;
  std::unordered_set<Ref, GraphDelta::TripleRefHash> added, taken;
  bool added_indexed = false;  // `added` is built on first need
  for (const GraphDelta::DeltaTriple& t : delta.removed()) {
    if (t.subject >= NumNodes() || t.object >= NumNodes()) {
      return Status::InvalidArgument("RemoveTriple: node id out of range");
    }
    const Ref ref{t.subject, t.pred, t.object};
    const Symbol p = interner_.Lookup(t.pred);
    bool present = p != kNoSymbol && HasTriple(t.subject, p, t.object);
    if (!present) {
      if (!added_indexed) {
        for (const GraphDelta::DeltaTriple& a : delta.added()) {
          added.insert(Ref{a.subject, a.pred, a.object});
        }
        added_indexed = true;
      }
      present = added.count(ref) > 0;
    }
    if (present && taken.insert(ref).second) continue;
    if (p == kNoSymbol &&
        std::none_of(delta.added().begin(), delta.added().end(),
                     [&](const auto& a) { return a.pred == t.pred; })) {
      return Status::NotFound("Graph::Apply: removed predicate '" + t.pred +
                              "' never occurs in the graph");
    }
    return Status::NotFound("RemoveTriple: (" + DescribeNode(t.subject) +
                            ", " + t.pred + ", " + DescribeNode(t.object) +
                            ") is not in the graph");
  }
  // Materialize staged nodes in staging order so their NodeIds come out
  // exactly as GraphDelta handed them to the caller.
  for (const GraphDelta::NewNode& nn : delta.new_nodes()) {
    NodeId id = nn.kind == NodeKind::kEntity ? AddEntity(nn.label)
                                             : AddValue(nn.label);
    (void)id;
  }
  for (const GraphDelta::DeltaTriple& t : delta.added()) {
    GKEYS_RETURN_IF_ERROR(AddTriple(t.subject, t.pred, t.object));
  }
  for (const GraphDelta::DeltaTriple& t : delta.removed()) {
    // Checked above: the predicate is interned by now, the triple there.
    GKEYS_RETURN_IF_ERROR(
        RemoveTriple(t.subject, interner_.Lookup(t.pred), t.object));
  }
  std::vector<NodeId> dirty = DirtyNodes();
  Finalize();
  return dirty;
}

bool Graph::HasTriple(NodeId s, Symbol p, NodeId o) const {
  if (!csr_built_) {
    return std::find(build_.begin(), build_.end(), Triple{s, p, o}) !=
           build_.end();
  }
  const auto adj = Out(s);
  Edge target{p, o};
  if (finalized_) {
    return std::binary_search(adj.begin(), adj.end(), target);
  }
  return std::find(adj.begin(), adj.end(), target) != adj.end();
}

std::span<const NodeId> Graph::EntitiesOfType(Symbol type) const {
  auto it = by_type_.find(type);
  if (it == by_type_.end()) return {};
  return it->second;
}

NodeId Graph::FindValue(std::string_view value) const {
  Symbol sym = interner_.Lookup(value);
  if (sym == kNoSymbol) return kNoNode;
  auto it = value_nodes_.find(sym);
  return it == value_nodes_.end() ? kNoNode : it->second;
}

std::vector<Symbol> Graph::EntityTypes() const {
  std::vector<Symbol> types;
  types.reserve(by_type_.size());
  for (const auto& [type, nodes] : by_type_) {
    if (!nodes.empty()) types.push_back(type);
  }
  std::sort(types.begin(), types.end());
  return types;
}

std::string Graph::DescribeNode(NodeId n) const {
  if (IsValue(n)) return "\"" + value_str(n) + "\"";
  return interner_.Resolve(entity_type(n)) + "#" + std::to_string(n);
}

}  // namespace gkeys
