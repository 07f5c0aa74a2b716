#include "graph/graph.h"

#include <algorithm>
#include <array>
#include <unordered_set>
#include <utility>

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

std::vector<Edge>& Graph::ThawNode(Overlay& overlay, const Csr& csr,
                                   NodeId n) {
  finalized_ = false;
  auto [it, inserted] = overlay.try_emplace(n);
  if (inserted) {
    dirty_nodes_.push_back(n);
    if (n < csr_nodes_) {
      const std::span<const Edge> run = CsrRun(csr, n);
      it->second.assign(run.begin(), run.end());
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
    ThawNode(out_overlay_, out_csr_, s).push_back(Edge{p, o});
    ThawNode(in_overlay_, in_csr_, o).push_back(Edge{p, s});
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
    removed = erase_all(ThawNode(out_overlay_, out_csr_, s), Edge{p, o});
    erase_all(ThawNode(in_overlay_, in_csr_, o), Edge{p, s});
  }
  num_triples_ -= removed;
  return Status::OK();
}

void Graph::Finalize() {
  Freeze();
  dirty_nodes_.clear();
}

void Graph::Freeze() {
  if (finalized_) return;
  if (!csr_built_) {
    num_triples_ = BuildCsr(true, out_csr_);
    BuildCsr(false, in_csr_);
    build_.clear();
    build_.shrink_to_fit();
  } else {
    std::sort(dirty_nodes_.begin(), dirty_nodes_.end());
    dirty_nodes_.erase(std::unique(dirty_nodes_.begin(), dirty_nodes_.end()),
                       dirty_nodes_.end());
    // AddTriple and RemoveTriple counted every copy they added or took;
    // the duplicates the out-runs' dedup drops come off here.
    num_triples_ -= RewriteDirtyChunks(out_overlay_, out_csr_);
    RewriteDirtyChunks(in_overlay_, in_csr_);
  }
  csr_nodes_ = NumNodes();
  csr_built_ = true;
  finalized_ = true;
}

size_t Graph::BuildCsr(bool out, Csr& csr) const {
  const size_t n = NumNodes();
  csr.assign((n + kChunkNodes - 1) >> kChunkShift, Chunk{});
  for (size_t c = 0; c < csr.size(); ++c) {
    csr[c].offsets.assign(std::min(kChunkNodes, n - (c << kChunkShift)) + 1,
                          0);
  }
  // offsets[i] first counts local node i's edges, then, prefix-summed,
  // marks where its run ends; the scatter steps it back to where the run
  // starts. Offsets are 32-bit: a chunk holds fewer than 2^32 edges.
  for (const Triple& t : build_) {
    const NodeId k = out ? t.subject : t.object;
    ++csr[k >> kChunkShift].offsets[k & (kChunkNodes - 1)];
  }
  for (Chunk& c : csr) {
    uint32_t end = 0;
    for (uint32_t& o : c.offsets) o = end += o;
    c.edges.resize(end);
  }
  for (const Triple& t : build_) {
    const NodeId k = out ? t.subject : t.object;
    Chunk& c = csr[k >> kChunkShift];
    c.edges[--c.offsets[k & (kChunkNodes - 1)]] =
        Edge{t.pred, out ? t.object : t.subject};
  }
  // Sort + dedup each run, compacted in place.
  size_t total = 0;
  for (Chunk& c : csr) {
    const size_t count = c.offsets.size() - 1;
    uint32_t kept = 0;
    for (size_t i = 0; i < count; ++i) {
      const auto first = c.edges.begin() + c.offsets[i];
      const auto last = c.edges.begin() + c.offsets[i + 1];
      std::sort(first, last);
      const auto unique_end = std::unique(first, last);
      if (kept != c.offsets[i]) {
        std::copy(first, unique_end, c.edges.begin() + kept);
      }
      c.offsets[i] = kept;
      kept += unique_end - first;
    }
    c.offsets[count] = kept;
    c.edges.resize(kept);
    c.edges.shrink_to_fit();
    total += kept;
  }
  return total;
}

size_t Graph::RewriteDirtyChunks(Overlay& overlay, Csr& csr) {
  const size_t n = NumNodes();
  // The dirty ids whose run changes in this direction, each with its new
  // run: the overlay's, sorted and deduplicated, or an empty one for a
  // new node this direction never thawed. Every id past the old CSR is
  // dirty (TouchNewNode), so each chunk that gains ids is rewritten too.
  std::vector<std::pair<NodeId, std::span<const Edge>>> runs;
  size_t duplicates = 0;
  for (NodeId d : dirty_nodes_) {
    auto it = overlay.find(d);
    if (it == overlay.end()) {
      if (d >= csr_nodes_) runs.emplace_back(d, std::span<const Edge>());
      continue;
    }
    std::vector<Edge>& adj = it->second;
    std::sort(adj.begin(), adj.end());
    const auto unique_end = std::unique(adj.begin(), adj.end());
    duplicates += adj.end() - unique_end;
    adj.erase(unique_end, adj.end());
    runs.emplace_back(d, adj);
  }
  csr.resize((n + kChunkNodes - 1) >> kChunkShift);
  for (size_t k = 0; k < runs.size();) {
    // Chunk c holds runs [k, stop); ids past the chunk's old size are new.
    const size_t c = runs[k].first >> kChunkShift;
    const NodeId first = static_cast<NodeId>(c << kChunkShift);
    const size_t count = std::min(kChunkNodes, n - first);
    size_t stop = k;
    while (stop < runs.size() && runs[stop].first >> kChunkShift == c) ++stop;
    std::vector<uint32_t>& offsets = csr[c].offsets;
    std::vector<Edge>& edges = csr[c].edges;
    // New offsets: every id but those of runs[k, stop) keeps its run's
    // length, and a clean id lies inside the old chunk.
    std::array<uint32_t, kChunkNodes + 1> at;
    at[0] = 0;
    for (size_t i = 0, r = k; i < count; ++i) {
      const bool dirty = r < stop && runs[r].first == first + i;
      at[i + 1] = at[i] + static_cast<uint32_t>(
                              dirty ? runs[r++].second.size()
                                    : offsets[i + 1] - offsets[i]);
    }
    // The chunk is rewritten inside its own edge array, grown by a quarter
    // more than it needs when too small, so a growing chunk reallocates
    // only now and then. The clean ids between two dirty ones keep their
    // order and move by one shift: ranges moving right go last to first,
    // ranges moving left first to last, so no range overwrites one not
    // moved yet, and a range that keeps its place is not touched. The
    // dirty runs land last, in the gaps left for them.
    const size_t size = at[count];
    if (size > edges.capacity()) edges.reserve(size + size / 4);
    edges.resize(std::max(edges.size(), size));
    auto clean = [&](size_t j) {  // the clean ids before runs[j]
      return std::pair<size_t, size_t>(
          j == k ? 0 : runs[j - 1].first - first + 1,
          j == stop ? count : runs[j].first - first);
    };
    for (size_t j = stop + 1; j-- > k;) {
      const auto [lo, hi] = clean(j);
      if (lo < hi && at[lo] > offsets[lo]) {
        std::copy_backward(edges.begin() + offsets[lo],
                           edges.begin() + offsets[hi],
                           edges.begin() + at[hi]);
      }
    }
    for (size_t j = k; j <= stop; ++j) {
      const auto [lo, hi] = clean(j);
      if (lo < hi && at[lo] < offsets[lo]) {
        std::copy(edges.begin() + offsets[lo], edges.begin() + offsets[hi],
                  edges.begin() + at[lo]);
      }
    }
    for (; k < stop; ++k) {
      std::copy(runs[k].second.begin(), runs[k].second.end(),
                edges.begin() + at[runs[k].first - first]);
    }
    edges.resize(size);
    offsets.assign(at.begin(), at.begin() + count + 1);
  }
  overlay.clear();
  return duplicates;
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
  Freeze();
  return std::exchange(dirty_nodes_, {});
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
