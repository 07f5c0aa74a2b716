#include "core/product_graph.h"

#include <algorithm>

#include "isomorph/pairing.h"

namespace gkeys {

uint32_t ProductGraph::Find(NodeId a, NodeId b) const {
  auto it = index_.find(PackPair(a, b));
  return it == index_.end() ? kNoPNode : it->second;
}

uint32_t ProductGraph::OutCount(uint32_t v, Symbol pred) const {
  auto it = out_count_[v].find(pred);
  return it == out_count_[v].end() ? 0 : it->second;
}

uint32_t ProductGraph::InCount(uint32_t v, Symbol pred) const {
  auto it = in_count_[v].find(pred);
  return it == in_count_[v].end() ? 0 : it->second;
}

size_t ProductGraph::MemoryBytes() const {
  size_t bytes = nodes_.capacity() * sizeof(nodes_[0]) +
                 candidate_nodes_.capacity() * sizeof(uint32_t) +
                 index_.size() * (sizeof(uint64_t) + sizeof(uint32_t));
  for (const auto& adj : out_) bytes += adj.capacity() * sizeof(PEdge);
  for (const auto& adj : in_) bytes += adj.capacity() * sizeof(PEdge);
  for (const auto& counts : out_count_) {
    bytes += counts.size() * (sizeof(Symbol) + sizeof(uint32_t));
  }
  for (const auto& counts : in_count_) {
    bytes += counts.size() * (sizeof(Symbol) + sizeof(uint32_t));
  }
  for (const auto& pairs : candidate_pairs_) {
    if (pairs != nullptr) bytes += pairs->capacity() * sizeof(uint64_t);
  }
  bytes += candidate_pairs_.capacity() *
               sizeof(std::shared_ptr<const Relation>) +
           node_refs_.capacity() * sizeof(uint32_t);
  return bytes;
}

namespace {

/// The pairing relation of candidate `c`, unioned over its keys, as
/// packed deduplicated pairs. Includes (e1, e2) itself whenever some key
/// pairs (the relation always contains the candidate pair then), so
/// "empty" doubles as "unpairable by every key".
std::vector<uint64_t> CollectCandidatePairs(const EmContext& ctx,
                                            const Candidate& c,
                                            PairingScratch* scratch) {
  std::vector<uint64_t> pairs;
  for (int ki : *c.keys) {
    PairingResult pr =
        ComputeMaxPairing(ctx.graph(), ctx.compiled_keys()[ki].cp, c.e1,
                          c.e2, *c.nbr1, *c.nbr2, /*collect_pairs=*/true,
                          scratch);
    if (!pr.paired) continue;
    pairs.insert(pairs.end(), pr.pairs.begin(), pr.pairs.end());
    pairs.push_back(PackPair(c.e1, c.e2));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

}  // namespace

void ProductGraph::AddNodeRef(ProductGraph& pg, uint64_t packed) {
  auto [it, inserted] =
      pg.index_.emplace(packed, static_cast<uint32_t>(pg.nodes_.size()));
  if (inserted) {
    pg.nodes_.emplace_back(static_cast<NodeId>(packed >> 32),
                           static_cast<NodeId>(packed & 0xffffffffu));
    pg.node_refs_.push_back(0);
  }
  ++pg.node_refs_[it->second];
}

void ProductGraph::Finish(const EmContext& ctx, ProductGraph& pg,
                          const ProductGraph& prev,
                          const std::vector<uint32_t>& prev_to_new,
                          std::span<const NodeId> graph_dirty) {
  const Graph& g = ctx.graph();
  // Ep: ((s1, s2), p, (o1, o2)) iff (s1, p, o1) ∈ G and (s2, p, o2) ∈ G.
  // A product node needs its out-edges recomputed only if it is new or
  // one of its graph endpoints had its adjacency touched by the delta;
  // every other node's out-list is valid in the new graph and is copied
  // (dropping edges whose target died), then extended with edges into
  // the NEW nodes, discovered from the new nodes' in-side. in_ and the
  // prioritization counts are derived from out_ in one pass.
  std::vector<uint8_t> endpoint_dirty(g.NumNodes(), 0);
  for (NodeId n : graph_dirty) {
    if (n < g.NumNodes()) endpoint_dirty[n] = 1;
  }
  const uint32_t num_nodes = static_cast<uint32_t>(pg.nodes_.size());
  std::vector<uint8_t> recompute(num_nodes, 0);
  std::vector<uint32_t> prev_of(num_nodes, kNoPNode);
  for (uint32_t v = 0; v < prev_to_new.size(); ++v) {
    if (prev_to_new[v] != kNoPNode) prev_of[prev_to_new[v]] = v;
  }
  std::vector<uint32_t> fresh_nodes;
  bool any_clean = false;
  for (uint32_t v = 0; v < num_nodes; ++v) {
    auto [a, b] = pg.nodes_[v];
    if (prev_of[v] == kNoPNode) {
      recompute[v] = 1;
      fresh_nodes.push_back(v);
    } else if (endpoint_dirty[a] != 0 || endpoint_dirty[b] != 0) {
      recompute[v] = 1;
    } else {
      any_clean = true;
    }
  }
  pg.out_.assign(num_nodes, {});
  for (uint32_t v = 0; v < num_nodes; ++v) {
    auto [a, b] = pg.nodes_[v];
    if (recompute[v] != 0) {
      if (!g.IsEntity(a) || !g.IsEntity(b)) continue;
      for (const Edge& ea : g.Out(a)) {
        for (const Edge& eb : g.Out(b)) {
          if (ea.pred != eb.pred) continue;
          uint32_t dst = pg.Find(ea.dst, eb.dst);
          if (dst == kNoPNode) continue;
          pg.out_[v].push_back(PEdge{ea.pred, dst});
        }
      }
      continue;
    }
    for (const PEdge& e : prev.out_[prev_of[v]]) {
      uint32_t dst = prev_to_new[e.dst];
      if (dst == kNoPNode) continue;
      pg.out_[v].push_back(PEdge{e.pred, dst});
    }
  }
  // Edges from clean sources into brand-new nodes (the copy above cannot
  // contain them — the target did not exist). Without a clean node (a
  // build from scratch) there is nothing to find.
  if (!any_clean) fresh_nodes.clear();
  for (uint32_t w : fresh_nodes) {
    auto [o1, o2] = pg.nodes_[w];
    for (const Edge& ea : g.In(o1)) {
      for (const Edge& eb : g.In(o2)) {
        if (ea.pred != eb.pred) continue;
        uint32_t v = pg.Find(ea.dst, eb.dst);
        if (v == kNoPNode || recompute[v] != 0) continue;
        pg.out_[v].push_back(PEdge{ea.pred, w});
      }
    }
  }
  pg.in_.assign(num_nodes, {});
  pg.out_count_.assign(num_nodes, {});
  pg.in_count_.assign(num_nodes, {});
  for (uint32_t v = 0; v < num_nodes; ++v) {
    for (const PEdge& e : pg.out_[v]) {
      pg.in_[e.dst].push_back(PEdge{e.pred, v});
      ++pg.out_count_[v][e.pred];
      ++pg.in_count_[e.dst][e.pred];
      ++pg.num_edges_;
    }
  }
  // A nonempty relation always contains its candidate pair.
  pg.candidate_nodes_.assign(ctx.candidates().size(), kNoPNode);
  for (uint32_t i = 0; i < ctx.candidates().size(); ++i) {
    const Candidate& c = ctx.candidates()[i];
    if (!pg.candidate_pairs_[i]->empty()) {
      pg.candidate_nodes_[i] = pg.Find(c.e1, c.e2);
    }
  }
}

ProductGraph PatchProductGraph(const ProductGraph& prev,
                               const EmContext& ctx,
                               const std::vector<int64_t>& candidate_reuse,
                               std::span<const NodeId> graph_dirty) {
  ProductGraph pg;
  // Node phase — Vp: every pair surviving in the maximum pairing relation
  // of some key at some candidate (paper §5.1). Start from the previous
  // node set and retire the contributions of candidates that are gone or
  // re-paired; only dirty candidates run the pairing fixpoint again.
  // Carried-over candidates re-share their relations (reference counts
  // inherited unchanged). From an empty Gp every candidate is dirty.
  pg.nodes_ = prev.nodes_;
  pg.index_ = prev.index_;
  pg.node_refs_ = prev.node_refs_;
  const uint32_t prev_count = static_cast<uint32_t>(prev.nodes_.size());
  std::vector<uint8_t> carried(prev.candidate_pairs_.size(), 0);
  for (int64_t from : candidate_reuse) {
    if (from >= 0) carried[from] = 1;
  }
  auto retire = [&pg](const ProductGraph::Relation& rel) {
    for (uint64_t p : rel) --pg.node_refs_[pg.index_.at(p)];
  };
  for (uint32_t i = 0; i < prev.candidate_pairs_.size(); ++i) {
    if (!carried[i]) retire(*prev.candidate_pairs_[i]);
  }
  PairingScratch scratch;
  pg.candidate_pairs_.resize(ctx.candidates().size());
  for (uint32_t i = 0; i < ctx.candidates().size(); ++i) {
    int64_t from = i < candidate_reuse.size() ? candidate_reuse[i] : -1;
    if (from >= 0) {
      pg.candidate_pairs_[i] = prev.candidate_pairs_[from];
      continue;
    }
    auto rel = std::make_shared<ProductGraph::Relation>(
        CollectCandidatePairs(ctx, ctx.candidates()[i], &scratch));
    for (uint64_t p : *rel) ProductGraph::AddNodeRef(pg, p);
    pg.candidate_pairs_[i] = std::move(rel);
  }
  // Compact away nodes no relation supports anymore (removals and
  // re-paired candidates shrink Vp), keeping the prev-id → new-id map
  // the edge pass needs.
  std::vector<uint32_t> prev_to_new;
  bool any_dead = false;
  for (uint32_t refs : pg.node_refs_) {
    if (refs == 0) {
      any_dead = true;
      break;
    }
  }
  if (any_dead) {
    prev_to_new.assign(prev_count, kNoPNode);
    std::vector<std::pair<NodeId, NodeId>> nodes;
    std::vector<uint32_t> refs;
    nodes.reserve(pg.nodes_.size());
    pg.index_.clear();
    for (uint32_t v = 0; v < pg.nodes_.size(); ++v) {
      if (pg.node_refs_[v] == 0) continue;
      uint32_t id = static_cast<uint32_t>(nodes.size());
      pg.index_.emplace(PackPair(pg.nodes_[v].first, pg.nodes_[v].second),
                        id);
      if (v < prev_count) prev_to_new[v] = id;
      nodes.push_back(pg.nodes_[v]);
      refs.push_back(pg.node_refs_[v]);
    }
    pg.nodes_ = std::move(nodes);
    pg.node_refs_ = std::move(refs);
  } else {
    prev_to_new.resize(prev_count);
    for (uint32_t v = 0; v < prev_count; ++v) prev_to_new[v] = v;
  }

  ProductGraph::Finish(ctx, pg, prev, prev_to_new, graph_dirty);
  return pg;
}

ProductGraph BuildProductGraph(const EmContext& ctx) {
  return PatchProductGraph(ProductGraph(), ctx, {}, {});
}

}  // namespace gkeys
