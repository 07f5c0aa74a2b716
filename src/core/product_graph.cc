#include "core/product_graph.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "isomorph/pairing.h"

namespace gkeys {

namespace {

/// splitmix64's finalizer: every bit of a packed pair reaches the low
/// bits the table is indexed by.
size_t MixPair(uint64_t packed) {
  packed ^= packed >> 30;
  packed *= 0xbf58476d1ce4e5b9ull;
  packed ^= packed >> 27;
  packed *= 0x94d049bb133111ebull;
  return static_cast<size_t>(packed ^ (packed >> 31));
}

/// Calls fn(pred, x.dst, y.dst) for every pair of edges of `x` and `y`
/// with equal predicates, in nested-loop order (x outer). Both runs are
/// sorted by predicate, as the graph's CSR runs are.
template <typename Fn>
void ForEachSharedPred(std::span<const Edge> x, std::span<const Edge> y,
                       Fn&& fn) {
  size_t j = 0;
  for (size_t i = 0; i < x.size();) {
    const Symbol pred = x[i].pred;
    while (j < y.size() && y[j].pred < pred) ++j;
    size_t j_end = j;
    while (j_end < y.size() && y[j_end].pred == pred) ++j_end;
    for (; i < x.size() && x[i].pred == pred; ++i) {
      for (size_t k = j; k < j_end; ++k) fn(pred, x[i].dst, y[k].dst);
    }
    j = j_end;
  }
}

}  // namespace

std::span<const ProductGraph::PEdge> ProductGraph::Csr::Run(
    uint32_t v, Symbol pred) const {
  auto [first, last] = std::equal_range(
      edges.begin() + offsets[v], edges.begin() + offsets[v + 1],
      PEdge{pred, 0},
      [](const PEdge& a, const PEdge& b) { return a.pred < b.pred; });
  return {first, last};
}

size_t ProductGraph::Probe(uint64_t packed) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = MixPair(packed) & mask;; i = (i + 1) & mask) {
    const uint32_t v = slots_[i];
    if (v == kNoPNode ||
        PackPair(nodes_[v].first, nodes_[v].second) == packed) {
      return i;
    }
  }
}

void ProductGraph::Rehash(size_t num_slots) {
  slots_.assign(num_slots, kNoPNode);
  for (uint32_t v = 0; v < nodes_.size(); ++v) {
    slots_[Probe(PackPair(nodes_[v].first, nodes_[v].second))] = v;
  }
}

uint32_t ProductGraph::Find(NodeId a, NodeId b) const {
  return slots_.empty() ? kNoPNode : slots_[Probe(PackPair(a, b))];
}

size_t ProductGraph::MemoryBytes() const {
  size_t bytes = nodes_.capacity() * sizeof(nodes_[0]) +
                 slots_.capacity() * sizeof(uint32_t) +
                 candidate_nodes_.capacity() * sizeof(uint32_t) +
                 candidate_pairs_.capacity() *
                     sizeof(std::shared_ptr<const PairingRelation>) +
                 node_refs_.capacity() * sizeof(uint32_t);
  for (const Csr* csr : {&out_csr_, &in_csr_}) {
    bytes += csr->offsets.capacity() * sizeof(uint32_t) +
             csr->edges.capacity() * sizeof(PEdge);
  }
  for (const auto& pairs : candidate_pairs_) {
    if (pairs != nullptr) bytes += pairs->capacity() * sizeof(uint64_t);
  }
  return bytes;
}

void ProductGraph::AddNodeRef(ProductGraph& pg, uint64_t packed) {
  if (2 * (pg.nodes_.size() + 1) > pg.slots_.size()) {
    pg.Rehash(std::max<size_t>(16, 2 * pg.slots_.size()));
  }
  uint32_t& slot = pg.slots_[pg.Probe(packed)];
  if (slot == kNoPNode) {
    slot = static_cast<uint32_t>(pg.nodes_.size());
    pg.nodes_.emplace_back(static_cast<NodeId>(packed >> 32),
                           static_cast<NodeId>(packed & 0xffffffffu));
    pg.node_refs_.push_back(0);
  }
  ++pg.node_refs_[slot];
}

void ProductGraph::Finish(const EmContext& ctx, ProductGraph& pg,
                          const ProductGraph& prev,
                          const std::vector<uint32_t>& prev_to_new,
                          std::span<const NodeId> graph_dirty) {
  const Graph& g = ctx.graph();
  // Ep: ((s1, s2), p, (o1, o2)) iff (s1, p, o1) ∈ G and (s2, p, o2) ∈ G.
  // A product node needs its out-run recomputed only if it is new or one
  // of its graph endpoints had its adjacency touched by the delta; every
  // other node's run is valid in the new graph and is copied (dropping
  // edges whose target died), with the edges into the NEW nodes,
  // discovered from the new nodes' in-side, merged in. prev_of[v] is the
  // node v's run is copied from, or kNoPNode to recompute it.
  std::vector<uint8_t> endpoint_dirty(g.NumNodes(), 0);
  for (NodeId n : graph_dirty) {
    if (n < g.NumNodes()) endpoint_dirty[n] = 1;
  }
  const uint32_t num_nodes = static_cast<uint32_t>(pg.nodes_.size());
  std::vector<uint32_t> prev_of(num_nodes, kNoPNode);
  for (uint32_t v = 0; v < prev_to_new.size(); ++v) {
    if (prev_to_new[v] != kNoPNode) prev_of[prev_to_new[v]] = v;
  }
  std::vector<uint32_t> fresh_nodes;
  bool any_clean = false;
  for (uint32_t v = 0; v < num_nodes; ++v) {
    auto [a, b] = pg.nodes_[v];
    if (prev_of[v] == kNoPNode) {
      fresh_nodes.push_back(v);
    } else if (endpoint_dirty[a] != 0 || endpoint_dirty[b] != 0) {
      prev_of[v] = kNoPNode;
    } else {
      any_clean = true;
    }
  }
  // An edge `e` of node `node`'s run, built outside the run's array.
  struct RunEdge {
    uint32_t node;
    PEdge e;
  };
  // Edges from clean sources into fresh nodes (the copied runs cannot
  // contain them — the target did not exist), sorted by (source, pred,
  // target): each predicate's run lists its copied edges first, then
  // these. Without a clean node (a build from scratch) there are none.
  std::vector<RunEdge> extra;
  if (!any_clean) fresh_nodes.clear();
  for (uint32_t w : fresh_nodes) {
    auto [o1, o2] = pg.nodes_[w];
    ForEachSharedPred(g.In(o1), g.In(o2),
                      [&](Symbol p, NodeId s1, NodeId s2) {
                        uint32_t v = pg.Find(s1, s2);
                        if (v != kNoPNode && prev_of[v] != kNoPNode) {
                          extra.push_back({v, PEdge{p, w}});
                        }
                      });
  }
  std::sort(extra.begin(), extra.end(),
            [](const RunEdge& a, const RunEdge& b) {
              return std::tie(a.node, a.e.pred, a.e.dst) <
                     std::tie(b.node, b.e.pred, b.e.dst);
            });

  // The out-CSR in one pass over the nodes.
  Csr& out = pg.out_csr_;
  out.offsets.reserve(num_nodes + 1);
  out.edges.reserve(prev.NumEdges() + extra.size());
  size_t x = 0;
  for (uint32_t v = 0; v < num_nodes; ++v) {
    if (prev_of[v] == kNoPNode) {
      auto [a, b] = pg.nodes_[v];
      ForEachSharedPred(g.Out(a), g.Out(b),
                        [&](Symbol p, NodeId o1, NodeId o2) {
                          uint32_t dst = pg.Find(o1, o2);
                          if (dst != kNoPNode) out.edges.push_back({p, dst});
                        });
    } else {
      for (const PEdge& e : prev.Out(prev_of[v])) {
        for (; x < extra.size() && extra[x].node == v &&
               extra[x].e.pred < e.pred;
             ++x) {
          out.edges.push_back(extra[x].e);
        }
        uint32_t dst = prev_to_new[e.dst];
        if (dst != kNoPNode) out.edges.push_back({e.pred, dst});
      }
      for (; x < extra.size() && extra[x].node == v; ++x) {
        out.edges.push_back(extra[x].e);
      }
    }
    out.offsets.push_back(static_cast<uint32_t>(out.edges.size()));
  }

  // The in-CSR: two stable counting passes over the out-edges, by
  // predicate and then by target, leave each in-run sorted by
  // (pred, source), as a scan of the out-runs in node order meets them.
  Symbol max_pred = 0;
  for (const PEdge& e : out.edges) max_pred = std::max(max_pred, e.pred);
  std::vector<uint32_t> pred_at(out.edges.empty() ? 0 : max_pred + 2, 0);
  Csr& in = pg.in_csr_;
  in.offsets.assign(num_nodes + 1, 0);
  for (const PEdge& e : out.edges) {
    ++pred_at[e.pred + 1];
    ++in.offsets[e.dst + 1];
  }
  std::partial_sum(pred_at.begin(), pred_at.end(), pred_at.begin());
  std::partial_sum(in.offsets.begin(), in.offsets.end(), in.offsets.begin());
  std::vector<RunEdge> by_pred(out.edges.size());
  for (uint32_t v = 0; v < num_nodes; ++v) {
    for (const PEdge& e : out.Run(v)) {
      by_pred[pred_at[e.pred]++] = {e.dst, PEdge{e.pred, v}};
    }
  }
  std::vector<uint32_t> fill(in.offsets.begin(), in.offsets.end() - 1);
  in.edges.resize(out.edges.size());
  for (const RunEdge& t : by_pred) in.edges[fill[t.node]++] = t.e;

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
                               const ContextPatchInfo& info,
                               std::span<const NodeId> graph_dirty) {
  ProductGraph pg;
  // Node phase — Vp: every pair surviving in the maximum pairing relation
  // of some key at some candidate (paper §5.1). Start from the previous
  // node set and retire the contributions of candidates that are gone or
  // re-paired; dirty candidates bring the relations the plan's pairing
  // pass collected. Carried-over candidates re-share their relations
  // (reference counts inherited unchanged). From an empty Gp every
  // candidate is dirty.
  pg.nodes_ = prev.nodes_;
  pg.slots_ = prev.slots_;
  pg.node_refs_ = prev.node_refs_;
  const uint32_t prev_count = static_cast<uint32_t>(prev.nodes_.size());
  std::vector<uint8_t> carried(prev.candidate_pairs_.size(), 0);
  for (int64_t from : info.candidate_reuse) {
    if (from >= 0) carried[from] = 1;
  }
  for (uint32_t i = 0; i < prev.candidate_pairs_.size(); ++i) {
    if (carried[i] != 0) continue;
    for (uint64_t p : *prev.candidate_pairs_[i]) {
      --pg.node_refs_[pg.slots_[pg.Probe(p)]];
    }
  }
  pg.candidate_pairs_.resize(ctx.candidates().size());
  for (uint32_t i = 0; i < ctx.candidates().size(); ++i) {
    const int64_t from = info.candidate_reuse[i];
    if (from >= 0) {
      pg.candidate_pairs_[i] = prev.candidate_pairs_[from];
      continue;
    }
    pg.candidate_pairs_[i] = info.relations[i];
    for (uint64_t p : *info.relations[i]) ProductGraph::AddNodeRef(pg, p);
  }
  // Compact away nodes no relation supports anymore (removals and
  // re-paired candidates shrink Vp), in place and in id order, keeping
  // the prev-id → new-id map the edge pass needs.
  std::vector<uint32_t> prev_to_new(prev_count);
  uint32_t id = 0;
  for (uint32_t v = 0; v < pg.nodes_.size(); ++v) {
    const bool dead = pg.node_refs_[v] == 0;
    if (v < prev_count) prev_to_new[v] = dead ? kNoPNode : id;
    if (dead) continue;
    pg.nodes_[id] = pg.nodes_[v];
    pg.node_refs_[id++] = pg.node_refs_[v];
  }
  if (id < pg.nodes_.size()) {
    pg.nodes_.resize(id);
    pg.node_refs_.resize(id);
    pg.Rehash(pg.slots_.size());
  }

  ProductGraph::Finish(ctx, pg, prev, prev_to_new, graph_dirty);
  return pg;
}

}  // namespace gkeys
