#include "core/product_graph.h"

#include <algorithm>
#include <tuple>

#include "graph/neighborhood.h"
#include "isomorph/pairing.h"

namespace gkeys {

namespace {

// The edge pass's marks of the graph nodes a delta touched.
thread_local NodeMarks tl_dirty_endpoints;

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
                 node_refs_.capacity() * sizeof(uint32_t);
  for (const Csr* csr : {&out_csr_, &in_csr_}) {
    bytes += csr->offsets.capacity() * sizeof(uint32_t) +
             csr->edges.capacity() * sizeof(PEdge);
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
                          const ProductGraph& prev, const NodeMap& map,
                          std::span<const int64_t> cand_new_to_old,
                          std::span<const NodeId> graph_dirty) {
  const Graph& g = ctx.graph();
  const uint32_t num_nodes = static_cast<uint32_t>(pg.nodes_.size());
  const uint32_t survivors = map.survivors;
  const bool renumbered = !map.prev_to_new.empty();
  auto prev_id = [&](uint32_t v) {
    return renumbered ? map.new_to_prev[v] : v;
  };
  auto new_id = [&](uint32_t u) {
    return renumbered ? map.prev_to_new[u] : u;
  };
  // A survivor's rows stay valid unless one of its graph endpoints had
  // its adjacency touched by the delta (a delta edge touches both ends).
  NodeMarks::Pass dirty(tl_dirty_endpoints, g.NumNodes());
  for (NodeId n : graph_dirty) {
    if (n < g.NumNodes()) dirty.Set(n, 1);
  }
  auto touched = [&](uint32_t v) {
    return dirty[pg.nodes_[v].first] != 0 || dirty[pg.nodes_[v].second] != 0;
  };
  std::vector<uint32_t> recompute;  // survivors with a dirty endpoint
  if (!graph_dirty.empty()) {
    for (uint32_t v = 0; v < survivors; ++v) {
      if (touched(v)) recompute.push_back(v);
    }
  }
  auto clean = [&](uint32_t v) { return v < survivors && !touched(v); };

  auto recomputed = [&](uint32_t v) { return !clean(v); };

  // An edge `e` of node `node`'s run, built outside the run's array.
  struct RunEdge {
    uint32_t node;
    PEdge e;
  };
  auto by_run = [](const RunEdge& a, const RunEdge& b) {
    return std::tie(a.node, a.e.pred, a.e.dst) <
           std::tie(b.node, b.e.pred, b.e.dst);
  };
  // Out-edges of clean sources into new nodes: a copied run cannot hold
  // them (the new node did not exist). They come from the new nodes'
  // in-side; sorted by (node, pred, target), each predicate's run lists
  // its copied edges first, then these.
  std::vector<RunEdge> extra_out;
  if (survivors > 0) {
    for (uint32_t w = survivors; w < num_nodes; ++w) {
      auto [o1, o2] = pg.nodes_[w];
      ForEachSharedPred(g.In(o1), g.In(o2),
                        [&](Symbol p, NodeId s1, NodeId s2) {
                          uint32_t v = pg.Find(s1, s2);
                          if (v != kNoPNode && clean(v)) {
                            extra_out.push_back({v, PEdge{p, w}});
                          }
                        });
    }
  }
  std::sort(extra_out.begin(), extra_out.end(), by_run);

  // One direction's CSR in one pass over the nodes: a recomputed node's
  // run comes from recompute(v); a clean node's is copied from `old` —
  // ranges of them as one block when no node died — with its `extra`
  // edges merged into their predicate runs.
  auto build = [&](Csr& csr, const Csr& old, const std::vector<RunEdge>& extra,
                   size_t num_edges, auto&& recompute_run) {
    csr.offsets.reserve(num_nodes + 1);
    csr.edges.reserve(num_edges);
    size_t x = 0, r = 0;
    for (uint32_t v = 0; v < num_nodes;) {
      if (v >= survivors || (r < recompute.size() && recompute[r] == v)) {
        r += v < survivors;
        recompute_run(v, csr.edges);
        csr.offsets.push_back(static_cast<uint32_t>(csr.edges.size()));
        ++v;
        continue;
      }
      const uint32_t stop = std::min<uint32_t>(
          r < recompute.size() ? recompute[r] : survivors,
          x < extra.size() ? extra[x].node : survivors);
      if (v == stop) {
        // A clean node gaining edges to or from new nodes.
        for (const PEdge& e : old.Run(prev_id(v))) {
          for (; x < extra.size() && extra[x].node == v &&
                 extra[x].e.pred < e.pred;
               ++x) {
            csr.edges.push_back(extra[x].e);
          }
          const uint32_t dst = new_id(e.dst);
          if (dst != kNoPNode) csr.edges.push_back({e.pred, dst});
        }
        for (; x < extra.size() && extra[x].node == v; ++x) {
          csr.edges.push_back(extra[x].e);
        }
        csr.offsets.push_back(static_cast<uint32_t>(csr.edges.size()));
        ++v;
        continue;
      }
      if (!renumbered) {
        const uint32_t first = old.offsets[v];
        const uint32_t shift = static_cast<uint32_t>(csr.edges.size()) - first;
        for (uint32_t u = v + 1; u <= stop; ++u) {
          csr.offsets.push_back(old.offsets[u] + shift);
        }
        csr.edges.insert(csr.edges.end(), old.edges.begin() + first,
                         old.edges.begin() + old.offsets[stop]);
        v = stop;
        continue;
      }
      for (; v < stop; ++v) {
        for (const PEdge& e : old.Run(prev_id(v))) {
          const uint32_t dst = new_id(e.dst);
          if (dst != kNoPNode) csr.edges.push_back({e.pred, dst});
        }
        csr.offsets.push_back(static_cast<uint32_t>(csr.edges.size()));
      }
    }
  };

  // Out-runs: a recomputed node's from G, in nested-loop order (the
  // order EMOptVC tries targets in).
  build(pg.out_csr_, prev.out_csr_, extra_out,
        prev.NumEdges() + extra_out.size(),
        [&](uint32_t v, std::vector<PEdge>& edges) {
          auto [a, b] = pg.nodes_[v];
          ForEachSharedPred(g.Out(a), g.Out(b),
                            [&](Symbol p, NodeId o1, NodeId o2) {
                              uint32_t dst = pg.Find(o1, o2);
                              if (dst != kNoPNode) edges.push_back({p, dst});
                            });
        });

  // In-runs follow from the out-runs, with no walk of G: an edge whose
  // source or target is recomputed is read off the recomputed source's
  // new out-run or the clean source's extra edges; prev's in-runs hold
  // every edge between clean nodes, and every edge from a recomputed
  // survivor into a clean node (its endpoints were not touched, so that
  // edge did not change). Each in-run is sorted by (pred, source). The
  // new edges are grouped by target (GroupByRow); a recomputed run is
  // sorted as it is built.
  std::vector<RunEdge> gathered;  // (target, PEdge{pred, source})
  size_t gather_bound = extra_out.size() + pg.out_csr_.edges.size() -
                        pg.out_csr_.offsets[survivors];
  for (uint32_t v : recompute) gather_bound += pg.out_csr_.Run(v).size();
  gathered.reserve(gather_bound);
  for (uint32_t v : recompute) {
    for (const PEdge& e : pg.out_csr_.Run(v)) {
      if (recomputed(e.dst)) gathered.push_back({e.dst, PEdge{e.pred, v}});
    }
  }
  for (uint32_t v = survivors; v < num_nodes; ++v) {
    for (const PEdge& e : pg.out_csr_.Run(v)) {
      gathered.push_back({e.dst, PEdge{e.pred, v}});
    }
  }
  for (const RunEdge& t : extra_out) {
    gathered.push_back({t.e.dst, PEdge{t.e.pred, t.node}});
  }
  GroupByRow(gathered, num_nodes, [](const RunEdge& t) { return t.node; });
  // Gathered edges into clean nodes come from new sources only; they
  // merge into the copied runs.
  std::vector<RunEdge> extra_in;
  for (const RunEdge& t : gathered) {
    if (!recomputed(t.node)) extra_in.push_back(t);
  }
  std::sort(extra_in.begin(), extra_in.end(), by_run);
  size_t next = 0;
  build(pg.in_csr_, prev.in_csr_, extra_in, pg.out_csr_.edges.size(),
        [&](uint32_t x, std::vector<PEdge>& edges) {
          const size_t start = edges.size();
          if (x < survivors) {
            for (const PEdge& e : prev.in_csr_.Run(prev_id(x))) {
              const uint32_t src = new_id(e.dst);
              if (src != kNoPNode && !recomputed(src)) {
                edges.push_back({e.pred, src});
              }
            }
          }
          while (next < gathered.size() && gathered[next].node < x) ++next;
          for (; next < gathered.size() && gathered[next].node == x; ++next) {
            edges.push_back(gathered[next].e);
          }
          auto by_pred = [](const PEdge& e, const PEdge& f) {
            return std::tie(e.pred, e.dst) < std::tie(f.pred, f.dst);
          };
          if (!std::is_sorted(edges.begin() + start, edges.end(), by_pred)) {
            std::sort(edges.begin() + start, edges.end(), by_pred);
          }
        });

  // A nonempty relation always contains its candidate pair.
  const std::vector<Candidate>& cands = ctx.candidates();
  pg.candidate_nodes_.resize(cands.size());
  for (uint32_t i = 0; i < cands.size(); ++i) {
    const int64_t from = cand_new_to_old[i];
    if (from >= 0) {
      const uint32_t u = prev.candidate_nodes_[from];
      pg.candidate_nodes_[i] = u == kNoPNode ? kNoPNode : new_id(u);
    } else {
      pg.candidate_nodes_[i] = ctx.relation(i).empty()
                                   ? kNoPNode
                                   : pg.Find(cands[i].e1, cands[i].e2);
    }
  }
}

ProductGraph PatchProductGraph(const ProductGraph& prev,
                               const EmContext& prev_ctx,
                               const EmContext& ctx,
                               const ContextPatchInfo& info,
                               std::span<const NodeId> graph_dirty) {
  ProductGraph pg;
  // Node phase — Vp: every pair surviving in the maximum pairing relation
  // of some key at some candidate (paper §5.1). Start from the previous
  // node set and retire the contributions of candidates that are gone or
  // re-paired; dirty candidates bring the relations the plan's pairing
  // pass collected. Carried-over candidates keep theirs (reference counts
  // inherited unchanged). From an empty Gp every candidate is dirty.
  pg.nodes_ = prev.nodes_;
  pg.slots_ = prev.slots_;
  pg.node_refs_ = prev.node_refs_;
  const uint32_t prev_count = static_cast<uint32_t>(prev.nodes_.size());
  const std::vector<int64_t>& reuse = info.candidate_reuse;
  std::vector<int64_t> new_to_old(ctx.candidates().size(), -1);
  bool died = false;
  for (size_t i = 0; i < reuse.size(); ++i) {
    if (reuse[i] >= 0) {
      new_to_old[reuse[i]] = static_cast<int64_t>(i);
      continue;
    }
    for (uint64_t p : prev_ctx.relation(i)) {
      died |= --pg.node_refs_[pg.slots_[pg.Probe(p)]] == 0;
    }
  }
  for (uint32_t i = 0; i < new_to_old.size(); ++i) {
    if (new_to_old[i] >= 0) continue;
    for (uint64_t p : ctx.relation(i)) ProductGraph::AddNodeRef(pg, p);
  }
  // Compact away nodes no relation supports anymore (removals and
  // re-paired candidates shrink Vp), in place and in id order, keeping
  // the id maps the edge pass needs. Only a previous node can be dead.
  ProductGraph::NodeMap map;
  map.survivors = prev_count;
  if (died) {
    map.prev_to_new.resize(prev_count);
    uint32_t id = 0;
    for (uint32_t v = 0; v < pg.nodes_.size(); ++v) {
      const bool dead = pg.node_refs_[v] == 0;
      if (v < prev_count) {
        map.prev_to_new[v] = dead ? kNoPNode : id;
        if (!dead) map.new_to_prev.push_back(v);
      }
      if (dead) continue;
      pg.nodes_[id] = pg.nodes_[v];
      pg.node_refs_[id++] = pg.node_refs_[v];
    }
    map.survivors = static_cast<uint32_t>(map.new_to_prev.size());
    if (id < pg.nodes_.size()) {
      pg.nodes_.resize(id);
      pg.node_refs_.resize(id);
      pg.Rehash(pg.slots_.size());
    } else {
      map = ProductGraph::NodeMap{prev_count, {}, {}};
    }
  }

  ProductGraph::Finish(ctx, pg, prev, map, new_to_old, graph_dirty);
  return pg;
}

}  // namespace gkeys
