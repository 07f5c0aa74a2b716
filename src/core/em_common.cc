#include "core/em_common.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "common/parallel.h"
#include "common/timer.h"

#include "isomorph/pairing.h"
#include "isomorph/vf2.h"

namespace gkeys {

namespace {

// The patch constructor's node marks: the affected-region BFS, then the
// affected entities.
thread_local NodeMarks tl_patch_marks;

// The second buffer of ReachableValues and EntitiesReaching.
thread_local std::vector<NodeId> tl_walk_spare;

/// The nodes one `pred` edge away from `frontier` (along out-edges if
/// `forward`, else in-edges) that pattern node `pn` can stand for,
/// ascending and distinct: the values of a value variable, the node of a
/// constant, the entities of an entity node's type (x's included).
void Hop(const Graph& g, std::span<const NodeId> frontier, Symbol pred,
         bool forward, const CompiledNode& pn, std::vector<NodeId>& next) {
  next.clear();
  for (NodeId n : frontier) {
    // A finalized run is sorted by (pred, dst), without repeats.
    const std::span<const Edge> edges = forward ? g.Out(n) : g.In(n);
    auto [lo, hi] = std::equal_range(
        edges.begin(), edges.end(), Edge{pred, 0},
        [](const Edge& a, const Edge& b) { return a.pred < b.pred; });
    for (auto it = lo; it != hi; ++it) {
      const NodeId m = it->dst;
      const bool fits =
          pn.kind == VarKind::kValueVar   ? g.IsValue(m)
          : pn.kind == VarKind::kConstant ? m == pn.constant_node
                                          : g.IsEntity(m) &&
                                                g.entity_type(m) == pn.type;
      if (fits) next.push_back(m);
    }
  }
  if (frontier.size() > 1) {
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
  }
}

}  // namespace

std::string AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kNaiveChase: return "NaiveChase";
    case Algorithm::kEmMr: return "EMMR";
    case Algorithm::kEmVf2Mr: return "EMVF2MR";
    case Algorithm::kEmOptMr: return "EMOptMR";
    case Algorithm::kEmVc: return "EMVC";
    case Algorithm::kEmOptVc: return "EMOptVC";
  }
  return "?";
}

PlanOptions PlanOptions::For(Algorithm a, int p) {
  PlanOptions o;
  o.processors = p;
  // Pairing per §4.2 (EMOptMR) and §5.1 (Gp is built from pairing, so the
  // EMVC family too); the un-optimized EMMR baselines go without.
  o.use_pairing = a == Algorithm::kEmOptMr || a == Algorithm::kEmVc ||
                  a == Algorithm::kEmOptVc;
  // The naive chase enumerates exhaustively, so comparisons against it
  // exercise the blocked/unblocked equivalence.
  o.use_blocking = a != Algorithm::kNaiveChase;
  o.build_product_graph = a == Algorithm::kEmVc || a == Algorithm::kEmOptVc;
  return o;
}

EmOptions EmOptions::For(Algorithm a, int p) {
  EmOptions o;
  o.processors = p;
  switch (a) {
    case Algorithm::kNaiveChase:
    case Algorithm::kEmMr:
    case Algorithm::kEmVc:  // neither bounded messages nor prioritization
      break;
    case Algorithm::kEmVf2Mr:
      o.use_vf2 = true;
      break;
    case Algorithm::kEmOptMr:
      o.use_dependency = true;
      o.use_incremental = true;
      break;
    case Algorithm::kEmOptVc:
      o.bounded_messages = 4;  // the paper's k = 4
      o.prioritized = true;
      break;
  }
  return o;
}

void EmContext::CompileKeys(const EmContext* prev) {
  const Graph& g = *g_;
  const KeySet& keys = *keys_;
  compiled_.clear();
  compiled_.reserve(keys.count());
  keys_by_type_.clear();
  radius_by_type_.clear();
  std::vector<Symbol> types;
  types.reserve(keys.count());
  for (size_t i = 0; i < keys.count(); ++i) {
    const Key& k = keys.key(i);
    CompiledKey ck;
    ck.key = &k;
    ck.cp = Compile(k.pattern(), g);
    ck.tour = ComputeTour(ck.cp);
    types.push_back(ck.cp.nodes[ck.cp.designated].type);
    compiled_.push_back(std::move(ck));
  }
  // A type's list is created at its first key, so the map is filled in
  // key order (the key-map order the snapshot encoder reads).
  for (size_t i = 0; i < types.size(); ++i) {
    const Symbol t = types[i];
    if (t == kNoSymbol || keys_by_type_.contains(t)) continue;
    std::vector<int> list;
    int radius = 0;
    for (size_t j = i; j < types.size(); ++j) {
      if (types[j] != t) continue;
      list.push_back(static_cast<int>(j));
      radius = std::max(radius, keys.key(j).radius());
    }
    radius_by_type_[t] = radius;
    std::shared_ptr<const std::vector<int>>& slot = keys_by_type_[t];
    if (prev != nullptr) {
      auto it = prev->keys_by_type_.find(t);
      if (it != prev->keys_by_type_.end() && *it->second == list) {
        slot = it->second;
        continue;
      }
    }
    slot = std::make_shared<const std::vector<int>>(std::move(list));
  }
}

std::vector<NodeId> EmContext::EveryNode(const Graph& g) {
  std::vector<NodeId> nodes(g.NumNodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

EmContext::EmContext(const Graph& g, const KeySet& keys,
                     const PlanOptions& opts)
    : EmContext(EmContext(DeserializeShell{}, g, keys, opts), EveryNode(g),
                {}, nullptr) {}

EmContext::EmContext(DeserializeShell, const Graph& g, const KeySet& keys,
                     const PlanOptions& opts)
    : g_(&g), keys_(&keys), opts_(opts) {
  // Compiling the keys is cheap and deterministic; everything else is
  // filled by the patch constructor or by storage::PlanCodec.
  CompileKeys(nullptr);
}

/// All signature sources of `cp`: BFS over the pattern graph from the
/// designated variable; every value variable / graph-resolved constant
/// first reached contributes its (shortest) path.
std::vector<EmContext::SigSource> EmContext::FindSigSources(
    const CompiledPattern& cp) {
  const int n = static_cast<int>(cp.nodes.size());
  std::vector<int> parent(n, -1);
  std::vector<SigStep> parent_step(n);
  std::vector<int> order;
  std::vector<uint8_t> seen(n, 0);
  seen[cp.designated] = 1;
  order.push_back(cp.designated);
  for (size_t head = 0; head < order.size(); ++head) {
    int v = order[head];
    for (int t : cp.incident[v]) {
      const CompiledTriple& ct = cp.triples[t];
      int other = ct.subject == v ? ct.object : ct.subject;
      bool forward = ct.subject == v;
      if (other == v || seen[other]) continue;
      seen[other] = 1;
      parent[other] = v;
      parent_step[other] = SigStep{ct.pred, forward, other};
      order.push_back(other);
    }
  }
  std::vector<SigSource> sources;
  for (int v : order) {
    if (v == cp.designated) continue;
    const CompiledNode& pn = cp.nodes[v];
    bool is_value = pn.kind == VarKind::kValueVar;
    bool is_const =
        pn.kind == VarKind::kConstant && pn.constant_node != kNoNode;
    if (!is_value && !is_const) continue;
    SigSource src;
    src.constant = is_const ? pn.constant_node : kNoNode;
    for (int u = v; parent[u] != -1; u = parent[u]) {
      src.path.push_back(parent_step[u]);
    }
    std::reverse(src.path.begin(), src.path.end());
    sources.push_back(std::move(src));
  }
  return sources;
}

// Both walks fill `out` on their last hop and take turns with
// tl_walk_spare before it, so a walk allocates nothing once the two
// buffers have grown.

void EmContext::ReachableValues(NodeId e, const SigSource& src,
                                const CompiledPattern& cp,
                                std::vector<NodeId>& out) const {
  std::span<const NodeId> frontier(&e, 1);
  for (size_t i = 0; i < src.path.size(); ++i) {
    std::vector<NodeId>& next =
        (src.path.size() - i) % 2 == 1 ? out : tl_walk_spare;
    const SigStep& step = src.path[i];
    Hop(*g_, frontier, step.pred, step.forward, cp.nodes[step.to_node], next);
    frontier = next;
  }
}

void EmContext::EntitiesReaching(NodeId v, const SigSource& src,
                                 const CompiledPattern& cp,
                                 std::vector<NodeId>& out) const {
  std::span<const NodeId> frontier(&v, 1);
  for (size_t i = src.path.size(); i-- > 0;) {
    std::vector<NodeId>& next = i % 2 == 0 ? out : tl_walk_spare;
    // Step i retraced lands on the node step i - 1 reached, or on x.
    const int to = i > 0 ? src.path[i - 1].to_node : cp.designated;
    Hop(*g_, frontier, src.path[i].pred, !src.path[i].forward, cp.nodes[to],
        next);
    frontier = next;
  }
}

std::shared_ptr<const EmContext::SigIndex> EmContext::BuildSigIndex(
    const std::vector<int>& key_ids, std::span<const NodeId> entities) const {
  auto idx = std::make_shared<SigIndex>();
  // Signature sources per matchable key. A key that reaches no value
  // variable or constant from x pins nothing Eq-independent and makes
  // the whole type unblockable (full enumeration).
  for (int ki : key_ids) {
    const CompiledPattern& cp = compiled_[ki].cp;
    if (!cp.matchable) continue;  // can never fire: imposes nothing
    std::vector<SigSource> sources = FindSigSources(cp);
    if (sources.empty()) {
      idx->blockable = false;
      idx->keys.clear();
      return idx;  // purely variable-only key: full enumeration
    }
    // Pin the most selective source (fewest pairs sharing a value, the
    // first on a tie) per key; unioning one source per key over all keys
    // covers every directly identifiable pair. A source's pairs are
    // counted from the sorted list of the values every entity reaches.
    // (A constant terminal needs no extra filter — ReachableValues
    // already pins the last hop to the constant node.)
    size_t best = 0, best_pairs = SIZE_MAX;
    std::vector<NodeId> values, reached;
    for (size_t s = 0; sources.size() > 1 && s < sources.size(); ++s) {
      reached.clear();
      for (NodeId e : entities) {
        ReachableValues(e, sources[s], cp, values);
        reached.insert(reached.end(), values.begin(), values.end());
      }
      std::sort(reached.begin(), reached.end());
      size_t pairs = 0;
      for (size_t lo = 0, hi = 0; lo < reached.size(); lo = hi) {
        while (hi < reached.size() && reached[hi] == reached[lo]) ++hi;
        pairs += (hi - lo) * (hi - lo - 1) / 2;
      }
      if (pairs < best_pairs) {
        best_pairs = pairs;
        best = s;
      }
    }
    idx->keys.push_back(SigPerKey{ki, std::move(sources[best])});
  }
  // All keys unmatchable: blockable with no buckets — zero pairs, which
  // is exact (no pair of the type is identifiable).
  idx->blockable = true;
  return idx;
}

bool EmContext::SigIndexStillValid(const SigIndex& prev_idx,
                                   const std::vector<int>& key_ids) const {
  if (!prev_idx.blockable) {
    // Unblockable can only flip to blockable when a constant newly
    // resolves; re-checking is cheap and a flip forces a rebuild.
    for (int ki : key_ids) {
      const CompiledPattern& cp = compiled_[ki].cp;
      if (!cp.matchable) continue;
      if (FindSigSources(cp).empty()) return true;  // still unblockable
    }
    return false;
  }
  // The stored matchable key list must be unchanged, and every stored
  // choice must still be a source of its key (constants can newly
  // resolve, predicates can newly exist — either changes the sources).
  size_t at = 0;
  for (int ki : key_ids) {
    const CompiledPattern& cp = compiled_[ki].cp;
    if (!cp.matchable) continue;
    if (at >= prev_idx.keys.size() || prev_idx.keys[at].key != ki) {
      return false;
    }
    std::vector<SigSource> sources = FindSigSources(cp);
    if (std::find(sources.begin(), sources.end(),
                  prev_idx.keys[at].source) == sources.end()) {
      return false;
    }
    ++at;
  }
  return at == prev_idx.keys.size();
}

void EmContext::ScanDependencies(const Candidate& c,
                                 std::vector<uint64_t>& out) const {
  // Every same-type pair of keyed entities lying inside c's neighbors
  // (one per side, either orientation) whose type matches an entity
  // variable of a recursive key on c (§4.2) — whether or not the pair is
  // in L. Only keyed types matter: every Eq merge starts from a keyed
  // candidate, so pairs of unkeyed types can never become equal.
  const Graph& g = *g_;
  std::vector<Symbol> dep_types;
  for (int ki : *c.keys) {
    const CompiledPattern& cp = compiled_[ki].cp;
    for (const CompiledNode& n : cp.nodes) {
      if (n.kind == VarKind::kEntityVar) dep_types.push_back(n.type);
    }
  }
  if (dep_types.empty()) return;
  std::sort(dep_types.begin(), dep_types.end());
  dep_types.erase(std::unique(dep_types.begin(), dep_types.end()),
                  dep_types.end());
  const size_t start = out.size();
  auto scan_side = [&](const NodeSet& near, const NodeSet& far) {
    std::unordered_map<Symbol, std::vector<NodeId>> far_by_type;
    for (NodeId m : far) {
      if (!g.IsEntity(m)) continue;
      Symbol t = g.entity_type(m);
      if (std::binary_search(dep_types.begin(), dep_types.end(), t) &&
          keys_by_type_.contains(t)) {
        far_by_type[t].push_back(m);
      }
    }
    if (far_by_type.empty()) return;
    for (NodeId n : near) {
      if (!g.IsEntity(n)) continue;
      Symbol t = g.entity_type(n);
      if (!std::binary_search(dep_types.begin(), dep_types.end(), t)) {
        continue;
      }
      auto ft = far_by_type.find(t);
      if (ft == far_by_type.end()) continue;
      for (NodeId m : ft->second) {
        if (m == n) continue;
        out.push_back(PackPair(std::min(n, m), std::max(n, m)));
      }
    }
  };
  scan_side(*c.nbr1, *c.nbr2);
  scan_side(*c.nbr2, *c.nbr1);
  std::sort(out.begin() + start, out.end());
  out.erase(std::unique(out.begin() + start, out.end()), out.end());
}

void EmContext::BuildDependencyIndex(const EmContext& prev,
                                     std::span<const int64_t> old_to_new,
                                     std::span<const int64_t> new_to_old,
                                     std::span<const uint32_t> dirty) {
  const size_t n = candidates_.size();
  // Scan phase, recompiled candidates only: a carried candidate's balls,
  // keys and the keyed-type set are all unchanged, so its scan is copied
  // below instead of re-walked.
  std::vector<uint32_t> fresh;
  for (uint32_t j : dirty) {
    if (candidates_[j].has_recursive_key) fresh.push_back(j);
  }
  const int p = WorkersFor(fresh.size(), opts_.processors);
  std::vector<std::vector<uint64_t>> shard_scans(p);
  std::vector<size_t> fresh_size(fresh.size());
  ParallelShards(p, fresh.size(), [&](int shard, size_t begin, size_t end) {
    std::vector<uint64_t>& out = shard_scans[shard];
    for (size_t k = begin; k < end; ++k) {
      const size_t before = out.size();
      ScanDependencies(candidates_[fresh[k]], out);
      fresh_size[k] = out.size() - before;
    }
  });
  // Shards cover contiguous ranges of `fresh` in order, so their
  // concatenation lists the fresh scans in candidate order.
  std::vector<uint64_t> fresh_scans = std::move(shard_scans[0]);
  for (int t = 1; t < p; ++t) {
    fresh_scans.insert(fresh_scans.end(), shard_scans[t].begin(),
                       shard_scans[t].end());
  }

  // Assembly in candidate order. Source indices of carried candidates
  // ascend with j (both lists are sorted by pair), so a run of carried
  // candidates with consecutive sources is one range of prev's values.
  const Rows<uint64_t>& old = prev.depends_on_pairs_;
  Rows<uint64_t>& scans = depends_on_pairs_;
  scans.Clear();
  scans.offsets.reserve(n + 1);
  size_t total = fresh_scans.size();
  for (uint32_t j = 0; j < n; ++j) {
    if (new_to_old[j] >= 0) total += old[new_to_old[j]].size();
  }
  scans.values.reserve(total);
  size_t next_fresh = 0, fresh_at = 0;
  for (uint32_t j = 0; j < n;) {
    if (new_to_old[j] < 0) {
      if (next_fresh < fresh.size() && fresh[next_fresh] == j) {
        const auto from = fresh_scans.begin() + fresh_at;
        fresh_at += fresh_size[next_fresh++];
        scans.values.insert(scans.values.end(), from,
                            fresh_scans.begin() + fresh_at);
      }
      scans.CloseRow();
      ++j;
      continue;
    }
    uint32_t end = j + 1;
    while (end < n && new_to_old[end] == new_to_old[end - 1] + 1) ++end;
    const size_t first = old.offsets[new_to_old[j]];
    const size_t shift = scans.values.size() - first;
    for (uint32_t i = j; i < end; ++i) {
      scans.offsets.push_back(old.offsets[new_to_old[i] + 1] + shift);
    }
    scans.values.insert(
        scans.values.end(), old.values.begin() + first,
        old.values.begin() + old.offsets[new_to_old[end - 1] + 1]);
    j = end;
  }
  IndexDependencies(&prev, old_to_new, new_to_old, dirty);
}

void EmContext::IndexDependencies(const EmContext* prev,
                                  std::span<const int64_t> old_to_new,
                                  std::span<const int64_t> new_to_old,
                                  std::span<const uint32_t> dirty) {
  // Dependents of a pair are the candidates whose scans hold it (its own
  // candidate excluded): a row of dependents_ when the pair is in L, a
  // ghost row otherwise. prev's rows are right for every carried
  // candidate, whose scan is prev's, so the edit keeps them (through the
  // position maps), drops the entries of prev's uncarried candidates,
  // adds the dirty candidates' scans, and re-files a row whose pair
  // entered or left L. Deterministic given L and the scans, which is why
  // the snapshot keeps only the scans.
  const Rows<uint64_t> no_scans;
  const Rows<uint32_t> no_rows;
  const std::span<const Candidate> old_l =
      prev != nullptr ? std::span<const Candidate>(prev->candidates_)
                      : std::span<const Candidate>();
  const Rows<uint64_t>& old_scans =
      prev != nullptr ? prev->depends_on_pairs_ : no_scans;
  const Rows<uint32_t>& old_deps =
      prev != nullptr ? prev->dependents_ : no_rows;
  const std::span<const GhostPair> old_ghosts =
      prev != nullptr ? std::span<const GhostPair>(prev->ghosts_)
                      : std::span<const GhostPair>();
  const Rows<uint32_t>& old_gdeps =
      prev != nullptr ? prev->ghost_dependents_ : no_rows;
  const size_t n = candidates_.size();
  const size_t n_old = old_l.size();
  auto packed = [](const Candidate& c) { return PackPair(c.e1, c.e2); };
  auto ghost_packed = [](const GhostPair& gp) {
    return PackPair(gp.e1, gp.e2);
  };
  // Index of pair `p` in a list sorted by pair, or -1. L is sorted in
  // PackPair order, so membership is a binary search, no hash map.
  auto find = [&](auto list, uint64_t p, auto key) -> int64_t {
    auto it = std::lower_bound(
        list.begin(), list.end(), p,
        [&](const auto& item, uint64_t v) { return key(item) < v; });
    if (it == list.end() || key(*it) != p) return -1;
    return it - list.begin();
  };
  auto in_l = [&](uint64_t p) {
    return find(std::span<const Candidate>(candidates_), p, packed);
  };
  auto in_old_l = [&](uint64_t p) { return find(old_l, p, packed); };
  auto old_ghost = [&](uint64_t p) {
    return find(old_ghosts, p, ghost_packed);
  };

  // prev's uncarried candidates: their entries leave the rows of the
  // pairs their old scans hold, which must be filtered. A pair that left
  // L files its row as a ghost.
  bool moved = false;
  std::vector<uint32_t> filter_rows, filter_ghosts, left;
  for (uint32_t j = 0; j < n_old; ++j) {
    if (old_to_new[j] >= 0) {
      moved |= old_to_new[j] != j;
      continue;
    }
    const uint64_t self = packed(old_l[j]);
    if (in_l(self) < 0) left.push_back(j);
    for (uint64_t p : old_scans[j]) {
      if (p == self) continue;
      if (const int64_t i = in_old_l(p); i >= 0) {
        filter_rows.push_back(static_cast<uint32_t>(i));
      } else if (const int64_t gh = old_ghost(p); gh >= 0) {
        filter_ghosts.push_back(static_cast<uint32_t>(gh));
      }
    }
  }
  auto sort_unique = [](std::vector<uint32_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  sort_unique(filter_ghosts);
  // The dirty candidates' entries: (row << 32 | candidate) for pairs in
  // L, (pair, candidate) for the rest. Generated in candidate order.
  std::vector<uint64_t> add_rows;
  std::vector<std::pair<uint64_t, uint32_t>> add_ghosts;
  for (uint32_t k : dirty) {
    const uint64_t self = packed(candidates_[k]);
    for (uint64_t p : depends_on_pairs_[k]) {
      if (p == self) continue;
      if (const int64_t i = in_l(p); i >= 0) {
        add_rows.push_back((static_cast<uint64_t>(i) << 32) | k);
      } else {
        add_ghosts.emplace_back(p, k);
      }
    }
  }
  // Grouped by row, each row's candidates ascending.
  GroupByRow(add_rows, n, [](uint64_t e) { return e >> 32; });
  std::sort(add_ghosts.begin(), add_ghosts.end());

  // Rows assembled one by one: the dirty ones, the ones that gain an
  // entry, and carried rows that lose one. Every other row is a carried
  // row with carried entries only: runs of them are block-copied.
  std::vector<uint32_t> gained, lost, edited;
  for (uint64_t e : add_rows) {
    const auto row = static_cast<uint32_t>(e >> 32);
    if (gained.empty() || gained.back() != row) gained.push_back(row);
  }
  for (uint32_t i : filter_rows) {
    if (old_to_new[i] >= 0) {
      lost.push_back(static_cast<uint32_t>(old_to_new[i]));
    }
  }
  sort_unique(lost);
  std::set_union(dirty.begin(), dirty.end(), gained.begin(), gained.end(),
                 std::back_inserter(edited));
  gained.clear();
  std::set_union(edited.begin(), edited.end(), lost.begin(), lost.end(),
                 std::back_inserter(gained));
  edited.swap(gained);

  // Appends row `src`'s carried entries, mapped to new positions, merged
  // with the dirty entries [add, add_end) (ascending, disjoint from them).
  auto merge_row = [&](std::span<const uint32_t> src, auto add, auto add_end,
                       auto value_of, std::vector<uint32_t>& out) {
    for (uint32_t j : src) {
      const int64_t to = old_to_new[j];
      if (to < 0) continue;
      for (; add != add_end && value_of(*add) < to; ++add) {
        out.push_back(value_of(*add));
      }
      out.push_back(static_cast<uint32_t>(to));
    }
    for (; add != add_end; ++add) out.push_back(value_of(*add));
  };
  // Appends old rows [o_begin, o_end) of `from` to `to` as one block.
  auto copy_rows = [&](const Rows<uint32_t>& from, size_t o_begin, size_t o_end,
                       Rows<uint32_t>& to) {
    const size_t first = from.offsets[o_begin];
    const size_t shift = to.values.size() - first;
    for (size_t o = o_begin + 1; o <= o_end; ++o) {
      to.offsets.push_back(from.offsets[o] + shift);
    }
    const auto b = from.values.begin() + first;
    const auto e = from.values.begin() + from.offsets[o_end];
    if (!moved) {
      to.values.insert(to.values.end(), b, e);
    } else {
      for (auto v = b; v != e; ++v) {
        to.values.push_back(static_cast<uint32_t>(old_to_new[*v]));
      }
    }
  };

  Rows<uint32_t> deps;
  deps.Reserve(n, old_deps.values.size() + add_rows.size());
  std::vector<uint32_t> consumed;  // old ghosts whose pair entered L
  auto row_value = [](uint64_t e) { return static_cast<uint32_t>(e); };
  size_t a = 0, next_edit = 0;
  for (size_t i = 0; i < n;) {
    const size_t stop = next_edit < edited.size() ? edited[next_edit] : n;
    if (i == stop) {
      std::span<const uint32_t> src;
      if (new_to_old[i] >= 0) {
        src = old_deps[new_to_old[i]];
      } else if (const int64_t o = in_old_l(packed(candidates_[i])); o >= 0) {
        src = old_deps[o];
      } else if (const int64_t gh = old_ghost(packed(candidates_[i]));
                 gh >= 0) {
        src = old_gdeps[gh];
        consumed.push_back(static_cast<uint32_t>(gh));
      }
      size_t a_end = a;
      while (a_end < add_rows.size() && (add_rows[a_end] >> 32) == i) ++a_end;
      merge_row(src, add_rows.begin() + a, add_rows.begin() + a_end,
                row_value, deps.values);
      deps.CloseRow();
      a = a_end;
      ++next_edit;
      ++i;
      continue;
    }
    size_t end = i + 1;
    while (end < stop && new_to_old[end] == new_to_old[end - 1] + 1) ++end;
    copy_rows(old_deps, new_to_old[i], new_to_old[end - 1] + 1, deps);
    i = end;
  }

  // Ghosts: one merge by pair over prev's ghosts (minus those that
  // entered L), the pairs that left L, and the dirty entries' ghost
  // pairs. A ghost keeps its row only while some candidate depends on it.
  std::vector<GhostPair> ghosts;
  Rows<uint32_t> gdeps;
  gdeps.values.reserve(old_gdeps.values.size() + add_ghosts.size());
  auto ghost_value = [](const std::pair<uint64_t, uint32_t>& e) {
    return e.second;
  };
  std::vector<uint32_t> row;
  size_t g = 0, lv = 0, ad = 0, fg = 0, cg = 0;
  while (g < old_ghosts.size() || lv < left.size() || ad < add_ghosts.size()) {
    constexpr uint64_t kEnd = UINT64_MAX;
    const uint64_t pg =
        g < old_ghosts.size() ? ghost_packed(old_ghosts[g]) : kEnd;
    const uint64_t pl = lv < left.size() ? packed(old_l[left[lv]]) : kEnd;
    const uint64_t pa = ad < add_ghosts.size() ? add_ghosts[ad].first : kEnd;
    const uint64_t next_filter =
        fg < filter_ghosts.size() ? filter_ghosts[fg] : kEnd;
    const uint64_t next_consumed = cg < consumed.size() ? consumed[cg] : kEnd;
    if (pg < pl && pg < pa && g != next_filter && g != next_consumed) {
      // A run of prev's ghosts that no entry joins or leaves.
      size_t end = g + 1;
      const uint64_t bound = std::min(pl, pa);
      while (end < old_ghosts.size() && end < next_filter &&
             end < next_consumed && ghost_packed(old_ghosts[end]) < bound) {
        ++end;
      }
      ghosts.insert(ghosts.end(), old_ghosts.begin() + g,
                    old_ghosts.begin() + end);
      copy_rows(old_gdeps, g, end, gdeps);
      g = end;
      continue;
    }
    const uint64_t p = std::min({pg, pl, pa});
    std::span<const uint32_t> src;
    if (p == pg) {
      const bool entered = g == next_consumed;
      fg += g == next_filter;
      cg += entered;
      src = old_gdeps[g++];
      if (entered) continue;  // its row moved to dependents_
    } else if (p == pl) {
      src = old_deps[left[lv++]];
    }
    size_t ad_end = ad;
    while (ad_end < add_ghosts.size() && add_ghosts[ad_end].first == p) {
      ++ad_end;
    }
    row.clear();
    merge_row(src, add_ghosts.begin() + ad, add_ghosts.begin() + ad_end,
              ghost_value, row);
    ad = ad_end;
    if (row.empty()) continue;
    ghosts.push_back(GhostPair{static_cast<NodeId>(p >> 32),
                               static_cast<NodeId>(p & 0xffffffffu)});
    gdeps.AddRow(row);
  }
  dependents_ = std::move(deps);
  ghosts_ = std::move(ghosts);
  ghost_dependents_ = std::move(gdeps);
}

EmContext::EmContext(
    const EmContext& prev, std::span<const NodeId> dirty_nodes,
    std::span<const std::pair<NodeId, NodeId>> delta_triples,
    ContextPatchInfo* info, bool collect_relations)
    : g_(prev.g_), keys_(prev.keys_), opts_(prev.opts_) {
  const Graph& g = *g_;
  // Parallel phases below run inline unless the affected region is big
  // enough to pay for the threads.
  auto workers = [this](size_t work) {
    return WorkersFor(work, opts_.processors);
  };
  Timer section;

  // Keys are recompiled outright (|Σ| patterns — negligible): a constant
  // or predicate the delta introduced can newly resolve, flipping
  // cp.matchable. Any NEW match such a flip enables must use a delta
  // triple with both ends in the entity's ball, which makes the entity
  // affected (below), so the per-type reuse below stays sound.
  CompileKeys(&prev);
  if (info != nullptr) info->keys_seconds = section.Seconds();
  section.Reset();

  // Affected region. A key decides (e1, e2) only inside Gd(e1) and
  // Gd(e2) (§4.1), so a delta changes an entity's plan state only by
  // changing the subgraph its d-ball induces (d = its type's radius).
  // With depth an entity's distance from the nearest dirty node in the
  // POST-delta graph, a keyed entity is affected at depth < d, clean at
  // depth > d, and at depth == d affected only when its stored
  // d-neighbor set holds both ends of one delta triple, or it has none
  // (it is new). At depth d no path of length <= d, old or new, crosses
  // a delta triple: the prefix up to the triple's nearer end survives
  // and would put a dirty node within d - 1. So the ball keeps its nodes
  // and their distances, and only a triple between two of its nodes,
  // both at distance d, can change. Pairing, the dependency scan, the
  // signature walk and the checks read nothing else of the graph.
  // One multi-source BFS to the maximum radius finds the depths. Each
  // node carries the sides it is reached from at its depth: a triple's
  // subject starts with the first side, its object with the second, any
  // other dirty node (a new node without triples; every node on a
  // compile) with the first, and a node at depth k + 1 takes the sides
  // of its neighbours at depth k. So a node holds a side iff that side's
  // seeds are no farther from it than the nearest dirty node. A stored
  // set can hold both ends of a triple only when its entity holds both
  // sides at depth d, so only those sets are looked up, and a lookup
  // walks the set, not the delta. The marks sit in this thread's
  // scratch, which the pass clears again: the BFS costs the ball, not
  // NumNodes().
  int dmax = 0;
  for (const auto& [type, r] : radius_by_type_) dmax = std::max(dmax, r);
  NodeMarks::Pass marks(tl_patch_marks, g.NumNodes());
  // A mark holds the sides (bits 1 and 2), 4 on a triple's subject, and
  // 8 until the node's level is classified.
  std::vector<std::pair<NodeId, NodeId>> by_subject(delta_triples.begin(),
                                                    delta_triples.end());
  std::sort(by_subject.begin(), by_subject.end());
  for (const auto& [s, o] : by_subject) {
    marks.Set(s, marks[s] | 1 | 4 | 8);
    marks.Set(o, marks[o] | 2 | 8);
  }
  // Level 0 in node-id order (the dirty nodes include every triple end).
  std::vector<NodeId> level, next;
  for (NodeId n : dirty_nodes) {
    if (n >= g.NumNodes()) continue;
    if (marks[n] == 0) marks.Set(n, 1 | 8);
    next.push_back(n);
  }
  // Whether e is new or its stored set holds both ends of a triple.
  auto rim_touched = [&](NodeId e) {
    const NodeSet* ball =
        e < prev.dneighbors_.size() ? prev.dneighbors_[e].get() : nullptr;
    if (ball == nullptr) return true;
    if ((marks[e] & 3) != 3) return false;
    for (NodeId n : *ball) {
      if ((marks[n] & 4) == 0) continue;
      for (auto t = std::lower_bound(by_subject.begin(), by_subject.end(),
                                     std::pair<NodeId, NodeId>(n, 0));
           t != by_subject.end() && t->first == n; ++t) {
        if (ball->Contains(t->second)) return true;
      }
    }
    return false;
  };
  std::vector<NodeId> affected_list;
  size_t classified = 0;
  for (int depth = 0; !next.empty(); ++depth) {
    level.swap(next);
    next.clear();
    for (NodeId n : level) {
      marks.Set(n, marks[n] & 7);
      if (!g.IsEntity(n)) continue;
      auto r = radius_by_type_.find(g.entity_type(n));
      if (r != radius_by_type_.end() &&
          (depth < r->second || (depth == r->second && rim_touched(n)))) {
        affected_list.push_back(n);
      }
    }
    // Past dmax, or with every node classified (a compile), no later
    // level can hold an affected entity.
    classified += level.size();
    if (depth == dmax || classified == g.NumNodes()) break;
    for (NodeId n : level) {
      const uint8_t sides = marks[n] & 3;
      auto visit = [&](NodeId m) {
        if (marks[m] == 0) {
          next.push_back(m);
          marks.Set(m, sides | 8);
        } else if (marks[m] & 8) {
          marks.Set(m, marks[m] | sides);
        }
      };
      for (const Edge& e : g.Out(n)) visit(e.dst);
      for (const Edge& e : g.In(n)) visit(e.dst);
    }
  }
  std::sort(affected_list.begin(), affected_list.end());
  // From here on a mark means "affected".
  marks.Reset();
  for (NodeId e : affected_list) marks.Set(e, 1);
  auto affected = [&marks](NodeId e) { return marks[e] != 0; };
  std::unordered_map<Symbol, std::vector<NodeId>> affected_by_type;
  for (NodeId e : affected_list) {
    affected_by_type[g.entity_type(e)].push_back(e);
  }
  // A type whose pinned signature sources the delta invalidates (a key's
  // constant or predicate newly resolves) recompiles as a compile would:
  // every entity of it is affected, so its sources are chosen again and
  // the type enumerated in full, with no candidate of it carried. A
  // clean pair paired again on the same d-neighbors gets the same
  // verdict, so L is the same. On a compile no type has sources and
  // every entity is affected already. Phase B' reads `valid_sig` for the
  // verdict.
  std::unordered_map<Symbol, std::shared_ptr<const SigIndex>> valid_sig;
  if (opts_.use_blocking) {
    bool grew = false;
    for (auto& [type, list] : affected_by_type) {
      auto it = prev.sig_index_.find(type);
      if (it != prev.sig_index_.end() &&
          SigIndexStillValid(*it->second, *keys_by_type_.at(type))) {
        valid_sig.emplace(type, it->second);
        continue;
      }
      auto entities = g.EntitiesOfType(type);
      if (list.size() == entities.size()) continue;
      for (NodeId e : entities) {
        if (!affected(e)) affected_list.push_back(e);
        marks.Set(e, 1);
      }
      list.assign(entities.begin(), entities.end());
      grew = true;
    }
    if (grew) std::sort(affected_list.begin(), affected_list.end());
  }
  if (info != nullptr) info->affected_seconds = section.Seconds();
  section.Reset();

  // Phase A': d-neighbor table. It shares every chunk of the previous
  // context; the chunks holding an affected entity are cloned and get
  // its recomputed set. Affected includes every keyed entity the delta
  // added, and a compile's every keyed entity. The sets are computed
  // type by type in key-map order, the order the snapshot encoder reads
  // them in, so a compile lays their payloads out in it.
  std::vector<std::pair<NodeId, std::shared_ptr<const NodeSet>>> fresh;
  fresh.reserve(affected_list.size());
  for (const auto& [type, key_ids] : keys_by_type_) {
    auto it = affected_by_type.find(type);
    if (it == affected_by_type.end()) continue;
    for (NodeId e : it->second) fresh.emplace_back(e, nullptr);
  }
  ParallelFor(workers(fresh.size()), fresh.size(), [&](size_t i) {
    const NodeId e = fresh[i].first;
    fresh[i].second = std::make_shared<const NodeSet>(
        DNeighbor(g, e, radius_by_type_.find(g.entity_type(e))->second));
  });
  neighbor_nodes_ = prev.neighbor_nodes_;
  neighbor_entities_ = prev.neighbor_entities_;
  for (const auto& [e, set] : fresh) {
    const NodeSet* old =
        e < prev.dneighbors_.size() ? prev.dneighbors_[e].get() : nullptr;
    if (old != nullptr) {
      neighbor_nodes_ -= old->size();
    } else {
      ++neighbor_entities_;
    }
    neighbor_nodes_ += set->size();
  }
  dneighbors_ = prev.dneighbors_;
  dneighbors_.Write(g.NumNodes(), std::move(fresh));
  if (info != nullptr) info->dneighbor_seconds = section.Seconds();
  section.Reset();

  // Phase B': enumerate, per type, only the pairs INVOLVING an affected
  // entity, a pair of two affected entities from its smaller end. Pairs
  // of two untouched entities are not enumerated: the merge below
  // carries them from the previous L (their bucket memberships, pairing
  // verdicts, and reduced sets cannot have changed). A blockable type
  // pairs an affected entity with its bucket partners: per matchable
  // key, the entities reaching a value it reaches along the key's pinned
  // source (EntitiesReaching walks the source backwards over the graph).
  // The source choice per key is pinned (any single source per key is
  // an output-preserving filter), so a patched plan's L can differ from
  // a from-scratch compile's L without changing chase(G, Σ); with one
  // source per key it cannot. A type with no valid index has every
  // entity affected (above): it chooses its sources and is enumerated in
  // full, as every type is on a compile.
  struct RawPair {
    NodeId e1, e2;
    const std::vector<int>* keys;
    bool recursive, value_based;
  };
  std::vector<RawPair> raw;
  // Per blockable type enumerated in full: its key list, its pair count.
  std::vector<std::pair<const std::vector<int>*, size_t>> full_types;
  std::vector<NodeId> values, members;  // one walk's output each
  for (const auto& [type, key_list] : keys_by_type_) {
    const std::vector<int>& key_ids = *key_list;
    auto entities = g.EntitiesOfType(type);
    bool recursive = false, value_based = false;
    for (int ki : key_ids) {
      if (compiled_[ki].key->recursive()) {
        recursive = true;
      } else {
        value_based = true;
      }
    }
    std::span<const NodeId> affected_here;
    if (auto it = affected_by_type.find(type); it != affected_by_type.end()) {
      affected_here = it->second;
    }
    if (affected_here.empty()) {
      // Entirely clean type: every candidate is carried, and the
      // signature sources are shared.
      auto sig_it = prev.sig_index_.find(type);
      if (sig_it != prev.sig_index_.end()) sig_index_[type] = sig_it->second;
      continue;
    }
    std::shared_ptr<const SigIndex> sig;
    bool chosen_here = false;
    if (opts_.use_blocking) {
      if (auto kept = valid_sig.find(type); kept != valid_sig.end()) {
        sig = kept->second;
      } else {
        sig = BuildSigIndex(key_ids, entities);
        chosen_here = true;
      }
      sig_index_[type] = sig;
    }
    // Whether pair (a, b), a affected, is emitted from a.
    auto from = [&](NodeId a, NodeId b) {
      return b != a && (a < b || !affected(b));
    };
    auto emit = [&](NodeId a, NodeId b) {
      raw.push_back(RawPair{std::min(a, b), std::max(a, b), &key_ids,
                            recursive, value_based});
    };
    if (sig == nullptr || !sig->blockable) {
      // No blocking (or unblockable): affected × all pairs are dirty,
      // clean × clean pairs are carried. (With pairing but no blocking, a
      // clean pair the pairing filter dropped before is re-checked only
      // if it involves an affected entity — clean dropped pairs stay
      // dropped because nothing in their balls moved.)
      for (NodeId a : affected_here) {
        for (NodeId b : entities) {
          if (from(a, b)) emit(a, b);
        }
      }
      continue;
    }
    for (NodeId a : affected_here) {
      for (const SigPerKey& pk : sig->keys) {
        const CompiledPattern& cp = compiled_[pk.key].cp;
        ReachableValues(a, pk.source, cp, values);
        for (NodeId v : values) {
          EntitiesReaching(v, pk.source, cp, members);
          for (NodeId b : members) {
            if (from(a, b)) emit(a, b);
          }
        }
      }
    }
    if (chosen_here) {
      full_types.emplace_back(&key_ids,
                              entities.size() * (entities.size() - 1) / 2);
    }
  }
  // A pair sharing several values or keys was emitted once for each.
  std::sort(raw.begin(), raw.end(), [](const RawPair& a, const RawPair& b) {
    return std::tie(a.e1, a.e2) < std::tie(b.e1, b.e2);
  });
  raw.erase(std::unique(raw.begin(), raw.end(),
                        [](const RawPair& a, const RawPair& b) {
                          return a.e1 == b.e1 && a.e2 == b.e2;
                        }),
            raw.end());
  // A full enumeration is the one place the pairs blocking keeps out can
  // be counted: a fully enumerated type's pairs less its distinct pairs
  // in `raw`, the ones holding its key list.
  for (size_t i = 0; !full_types.empty() && i < raw.size(); ++i) {
    for (auto& [keys, blocked] : full_types) blocked -= raw[i].keys == keys;
  }
  for (const auto& [keys, blocked] : full_types) {
    candidates_blocked_ += blocked;
  }
  // The position map, first as "carried or not": a previous candidate
  // is carried unless it has an affected endpoint. No carried pair is in
  // `raw`.
  const std::vector<Candidate>& old_l = prev.candidates_;
  std::vector<int64_t> old_to_new(old_l.size(), 0);
  size_t carried = old_l.size();
  for (size_t i = 0; i < old_l.size(); ++i) {
    if (affected(old_l[i].e1) || affected(old_l[i].e2)) {
      old_to_new[i] = -1;
      --carried;
    }
  }
  candidates_initial_ = carried + raw.size();

  if (info != nullptr) info->enumerate_seconds = section.Seconds();
  section.Reset();

  // Phase C': pairing fixpoint only for the dirty pairs. A plan that
  // builds Gp also keeps each dirty pair's union-over-keys relation here,
  // and pairs even without use_pairing (which then drops no pair).
  struct Reduction {
    bool keep = true;
    NodeSet r1, r2;
    std::shared_ptr<const PairingRelation> relation;
  };
  const bool pair_dirty = opts_.use_pairing || collect_relations;
  std::vector<Reduction> reductions(pair_dirty ? raw.size() : 0);
  if (pair_dirty) {
    const int pc = workers(raw.size());
    std::vector<PairingScratch> scratches(pc);
    ParallelShards(pc, raw.size(), [&](int shard, size_t begin, size_t end) {
      PairingScratch& scratch = scratches[shard];
      for (size_t i = begin; i < end; ++i) {
        const RawPair& rp = raw[i];
        const NodeSet& n1 = DNbr(rp.e1);
        const NodeSet& n2 = DNbr(rp.e2);
        Reduction& red = reductions[i];
        red.keep = false;
        PairingRelation relation;
        for (int ki : *rp.keys) {
          PairingResult pr =
              ComputeMaxPairing(g, compiled_[ki].cp, rp.e1, rp.e2, n1, n2,
                                collect_relations, &scratch);
          if (!pr.paired) continue;
          red.keep = true;
          if (opts_.use_pairing) {
            red.r1.UnionWith(pr.reduced1);
            red.r2.UnionWith(pr.reduced2);
          }
          if (collect_relations) {
            relation.insert(relation.end(), pr.pairs.begin(), pr.pairs.end());
            relation.push_back(PackPair(rp.e1, rp.e2));
          }
        }
        if (collect_relations) {
          std::sort(relation.begin(), relation.end());
          relation.erase(std::unique(relation.begin(), relation.end()),
                         relation.end());
          red.relation =
              std::make_shared<const PairingRelation>(std::move(relation));
        }
      }
    });
  }

  if (info != nullptr) info->pairing_seconds = section.Seconds();
  section.Reset();

  // Assembly: one linear merge of the previous L's carried runs (each a
  // block copy) with the enumerated pairs, in (e1, e2) order as in a full
  // compile. It completes the position maps. Dirty pairs the pairing
  // filter drops leave no candidate.
  candidates_.reserve(candidates_initial_);
  std::vector<int64_t> new_to_old;
  new_to_old.reserve(candidates_initial_);
  std::vector<uint32_t> dirty_candidates;
  std::vector<PairingOutput> outputs;  // the dirty candidates', in order
  size_t next_old = 0;
  for (size_t r = 0; r <= raw.size(); ++r) {
    const uint64_t bound =
        r < raw.size() ? PackPair(raw[r].e1, raw[r].e2) : UINT64_MAX;
    while (next_old < old_l.size() &&
           PackPair(old_l[next_old].e1, old_l[next_old].e2) < bound) {
      if (old_to_new[next_old] < 0) {
        ++next_old;
        continue;
      }
      size_t end = next_old + 1;
      while (end < old_l.size() && old_to_new[end] >= 0 &&
             PackPair(old_l[end].e1, old_l[end].e2) < bound) {
        ++end;
      }
      for (size_t i = next_old; i < end; ++i) {
        old_to_new[i] = static_cast<int64_t>(candidates_.size() + i - next_old);
        new_to_old.push_back(static_cast<int64_t>(i));
      }
      candidates_.insert(candidates_.end(), old_l.begin() + next_old,
                         old_l.begin() + end);
      next_old = end;
    }
    if (r == raw.size()) break;
    const RawPair& rp = raw[r];
    Candidate c;
    c.e1 = rp.e1;
    c.e2 = rp.e2;
    c.keys = rp.keys;
    c.has_recursive_key = rp.recursive;
    c.has_value_based_key = rp.value_based;
    c.nbr1 = &DNbr(rp.e1);
    c.nbr2 = &DNbr(rp.e2);
    if (pair_dirty) {
      Reduction& red = reductions[r];
      if (opts_.use_pairing && !red.keep) continue;
      PairingOutput out{nullptr, nullptr, std::move(red.relation)};
      if (opts_.use_pairing) {
        neighbor_nodes_reduced_ += red.r1.size() + red.r2.size();
        out.r1 = std::make_shared<const NodeSet>(std::move(red.r1));
        out.r2 = std::make_shared<const NodeSet>(std::move(red.r2));
        c.nbr1 = out.r1.get();
        c.nbr2 = out.r2.get();
      }
      outputs.push_back(std::move(out));
    }
    dirty_candidates.push_back(static_cast<uint32_t>(candidates_.size()));
    new_to_old.push_back(-1);
    candidates_.push_back(c);
  }
  if (pair_dirty) {
    if (opts_.use_pairing) {
      // Σ of the reduced sets, by difference: the dirty candidates' sets
      // were added above; the uncarried previous candidates' go.
      neighbor_nodes_reduced_ += prev.neighbor_nodes_reduced_;
      for (size_t i = 0; i < old_l.size(); ++i) {
        if (old_to_new[i] < 0) {
          neighbor_nodes_reduced_ -=
              prev.pairing_[i].r1->size() + prev.pairing_[i].r2->size();
        }
      }
    }
    pairing_ = ChunkTable<PairingOutput>::Remap(prev.pairing_, new_to_old,
                                                std::move(outputs));
  }

  // The dependency index and ghosts are candidate-index-relative: copy
  // the carried candidates' scans, scan the dirty ones, and edit prev's
  // index through the position maps.
  BuildDependencyIndex(prev, old_to_new, new_to_old, dirty_candidates);
  if (info != nullptr) info->depindex_seconds = section.Seconds();

  if (info != nullptr) {
    info->affected_entities = std::move(affected_list);
    info->dirty_candidates = std::move(dirty_candidates);
    info->candidate_reuse = std::move(old_to_new);
  }
}

size_t EmContext::MemoryBytes() const {
  auto set_bytes = [](const std::shared_ptr<const NodeSet>& s) {
    return s != nullptr ? sizeof(NodeSet) + s->MemoryBytes() : 0;
  };
  return candidates_.capacity() * sizeof(Candidate) +
         compiled_.capacity() * sizeof(CompiledKey) +
         dneighbors_.MemoryBytes(set_bytes) +
         pairing_.MemoryBytes([&](const PairingOutput& out) {
           return set_bytes(out.r1) + set_bytes(out.r2) +
                  (out.relation != nullptr
                       ? out.relation->capacity() * sizeof(uint64_t)
                       : 0);
         }) +
         depends_on_pairs_.MemoryBytes() + dependents_.MemoryBytes() +
         ghosts_.capacity() * sizeof(GhostPair) +
         ghost_dependents_.MemoryBytes();
}

void ProvenanceIndex::Append(const Derivation& d) {
  heads.push_back(Head{d.e1, d.e2, d.key});
  premises.AddRow(d.premises);
  triples.AddRow(d.triples);
}

void ProvenanceIndex::Append(const ProvenanceIndex& from, size_t i) {
  heads.push_back(from.heads[i]);
  premises.AddRow(from.premises[i]);
  triples.AddRow(from.triples[i]);
}

void ProvenanceIndex::Append(const ProvenanceIndex& from) {
  heads.insert(heads.end(), from.heads.begin(), from.heads.end());
  premises.AddRows(from.premises);
  triples.AddRows(from.triples);
}

void ProvenanceIndex::Reserve(size_t entries, size_t num_premises,
                              size_t num_triples) {
  heads.reserve(heads.size() + entries);
  premises.Reserve(entries, num_premises);
  triples.Reserve(entries, num_triples);
}

size_t ProvenanceIndexBytes(const ProvenanceIndex& derivations) {
  return derivations.heads.capacity() * sizeof(ProvenanceIndex::Head) +
         derivations.premises.MemoryBytes() +
         derivations.triples.MemoryBytes();
}

bool EmContext::IdentifiesWitness(const Candidate& c, const EqView& eq,
                                  int* key_out, Witness* witness,
                                  SearchStats* stats, bool unrestricted,
                                  bool use_vf2) const {
  const NodeSet* n1 = unrestricted ? nullptr : c.nbr1;
  const NodeSet* n2 = unrestricted ? nullptr : c.nbr2;
  for (int ki : *c.keys) {
    const CompiledPattern& cp = compiled_[ki].cp;
    bool found = use_vf2
                     ? IdentifiesByEnumeration(*g_, cp, c.e1, c.e2, eq, n1,
                                               n2, stats, witness)
                     : KeyIdentifiesWitness(*g_, cp, c.e1, c.e2, eq, n1, n2,
                                            witness, stats);
    if (found) {
      *key_out = ki;
      return true;
    }
  }
  return false;
}

Derivation EmContext::MakeDerivation(const Candidate& c, int key,
                                     const Witness& witness) const {
  const CompiledPattern& cp = compiled_[key].cp;
  Derivation d;
  d.e1 = std::min(c.e1, c.e2);
  d.e2 = std::max(c.e1, c.e2);
  d.key = key;
  for (size_t v = 0; v < cp.nodes.size(); ++v) {
    if (static_cast<int>(v) == cp.designated) continue;
    if (cp.nodes[v].kind != VarKind::kEntityVar) continue;
    auto [a, b] = witness[v];
    if (a == kNoNode || b == kNoNode || a == b) continue;
    d.premises.emplace_back(std::min(a, b), std::max(a, b));
  }
  for (const CompiledTriple& ct : cp.triples) {
    auto [s1, s2] = witness[ct.subject];
    auto [o1, o2] = witness[ct.object];
    if (s1 == kNoNode || o1 == kNoNode) continue;
    d.triples.push_back(WitnessTriple{s1, ct.pred, o1});
    if (s2 != kNoNode && o2 != kNoNode && (s2 != s1 || o2 != o1)) {
      d.triples.push_back(WitnessTriple{s2, ct.pred, o2});
    }
  }
  std::sort(d.premises.begin(), d.premises.end());
  d.premises.erase(std::unique(d.premises.begin(), d.premises.end()),
                   d.premises.end());
  std::sort(d.triples.begin(), d.triples.end());
  d.triples.erase(std::unique(d.triples.begin(), d.triples.end()),
                  d.triples.end());
  return d;
}

}  // namespace gkeys
