#include "core/em_common.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <unordered_set>

#include "common/parallel.h"
#include "common/timer.h"

#include "isomorph/pairing.h"
#include "isomorph/vf2.h"

namespace gkeys {

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

void EmContext::CompileKeys() {
  const Graph& g = *g_;
  const KeySet& keys = *keys_;
  compiled_.clear();
  compiled_.reserve(keys.count());
  keys_by_type_.clear();
  radius_by_type_.clear();
  for (size_t i = 0; i < keys.count(); ++i) {
    const Key& k = keys.key(i);
    CompiledKey ck;
    ck.key = &k;
    ck.cp = Compile(k.pattern(), g);
    ck.tour = ComputeTour(ck.cp);
    Symbol t = ck.cp.nodes[ck.cp.designated].type;
    if (t != kNoSymbol) {
      keys_by_type_[t].push_back(static_cast<int>(i));
      int& r = radius_by_type_[t];
      r = std::max(r, k.radius());
    }
    compiled_.push_back(std::move(ck));
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
                nullptr) {}

EmContext::EmContext(DeserializeShell, const Graph& g, const KeySet& keys,
                     const PlanOptions& opts)
    : g_(&g), keys_(&keys), opts_(opts) {
  // Compiling the keys is cheap and deterministic; everything else is
  // filled by the patch constructor or by storage::PlanCodec.
  CompileKeys();
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

std::vector<NodeId> EmContext::ReachableValues(
    NodeId e, const SigSource& src, const CompiledPattern& cp) const {
  const Graph& g = *g_;
  std::vector<NodeId> frontier{e}, next;
  for (const SigStep& step : src.path) {
    next.clear();
    const CompiledNode& pn = cp.nodes[step.to_node];
    for (NodeId n : frontier) {
      for (const Edge& edge : step.forward ? g.Out(n) : g.In(n)) {
        if (edge.pred != step.pred) continue;
        NodeId dst = edge.dst;
        switch (pn.kind) {
          case VarKind::kEntityVar:
          case VarKind::kWildcard:
            if (!g.IsEntity(dst) || g.entity_type(dst) != pn.type) {
              continue;
            }
            break;
          case VarKind::kValueVar:
            if (!g.IsValue(dst)) continue;
            break;
          case VarKind::kConstant:
            if (dst != pn.constant_node) continue;
            break;
          case VarKind::kDesignated:
            break;  // unreachable: BFS paths never revisit x
        }
        next.push_back(dst);
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier.swap(next);
  }
  return frontier;
}

EmContext::SigTable EmContext::Sign(std::span<const NodeId> entities,
                                    const SigSource& src,
                                    const CompiledPattern& cp,
                                    bool keep_empty) const {
  SigTable t;
  t.entities.reserve(entities.size());
  t.values.Reserve(entities.size(), entities.size());
  for (NodeId e : entities) {
    std::vector<NodeId> vals = ReachableValues(e, src, cp);
    if (vals.empty() && !keep_empty) continue;
    t.entities.push_back(e);
    t.values.AddRow(vals);
  }
  t.Transpose();
  return t;
}

void EmContext::SigTable::Transpose() {
  members.clear();
  members.reserve(values.values.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    for (NodeId v : values[i]) members.emplace_back(v, entities[i]);
  }
  std::sort(members.begin(), members.end());
}

EmContext::SigTable EmContext::Merge(const SigTable& older,
                                     const SigTable& newer, bool keep_empty) {
  SigTable t;
  t.entities.reserve(older.entities.size() + newer.entities.size());
  t.values.Reserve(older.entities.size() + newer.entities.size(),
                   older.values.values.size() + newer.values.values.size());
  auto put = [&](const SigTable& from, size_t i) {
    if (from.values[i].empty() && !keep_empty) return;
    t.entities.push_back(from.entities[i]);
    t.values.AddRow(from.values[i]);
  };
  const std::vector<NodeId>& a = older.entities;
  const std::vector<NodeId>& b = newer.entities;
  for (size_t i = 0, j = 0; i < a.size() || j < b.size();) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      put(older, i++);
    } else {
      if (i < a.size() && a[i] == b[j]) ++i;
      put(newer, j++);
    }
  }
  // Transpose: the memberships of older's entities newer does not
  // replace, merged with newer's (empty rows have none).
  t.members.reserve(older.members.size() + newer.members.size());
  auto fresh = newer.members.begin();
  for (const auto& member : older.members) {
    if (newer.Holds(member.second)) continue;
    for (; fresh != newer.members.end() && *fresh < member; ++fresh) {
      t.members.push_back(*fresh);
    }
    t.members.push_back(member);
  }
  t.members.insert(t.members.end(), fresh, newer.members.end());
  return t;
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
    // Keep the most selective source (fewest pairs sharing a value, the
    // first on a tie) per key; unioning one source per key over all keys
    // covers every directly identifiable pair. (A constant terminal needs
    // no extra filter — ReachableValues already pins the last hop to the
    // constant node.)
    SigPerKey pk;
    pk.key = ki;
    size_t best_pairs = SIZE_MAX;
    for (SigSource& src : sources) {
      auto table =
          std::make_shared<SigTable>(Sign(entities, src, cp, false));
      size_t pairs = 0;
      if (sources.size() > 1) {
        table->ForEachBucket([&pairs](auto bucket) {
          pairs += bucket.size() * (bucket.size() - 1) / 2;
        });
      }
      if (pairs < best_pairs) {
        best_pairs = pairs;
        pk.source = std::move(src);
        pk.base = std::move(table);
      }
    }
    idx->keys.push_back(std::move(pk));
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

EmContext::SigPerKey EmContext::ResignOverlay(
    const SigPerKey& prev, std::span<const NodeId> affected) const {
  SigPerKey pk{prev.key, prev.source, prev.base,
               Merge(prev.overlay,
                     Sign(affected, prev.source, compiled_[prev.key].cp, true),
                     true)};
  if (pk.overlay.entities.size() >
      std::max<size_t>(64, pk.base->entities.size() / 4)) {
    pk.base =
        std::make_shared<const SigTable>(Merge(*pk.base, pk.overlay, false));
    pk.overlay = SigTable();
  }
  return pk;
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
          keys_by_type_.find(t) != keys_by_type_.end()) {
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
                                     std::span<const int64_t> reuse) {
  const size_t n = candidates_.size();
  // Scan phase, recompiled candidates only: a carried candidate's balls,
  // keys and the keyed-type set are all unchanged, so its scan is copied
  // below instead of re-walked. Below the thread-spawn break-even point
  // the scan runs inline (a small patch scans a handful of candidates).
  std::vector<uint32_t> fresh;
  for (uint32_t j = 0; j < n; ++j) {
    if (reuse[j] < 0 && candidates_[j].has_recursive_key) fresh.push_back(j);
  }
  const int p = fresh.size() < 256 ? 1 : std::max(1, opts_.processors);
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
    if (reuse[j] >= 0) total += old[reuse[j]].size();
  }
  scans.values.reserve(total);
  size_t next_fresh = 0, fresh_at = 0;
  for (uint32_t j = 0; j < n;) {
    if (reuse[j] < 0) {
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
    while (end < n && reuse[end] == reuse[end - 1] + 1) ++end;
    const size_t first = old.offsets[reuse[j]];
    const size_t shift = scans.values.size() - first;
    for (uint32_t i = j; i < end; ++i) {
      scans.offsets.push_back(old.offsets[reuse[i] + 1] + shift);
    }
    scans.values.insert(scans.values.end(), old.values.begin() + first,
                        old.values.begin() + old.offsets[reuse[end - 1] + 1]);
    j = end;
  }
  InvertDependencyIndex();
}

void EmContext::InvertDependencyIndex() {
  // Inversion: pairs in L become dependency edges (dependents_[i] ∋ j);
  // excluded pairs with dependents become ghosts. Deterministic given
  // depends_on_pairs_ + candidates_, so the storage layer replays it on
  // load instead of persisting the derived index.
  const size_t n = candidates_.size();
  const Rows<uint64_t>& scans = depends_on_pairs_;
  constexpr uint32_t kNotInL = UINT32_MAX;
  auto index_in_l = [this](uint64_t packed) -> uint32_t {
    auto it = std::lower_bound(
        candidates_.begin(), candidates_.end(), packed,
        [](const Candidate& c, uint64_t v) { return PackPair(c.e1, c.e2) < v; });
    if (it == candidates_.end() || PackPair(it->e1, it->e2) != packed) {
      return kNotInL;
    }
    return static_cast<uint32_t>(it - candidates_.begin());
  };
  // Counting pass: resolve every scanned pair once, count each
  // candidate's dependents, and list the (ghost pair, dependent) entries.
  std::vector<uint32_t> target(scans.values.size());
  std::vector<std::pair<uint64_t, uint32_t>> ghost_entries;
  dependents_.offsets.assign(n + 1, 0);
  for (uint32_t j = 0; j < n; ++j) {
    for (size_t e = scans.offsets[j]; e < scans.offsets[j + 1]; ++e) {
      const uint32_t i = index_in_l(scans.values[e]);
      target[e] = i;
      if (i == kNotInL) {
        ghost_entries.emplace_back(scans.values[e], j);
      } else if (i != j) {
        ++dependents_.offsets[i + 1];
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    dependents_.offsets[i + 1] += dependents_.offsets[i];
  }
  // Scatter pass: j ascends, so every row comes out ascending.
  dependents_.values.resize(dependents_.offsets[n]);
  std::vector<size_t> cursor(dependents_.offsets.begin(),
                             dependents_.offsets.end() - 1);
  for (uint32_t j = 0; j < n; ++j) {
    for (size_t e = scans.offsets[j]; e < scans.offsets[j + 1]; ++e) {
      const uint32_t i = target[e];
      if (i != kNotInL && i != j) dependents_.values[cursor[i]++] = j;
    }
  }
  // Ghosts: the sorted (pair, dependent) list, grouped by pair. A scan
  // row holds each pair once, so no entry repeats.
  std::sort(ghost_entries.begin(), ghost_entries.end());
  ghosts_.clear();
  ghost_dependents_.Clear();
  ghost_dependents_.values.reserve(ghost_entries.size());
  for (size_t e = 0; e < ghost_entries.size(); ++e) {
    const uint64_t packed = ghost_entries[e].first;
    if (e == 0 || packed != ghost_entries[e - 1].first) {
      if (e != 0) ghost_dependents_.CloseRow();
      ghosts_.push_back(GhostPair{static_cast<NodeId>(packed >> 32),
                                  static_cast<NodeId>(packed & 0xffffffffu)});
    }
    ghost_dependents_.values.push_back(ghost_entries[e].second);
  }
  if (!ghost_entries.empty()) ghost_dependents_.CloseRow();
}

EmContext::EmContext(const EmContext& prev,
                     std::span<const NodeId> dirty_nodes,
                     ContextPatchInfo* info, bool collect_relations)
    : g_(prev.g_), keys_(prev.keys_), opts_(prev.opts_) {
  const Graph& g = *g_;
  // Spawning worker threads costs ~100µs each — real money against a
  // sub-millisecond patch. Parallel phases below fall back to inline
  // execution unless the affected region is big enough to pay for them.
  auto workers = [this](size_t work) {
    return work < 256 ? 1 : std::max(1, opts_.processors);
  };
  Timer section;

  // Keys are recompiled outright (|Σ| patterns — negligible): a constant
  // or predicate the delta introduced can newly resolve, flipping
  // cp.matchable. Any NEW match such a flip enables must use delta edges
  // and therefore lies inside an affected entity's ball, so the per-type
  // reuse below stays sound.
  CompileKeys();
  if (info != nullptr) info->keys_seconds = section.Seconds();
  section.Reset();

  // Affected region: a keyed entity is affected iff its d-ball (d = its
  // type's radius) intersects the dirty node set — in the POST-delta
  // graph. That single test covers removals too: every removed edge
  // leaves both (dirty) endpoints in place, and any old ≤d path from an
  // entity to a dirty node has a surviving prefix that already reaches a
  // dirty node within d. One multi-source BFS from the dirty set to the
  // maximum radius, instead of one BFS per entity. It lists the nodes it
  // reaches level by level, so the affected entities are read off the
  // ball, not found by a scan of every keyed entity.
  int dmax = 0;
  for (const auto& [type, r] : radius_by_type_) dmax = std::max(dmax, r);
  constexpr uint8_t kUnreached = 0xFF;
  std::vector<uint8_t> dist(g.NumNodes(), kUnreached);
  std::vector<NodeId> reached;
  for (NodeId n : dirty_nodes) {
    if (n < g.NumNodes() && dist[n] == kUnreached) {
      dist[n] = 0;
      reached.push_back(n);
    }
  }
  for (size_t level = 0, depth = 1;
       depth <= static_cast<size_t>(dmax) && level < reached.size();
       ++depth) {
    const size_t level_end = reached.size();
    for (; level < level_end; ++level) {
      const NodeId n = reached[level];
      auto visit = [&](NodeId m) {
        if (dist[m] == kUnreached) {
          dist[m] = static_cast<uint8_t>(depth);
          reached.push_back(m);
        }
      };
      for (const Edge& e : g.Out(n)) visit(e.dst);
      for (const Edge& e : g.In(n)) visit(e.dst);
    }
  }
  // An entity of keyed type t is affected iff dist[e] <= radius(t).
  std::vector<NodeId> affected_list;
  for (NodeId n : reached) {
    if (!g.IsEntity(n)) continue;
    auto r = radius_by_type_.find(g.entity_type(n));
    if (r != radius_by_type_.end() && dist[n] <= r->second) {
      affected_list.push_back(n);
    }
  }
  std::sort(affected_list.begin(), affected_list.end());
  std::unordered_map<Symbol, std::vector<NodeId>> affected_by_type;
  for (NodeId e : affected_list) {
    affected_by_type[g.entity_type(e)].push_back(e);
  }
  if (info != nullptr) info->affected_seconds = section.Seconds();
  section.Reset();

  // Phase A': d-neighbor chunks. The table shares every chunk of the
  // previous context; the chunks holding an affected entity are cloned
  // and get its recomputed set. Affected includes every keyed entity
  // the delta added, and a compile's every keyed entity. The sets are
  // computed type by type in key-map order, the order the snapshot
  // encoder reads them in, so a compile lays their payloads out in it.
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
  std::sort(fresh.begin(), fresh.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  dn_chunks_ = prev.dn_chunks_;
  dn_chunks_.resize((g.NumNodes() + kDnChunkSpan - 1) >> kDnChunkBits);
  neighbor_nodes_ = prev.neighbor_nodes_;
  neighbor_entities_ = prev.neighbor_entities_;
  for (size_t i = 0; i < fresh.size();) {
    const size_t c = fresh[i].first >> kDnChunkBits;
    auto chunk = dn_chunks_[c] != nullptr
                     ? std::make_shared<DnChunk>(*dn_chunks_[c])
                     : std::make_shared<DnChunk>();
    for (; i < fresh.size() && fresh[i].first >> kDnChunkBits == c; ++i) {
      auto& set = chunk->sets[fresh[i].first & (kDnChunkSpan - 1)];
      if (set != nullptr) {
        neighbor_nodes_ -= set->size();
      } else {
        ++neighbor_entities_;
      }
      neighbor_nodes_ += fresh[i].second->size();
      set = std::move(fresh[i].second);
    }
    dn_chunks_[c] = std::move(chunk);
  }
  if (info != nullptr) info->dneighbor_seconds = section.Seconds();
  section.Reset();

  // Phase B': enumerate L per type. Types with no affected entity carry
  // their surviving candidates (and signature index) over verbatim.
  // Affected types re-sign each affected entity into their signature
  // index's overlay (its overlay row hides its stale base row) and
  // enumerate only the pairs INVOLVING an affected entity; pairs of
  // two untouched entities are carried from the previous L (their bucket
  // memberships, pairing verdicts, and reduced sets cannot have changed).
  // The previous source choice per key is pinned (any single source per
  // key is an output-preserving filter), so a patched plan's L can differ
  // from a from-scratch compile's L without changing chase(G, Σ). A
  // compile is this pass over an empty context with every entity
  // affected: each type builds its index and enumerates in full.
  // Pair → previous-candidate lookup, needed only when a type's
  // signature structure changed (rare); built on first use so the common
  // patch path never pays the O(|L|) hashing.
  std::unordered_map<uint64_t, uint32_t> prev_by_pair;
  auto lookup_prev_pair = [&](NodeId a, NodeId b) -> int64_t {
    if (prev_by_pair.empty() && !prev.candidates_.empty()) {
      prev_by_pair.reserve(prev.candidates_.size() * 2);
      for (uint32_t i = 0; i < prev.candidates_.size(); ++i) {
        prev_by_pair.emplace(
            PackPair(prev.candidates_[i].e1, prev.candidates_[i].e2), i);
      }
    }
    auto it = prev_by_pair.find(PackPair(a, b));
    return it == prev_by_pair.end() ? -1 : static_cast<int64_t>(it->second);
  };
  // Previous candidates grouped by type, for the carry-over passes.
  std::unordered_map<Symbol, std::vector<uint32_t>> prev_by_type;
  for (uint32_t i = 0; i < prev.candidates_.size(); ++i) {
    prev_by_type[g.entity_type(prev.candidates_[i].e1)].push_back(i);
  }

  struct RawPair {
    NodeId e1, e2;
    const std::vector<int>* keys;
    bool recursive, value_based;
    int64_t reuse;  // previous candidate index, or -1 = recompute (dirty)
  };
  std::vector<RawPair> raw;
  std::unordered_set<uint64_t> seen;
  for (const auto& [type, key_ids] : keys_by_type_) {
    auto entities = g.EntitiesOfType(type);
    const int d = radius_by_type_.at(type);
    auto affected = [&](NodeId e) { return dist[e] <= d; };
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
    auto prev_candidates_it = prev_by_type.find(type);
    auto carry_clean_pairs = [&]() {
      if (prev_candidates_it == prev_by_type.end()) return;
      for (uint32_t i : prev_candidates_it->second) {
        const Candidate& c = prev.candidates_[i];
        if (affected(c.e1) || affected(c.e2)) continue;
        raw.push_back(RawPair{c.e1, c.e2, &key_ids, recursive, value_based,
                              static_cast<int64_t>(i)});
      }
    };
    if (affected_here.empty()) {
      // Entirely clean type: carry candidates and share the signature
      // index untouched.
      carry_clean_pairs();
      auto sig_it = prev.sig_index_.find(type);
      if (sig_it != prev.sig_index_.end()) sig_index_[type] = sig_it->second;
      continue;
    }

    // The affected-pair enumeration for this type: fills `seen`/`raw`
    // with every pair that involves an affected entity and passes the
    // blocking filter (or every such pair, for unblockable types).
    seen.clear();
    auto emit = [&](NodeId a, NodeId b) {
      if (a > b) std::swap(a, b);
      if (!seen.insert(PackPair(a, b)).second) return;
      raw.push_back(RawPair{a, b, &key_ids, recursive, value_based, -1});
    };
    // Unblocked: affected × all, each pair once (a pair of two affected
    // entities comes from its smaller one), so no `seen` lookups — on a
    // compile every pair of the type passes through here.
    auto emit_affected_pairs = [&]() {
      for (NodeId a : affected_here) {
        for (NodeId b : entities) {
          if (b == a || (affected(b) && b < a)) continue;
          raw.push_back(RawPair{std::min(a, b), std::max(a, b), &key_ids,
                                recursive, value_based, -1});
        }
      }
    };

    if (opts_.use_blocking) {
      auto sig_it = prev.sig_index_.find(type);
      std::shared_ptr<const SigIndex> prev_sig =
          sig_it != prev.sig_index_.end() ? sig_it->second : nullptr;
      if (prev_sig != nullptr && SigIndexStillValid(*prev_sig, key_ids)) {
        if (!prev_sig->blockable) {
          // Still unblockable: full enumeration of affected × all.
          sig_index_[type] = prev_sig;
          carry_clean_pairs();
          emit_affected_pairs();
          continue;
        }
        // Re-sign exactly the affected entities against the pinned
        // sources: the base tables are shared untouched; the re-signed
        // entities go into the per-key overlay (folded into a fresh base
        // once the overlay outgrows it).
        auto updated = std::make_shared<SigIndex>();
        updated->blockable = true;
        for (const SigPerKey& old_pk : prev_sig->keys) {
          const SigPerKey& pk =
              updated->keys.emplace_back(ResignOverlay(old_pk, affected_here));
          for (NodeId e : affected_here) {
            for (NodeId v : pk.ValuesOf(e)) {
              pk.ForEachMember(v, [&](NodeId m) {
                if (m != e) emit(e, m);
              });
            }
          }
        }
        sig_index_[type] = std::move(updated);
        carry_clean_pairs();
        continue;
      }
      // No index yet (a compile) or the delta changed the signature
      // structure itself (a constant or predicate newly resolves): build
      // the type's index from scratch and enumerate it fully, still
      // reusing the pairing verdicts of clean pairs that survived in the
      // previous L. A full enumeration is the one place the pairs the
      // index keeps out can be counted.
      auto idx = BuildSigIndex(key_ids, entities);
      sig_index_[type] = idx;
      if (idx->blockable) {
        const size_t before = raw.size();
        for (const SigPerKey& pk : idx->keys) {
          pk.base->ForEachBucket([&](auto bucket) {
            for (size_t i = 0; i < bucket.size(); ++i) {
              for (size_t j = i + 1; j < bucket.size(); ++j) {
                NodeId a = bucket[i].second, b = bucket[j].second;
                if (!affected(a) && !affected(b)) {
                  int64_t from = lookup_prev_pair(a, b);
                  if (from >= 0) {
                    if (seen.insert(PackPair(a, b)).second) {
                      raw.push_back(RawPair{a, b, &key_ids, recursive,
                                            value_based, from});
                    }
                    continue;
                  }
                }
                emit(a, b);
              }
            }
          });
        }
        const size_t all_pairs = entities.size() * (entities.size() - 1) / 2;
        candidates_blocked_ += all_pairs - (raw.size() - before);
        continue;
      }
      // Unblockable: fall through to full enumeration.
    }
    // No blocking (or unblockable): affected × all pairs are dirty,
    // clean × clean pairs carry over from the previous L. (With pairing
    // but no blocking, a clean pair the pairing filter dropped before is
    // re-checked only if it involves an affected entity — clean dropped
    // pairs stay dropped because nothing in their balls moved.)
    carry_clean_pairs();
    emit_affected_pairs();
  }
  candidates_initial_ = raw.size();
  std::sort(raw.begin(), raw.end(), [](const RawPair& a, const RawPair& b) {
    return std::tie(a.e1, a.e2) < std::tie(b.e1, b.e2);
  });

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
    // Shard over the dirty pairs only, so carried pairs cannot leave one
    // worker with every pairing call.
    std::vector<uint32_t> dirty;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i].reuse < 0) dirty.push_back(static_cast<uint32_t>(i));
    }
    const int pc = workers(dirty.size());
    std::vector<PairingScratch> scratches(pc);
    ParallelShards(pc, dirty.size(), [&](int shard, size_t begin,
                                         size_t end) {
      PairingScratch& scratch = scratches[shard];
      for (size_t k = begin; k < end; ++k) {
        const size_t i = dirty[k];
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

  // Assembly: reused pairs share the previous reduced sets; dirty pairs
  // get fresh ones. Candidates stay sorted by (e1, e2) as in a full
  // compile.
  candidates_.reserve(raw.size());
  std::vector<uint32_t> dirty_candidates;
  std::vector<int64_t> candidate_reuse;
  candidate_reuse.reserve(raw.size());
  std::vector<std::shared_ptr<const PairingRelation>> relations;
  for (size_t i = 0; i < raw.size(); ++i) {
    const RawPair& rp = raw[i];
    Candidate c;
    c.e1 = rp.e1;
    c.e2 = rp.e2;
    c.keys = rp.keys;
    c.has_recursive_key = rp.recursive;
    c.has_value_based_key = rp.value_based;
    if (rp.reuse >= 0) {
      if (opts_.use_pairing) {
        // reduced_pool_[2i] / [2i+1] are candidate i's sides, in both
        // the full and the patched build.
        const auto& r1 = prev.reduced_pool_[2 * rp.reuse];
        const auto& r2 = prev.reduced_pool_[2 * rp.reuse + 1];
        neighbor_nodes_reduced_ += r1->size() + r2->size();
        reduced_pool_.push_back(r1);
        c.nbr1 = r1.get();
        reduced_pool_.push_back(r2);
        c.nbr2 = r2.get();
      } else {
        c.nbr1 = &DNbr(rp.e1);
        c.nbr2 = &DNbr(rp.e2);
      }
      candidate_reuse.push_back(rp.reuse);
      if (collect_relations) relations.push_back(nullptr);
      candidates_.push_back(std::move(c));
      continue;
    }
    if (opts_.use_pairing) {
      Reduction& red = reductions[i];
      if (!red.keep) continue;
      neighbor_nodes_reduced_ += red.r1.size() + red.r2.size();
      reduced_pool_.push_back(
          std::make_shared<const NodeSet>(std::move(red.r1)));
      c.nbr1 = reduced_pool_.back().get();
      reduced_pool_.push_back(
          std::make_shared<const NodeSet>(std::move(red.r2)));
      c.nbr2 = reduced_pool_.back().get();
    } else {
      c.nbr1 = &DNbr(rp.e1);
      c.nbr2 = &DNbr(rp.e2);
    }
    dirty_candidates.push_back(static_cast<uint32_t>(candidates_.size()));
    candidate_reuse.push_back(-1);
    if (collect_relations) {
      relations.push_back(std::move(reductions[i].relation));
    }
    candidates_.push_back(std::move(c));
  }

  // The dependency index and ghosts are candidate-index-relative;
  // re-assemble them over the new L, copying the neighbor-ball scans of
  // every carried-over candidate.
  BuildDependencyIndex(prev, candidate_reuse);
  if (info != nullptr) info->depindex_seconds = section.Seconds();

  if (info != nullptr) {
    info->affected_entities = std::move(affected_list);
    info->dirty_candidates = std::move(dirty_candidates);
    info->candidate_reuse = std::move(candidate_reuse);
    info->relations = std::move(relations);
  }
}

size_t EmContext::MemoryBytes() const {
  size_t bytes =
      candidates_.capacity() * sizeof(Candidate) +
      compiled_.capacity() * sizeof(CompiledKey) +
      dn_chunks_.capacity() * sizeof(std::shared_ptr<const DnChunk>) +
      reduced_pool_.capacity() * sizeof(std::shared_ptr<const NodeSet>) +
      depends_on_pairs_.MemoryBytes() + dependents_.MemoryBytes() +
      ghosts_.capacity() * sizeof(GhostPair) +
      ghost_dependents_.MemoryBytes();
  for (const auto& chunk : dn_chunks_) {
    if (chunk == nullptr) continue;
    bytes += sizeof(DnChunk);
    for (const auto& s : chunk->sets) {
      if (s != nullptr) bytes += sizeof(NodeSet) + s->MemoryBytes();
    }
  }
  for (const auto& s : reduced_pool_) {
    bytes += sizeof(NodeSet) + s->MemoryBytes();
  }
  for (const auto& [type, idx] : sig_index_) {
    bytes += sizeof(SigIndex);
    for (const SigPerKey& pk : idx->keys) {
      bytes += pk.source.path.capacity() * sizeof(SigStep) +
               pk.base->MemoryBytes() + pk.overlay.MemoryBytes();
    }
  }
  return bytes;
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
