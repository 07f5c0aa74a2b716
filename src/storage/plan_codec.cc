#include "storage/plan_codec.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/endian.h"
#include "core/product_graph.h"
#include "graph/neighborhood.h"
#include "isomorph/pairing.h"

namespace gkeys {
namespace storage {

namespace {

std::string Key1(char prefix) { return std::string(1, prefix); }

std::string KeyBe32(char prefix, uint32_t id) {
  std::string k(1, prefix);
  PutBe32(k, id);
  return k;
}

Status Corrupt(const std::string& what) {
  return Status::ParseError("corrupt snapshot: " + what);
}

/// Reads the section record `prefix`: `count` items back to back, each
/// decoded by read_item(reader, i). Items are decoded one at a time and
/// nothing is reserved up front, so a corrupt count costs no more than
/// the section's bytes.
template <typename ReadItem>
Status ReadSection(const Store& store, char prefix, uint64_t count,
                   const std::string& what, ReadItem&& read_item) {
  auto section = store.Get(Key1(prefix));
  if (!section.ok()) return Corrupt("missing " + what + " record");
  ByteReader r(*section);
  for (uint64_t i = 0; i < count; ++i) {
    if (r.AtEnd())
      return Corrupt(what + " record holds only " + std::to_string(i) +
                     " of " + std::to_string(count) + " items");
    GKEYS_RETURN_IF_ERROR(read_item(r, i));
  }
  if (!r.AtEnd()) return Corrupt("trailing bytes in " + what + " record");
  return Status::OK();
}

/// Sorted ascending uint64 list, delta-encoded.
void PutDeltaList64(std::string& out, std::span<const uint64_t> vals) {
  PutVarint(out, vals.size());
  uint64_t prev = 0;
  for (uint64_t v : vals) {
    PutVarint(out, v - prev);
    prev = v;
  }
}

/// Reads dependency scan `j` (a PutDeltaList64 list of PackPair values)
/// onto the end of `scans`. The dependency index looks pairs up by
/// binary search and the engines index the union-find with their halves,
/// so each pair must name two nodes of the graph, smaller first, and the
/// list must be strictly ascending.
Status ReadDependencyScan(ByteReader& r, uint64_t j, uint64_t num_nodes,
                          std::vector<uint64_t>& scans) {
  // Built only on error: the scans are read once per candidate.
  auto what = [j] { return "dependency scan " + std::to_string(j); };
  uint64_t count = 0;
  if (!r.ReadVarint(&count) || count > r.remaining())
    return Corrupt("bad " + what());
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t d = 0;
    if (!r.ReadVarint(&d)) return Corrupt("bad " + what());
    if (i > 0 && d == 0) return Corrupt(what() + " repeats a pair");
    if (d > UINT64_MAX - prev) return Corrupt(what() + " wraps past 2^64");
    prev += d;
    const uint64_t first = prev >> 32, second = prev & 0xffffffffu;
    if (first >= num_nodes || second >= num_nodes) {
      return Corrupt(what() + " names node " +
                     std::to_string(std::max(first, second)) +
                     " past the graph");
    }
    if (first >= second) {
      return Corrupt(what() + " holds a pair whose first node is not below "
                     "its second");
    }
    scans.push_back(prev);
  }
  return Status::OK();
}

/// Sorted ascending NodeId list, delta-encoded.
void PutDeltaList32(std::string& out, std::span<const NodeId> vals) {
  PutVarint(out, vals.size());
  NodeId prev = 0;
  for (NodeId v : vals) {
    PutVarint(out, v - prev);
    prev = v;
  }
}

bool ReadDeltaList32(ByteReader& r, uint64_t max_value,
                     std::vector<NodeId>* out) {
  uint64_t count = 0;
  if (!r.ReadVarint(&count) || count > max_value + 1 ||
      count > r.remaining()) {
    return false;
  }
  out->clear();
  out->reserve(count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t d = 0;
    if (!r.ReadVarint(&d)) return false;
    prev += d;
    if (prev > max_value) return false;
    out->push_back(static_cast<NodeId>(prev));
  }
  return true;
}

const std::vector<NodeId>& Content(const NodeSet& set) { return set.sorted(); }
const PairingRelation& Content(const PairingRelation& rel) { return rel; }

/// Content-deduplicating pool of COW-shared payloads: payloads shared
/// across plan generations, and equal content stored under distinct
/// pointers, collapse to one id, numbered in first-seen order. Ids sit in
/// an open-addressing table over content hashes, sized up front for
/// `calls` calls to Id, so it never grows.
template <typename T>
class DedupPool {
 public:
  explicit DedupPool(size_t calls)
      : slots_(std::bit_ceil(2 * calls + 2), kEmpty) {}

  uint64_t Id(const T& item) {
    const auto& content = Content(item);
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t v : content) h = (h ^ v) * 0x100000001b3ull;
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      if (slots_[i] == kEmpty) {
        slots_[i] = items_.size();
        items_.push_back(&item);
        hashes_.push_back(h);
        return slots_[i];
      }
      const size_t id = slots_[i];
      if (hashes_[id] == h &&
          (items_[id] == &item || Content(*items_[id]) == content)) {
        return id;
      }
    }
  }

  const std::vector<const T*>& items() const { return items_; }

 private:
  static constexpr size_t kEmpty = SIZE_MAX;
  std::vector<size_t> slots_;
  std::vector<const T*> items_;
  std::vector<uint64_t> hashes_;
};

// ---- Meta ------------------------------------------------------------

/// The run-option block of the meta record. A plan carries no run
/// option, so the block's bytes are fixed by its plan options: the
/// plan's processors, its pairing (bit 1) and blocking (bit 4) flags,
/// every run knob off, and bit 6 (provenance recording, which every run
/// does) set. The block stays so that the meta record keeps the layout
/// it has had since format 2, and plan_golden_test's digests hold.
struct RunOptionBytes {
  uint64_t processors = 0;
  uint8_t flags = 0;
  uint64_t bounded_messages = 0;
  friend bool operator==(const RunOptionBytes&,
                         const RunOptionBytes&) = default;
};

RunOptionBytes ImpliedRunOptions(const PlanOptions& po) {
  return {static_cast<uint64_t>(po.processors),
          static_cast<uint8_t>((po.use_pairing << 1) |
                               (po.use_blocking << 4) | (1 << 6)),
          0};
}

}  // namespace

Status PlanCodec::EncodeMeta(const SnapshotMeta& meta, Store& store) {
  std::string v;
  v.push_back(static_cast<char>(meta.algorithm));
  const PlanOptions& po = meta.plan_options;
  const RunOptionBytes run = ImpliedRunOptions(po);
  PutVarint(v, run.processors);
  v.push_back(static_cast<char>(run.flags));
  PutVarint(v, run.bounded_messages);
  PutVarint(v, static_cast<uint64_t>(po.processors));
  uint8_t po_flags = (po.use_pairing << 0) | (po.use_blocking << 1) |
                     (po.build_product_graph << 2);
  v.push_back(static_cast<char>(po_flags));
  v.push_back(static_cast<char>(meta.has_product_graph));
  v.push_back(static_cast<char>(meta.has_entity_names));
  for (uint64_t n :
       {meta.num_symbols, meta.num_nodes, meta.num_candidates,
        meta.num_pool_sets, meta.num_relations, meta.num_sig_types,
        meta.num_derivations, meta.num_pairs, meta.candidates_initial,
        meta.candidates_blocked, meta.neighbor_nodes,
        meta.neighbor_nodes_reduced}) {
    PutVarint(v, n);
  }
  return store.Put(Key1('M'), std::move(v));
}

StatusOr<SnapshotMeta> PlanCodec::DecodeMeta(const Store& store) {
  auto blob = store.Get(Key1('M'));
  if (!blob.ok()) return Corrupt("missing meta record");
  ByteReader r(*blob);
  SnapshotMeta meta;
  uint8_t algo = 0, po_flags = 0, has_pg = 0, has_names = 0;
  uint64_t po_procs = 0;
  RunOptionBytes run;
  if (!r.ReadU8(&algo) || !r.ReadVarint(&run.processors) ||
      !r.ReadU8(&run.flags) || !r.ReadVarint(&run.bounded_messages) ||
      !r.ReadVarint(&po_procs) || !r.ReadU8(&po_flags) ||
      !r.ReadU8(&has_pg) || !r.ReadU8(&has_names)) {
    return Corrupt("truncated meta record");
  }
  if (algo > static_cast<uint8_t>(Algorithm::kEmOptVc))
    return Corrupt("unknown algorithm id " + std::to_string(algo));
  meta.algorithm = static_cast<Algorithm>(algo);
  if (po_procs < 1 || po_procs > kMaxProcessors)
    return Corrupt("processor count " + std::to_string(po_procs) +
                   " out of range");
  meta.plan_options.processors = static_cast<int>(po_procs);
  meta.plan_options.use_pairing = po_flags & 1;
  meta.plan_options.use_blocking = po_flags & 2;
  meta.plan_options.build_product_graph = po_flags & 4;
  if (run != ImpliedRunOptions(meta.plan_options))
    return Corrupt("meta run options disagree with the plan options");
  meta.has_product_graph = has_pg != 0;
  meta.has_entity_names = has_names != 0;
  for (uint64_t* n :
       {&meta.num_symbols, &meta.num_nodes, &meta.num_candidates,
        &meta.num_pool_sets, &meta.num_relations, &meta.num_sig_types,
        &meta.num_derivations, &meta.num_pairs, &meta.candidates_initial,
        &meta.candidates_blocked, &meta.neighbor_nodes,
        &meta.neighbor_nodes_reduced}) {
    if (!r.ReadVarint(n)) return Corrupt("truncated meta counts");
  }
  if (!r.AtEnd()) return Corrupt("trailing bytes in meta record");
  if (meta.num_nodes > UINT32_MAX || meta.num_symbols > UINT32_MAX)
    return Corrupt("node/symbol count out of range");
  return meta;
}

// ---- Graph + interner ------------------------------------------------

Status PlanCodec::EncodeGraph(const Graph& g, Store& store,
                              SnapshotMeta* meta) {
  const StringInterner& interner = g.interner();
  std::string symbols, nodes, edges;
  for (Symbol s = 0; s < interner.size(); ++s) {
    std::string_view str = interner.Resolve(s);
    PutVarint(symbols, str.size());
    symbols.append(str);
  }
  nodes.reserve(5 * g.NumNodes());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    nodes.push_back(g.IsEntity(n) ? 0 : 1);
    PutBe32(nodes, g.IsEntity(n) ? g.entity_type(n) : g.value_sym(n));
    auto out = g.Out(n);
    PutVarint(edges, out.size());
    for (const Edge& edge : out) {
      PutVarint(edges, edge.pred);
      PutVarint(edges, edge.dst);
    }
  }
  GKEYS_RETURN_IF_ERROR(store.Put(Key1('S'), std::move(symbols)));
  GKEYS_RETURN_IF_ERROR(store.Put(Key1('N'), std::move(nodes)));
  GKEYS_RETURN_IF_ERROR(store.Put(Key1('E'), std::move(edges)));
  meta->num_symbols = interner.size();
  meta->num_nodes = g.NumNodes();
  return Status::OK();
}

StatusOr<Graph> PlanCodec::DecodeGraph(const Store& store,
                                       const SnapshotMeta& meta) {
  Graph g;
  // Interner replay in symbol order reproduces every id (including
  // symbols no node references, e.g. predicates seen only in key DSL).
  GKEYS_RETURN_IF_ERROR(ReadSection(
      store, 'S', meta.num_symbols, "string",
      [&](ByteReader& r, uint64_t s) -> Status {
        uint64_t len = 0;
        std::string_view str;
        if (!r.ReadVarint(&len) || !r.ReadBytes(len, &str))
          return Corrupt("bad string " + std::to_string(s));
        if (g.Intern(str) != s)
          return Corrupt("duplicate interned string at symbol " +
                         std::to_string(s));
        return Status::OK();
      }));
  // Nodes in id order: AddEntity/AddValue assign ids sequentially, so the
  // replay reproduces kinds, labels, per-type tables, and the value map.
  GKEYS_RETURN_IF_ERROR(ReadSection(
      store, 'N', meta.num_nodes, "node",
      [&](ByteReader& r, uint64_t n) -> Status {
        uint8_t kind = 0;
        uint32_t label = 0;
        if (!r.ReadU8(&kind) || !r.ReadBe32(&label) || kind > 1 ||
            label >= meta.num_symbols) {
          return Corrupt("bad node record " + std::to_string(n));
        }
        NodeId got = kind == 0 ? g.AddEntity(label)
                               : g.AddValue(g.interner().Resolve(label));
        if (got != n)
          return Corrupt("node record " + std::to_string(n) +
                         " does not replay to its id (duplicate value?)");
        return Status::OK();
      }));
  // One out-edge run per node carries every triple once (in-edges are the
  // transpose).
  GKEYS_RETURN_IF_ERROR(ReadSection(
      store, 'E', meta.num_nodes, "edge",
      [&](ByteReader& r, uint64_t src) -> Status {
        uint64_t count = 0;
        if (!r.ReadVarint(&count) || count > r.remaining())
          return Corrupt("bad edge count");
        for (uint64_t i = 0; i < count; ++i) {
          uint32_t pred = 0, dst = 0;
          if (!r.ReadVarint32(&pred) || !r.ReadVarint32(&dst) ||
              pred >= meta.num_symbols || dst >= meta.num_nodes) {
            return Corrupt("bad edge in node " + std::to_string(src));
          }
          Status st = g.AddTriple(static_cast<NodeId>(src), Symbol{pred},
                                  static_cast<NodeId>(dst));
          if (!st.ok()) return Corrupt("unreplayable edge: " + st.message());
        }
        return Status::OK();
      }));
  g.Finalize();
  return g;
}

// ---- Plan ------------------------------------------------------------

Status PlanCodec::EncodePlan(const MatchPlan& plan, Store& store,
                             SnapshotMeta* meta) {
  const MatchPlan::Rep& rep = *plan.rep_;
  const EmContext& ctx = rep.ctx;
  meta->plan_options = ctx.opts_;
  meta->has_product_graph = rep.pg.has_value();
  meta->num_candidates = ctx.candidates_.size();
  meta->candidates_initial = ctx.candidates_initial_;
  meta->candidates_blocked = ctx.candidates_blocked_;
  meta->neighbor_nodes = ctx.neighbor_nodes_;
  meta->neighbor_nodes_reduced = ctx.neighbor_nodes_reduced_;

  // One d-neighbor slot per keyed entity, keyed types in key-map order
  // and each type's entities ascending.
  const Graph& g = ctx.graph();
  std::vector<NodeId> slot_entity;
  std::vector<const NodeSet*> slot_set;
  slot_entity.reserve(ctx.neighbor_entities_);
  slot_set.reserve(ctx.neighbor_entities_);
  for (const auto& [type, key_ids] : ctx.keys_by_type_) {
    for (NodeId e : g.EntitiesOfType(type)) {
      slot_entity.push_back(e);
      slot_set.push_back(&ctx.DNbr(e));
    }
  }

  // NodeSet pool: d-neighbor sets and pairing-reduced sets,
  // content-deduplicated — a lineage of patched plans shares most
  // payloads, and they are stored exactly once.
  const bool pairing = ctx.opts_.use_pairing;
  const size_t num_reduced = pairing ? 2 * ctx.candidates_.size() : 0;
  DedupPool<NodeSet> pool(slot_entity.size() + num_reduced);
  std::vector<uint64_t> slot_pool_ids(slot_entity.size());
  for (size_t i = 0; i < slot_entity.size(); ++i) {
    slot_pool_ids[i] = pool.Id(*slot_set[i]);
  }
  // Candidate i's two sides are ids 2i and 2i + 1.
  std::vector<uint64_t> reduced_pool_ids(num_reduced);
  for (size_t i = 0; i < num_reduced; ++i) {
    const PairingOutput& out = ctx.pairing_[i / 2];
    reduced_pool_ids[i] = pool.Id(i % 2 == 0 ? *out.r1 : *out.r2);
  }

  std::string p;
  PutVarint(p, slot_entity.size());
  for (size_t i = 0; i < slot_entity.size(); ++i) {
    PutVarint(p, slot_entity[i]);
    PutVarint(p, slot_pool_ids[i]);
  }
  PutVarint(p, ctx.candidates_.size());
  for (size_t i = 0; i < ctx.candidates_.size(); ++i) {
    const Candidate& c = ctx.candidates_[i];
    PutVarint(p, c.e1);
    PutVarint(p, c.e2);
    uint8_t flags = (c.has_recursive_key << 0) | (c.has_value_based_key << 1);
    p.push_back(static_cast<char>(flags));
    if (pairing) {
      PutVarint(p, reduced_pool_ids[2 * i]);
      PutVarint(p, reduced_pool_ids[2 * i + 1]);
    }
  }
  // Raw dependency scans; the derived dependents_/ghosts_ are indexed
  // again on load (IndexDependencies is deterministic given these).
  for (size_t j = 0; j < ctx.depends_on_pairs_.size(); ++j) {
    PutDeltaList64(p, ctx.depends_on_pairs_[j]);
  }
  GKEYS_RETURN_IF_ERROR(store.Put(Key1('P'), std::move(p)));

  // Signature indexes: the blockable flag and each key's pinned source.
  // A patch reads the buckets from the graph, so no rows are stored.
  meta->num_sig_types = ctx.sig_index_.size();
  for (const auto& [type, idx] : ctx.sig_index_) {
    std::string x(1, idx->blockable ? '\1' : '\0');
    PutVarint(x, idx->keys.size());
    for (const EmContext::SigPerKey& pk : idx->keys) {
      PutVarint(x, static_cast<uint64_t>(pk.key));
      x.push_back(pk.source.constant != kNoNode ? 1 : 0);
      if (pk.source.constant != kNoNode) PutVarint(x, pk.source.constant);
      PutVarint(x, pk.source.path.size());
      for (const EmContext::SigStep& step : pk.source.path) {
        PutVarint(x, step.pred);
        x.push_back(step.forward ? 1 : 0);
        PutVarint(x, static_cast<uint64_t>(step.to_node));
      }
    }
    GKEYS_RETURN_IF_ERROR(store.Put(KeyBe32('X', type), std::move(x)));
  }

  // Product graph: only the per-candidate pairing relations persist —
  // Vp, the edge set, and the counts all follow from them (the load runs
  // PatchProductGraph from an empty Gp, as a compile does).
  DedupPool<PairingRelation> relations(
      rep.pg.has_value() ? ctx.candidates_.size() : 0);
  if (rep.pg.has_value()) {
    std::string gp;
    PutVarint(gp, ctx.candidates_.size());
    for (uint32_t i = 0; i < ctx.candidates_.size(); ++i) {
      PutVarint(gp, relations.Id(ctx.relation(i)));
    }
    GKEYS_RETURN_IF_ERROR(store.Put(Key1('G'), std::move(gp)));
    // Element order is load-bearing: it fixes product-node ids, which fix
    // the edge-pass output — preserving byte-identical adjacency for a
    // from-scratch-built plan.
    std::string rv;
    for (const PairingRelation* rel : relations.items()) {
      PutVarint(rv, rel->size());
      for (uint64_t packed : *rel) PutVarint(rv, packed);
    }
    GKEYS_RETURN_IF_ERROR(store.Put(Key1('R'), std::move(rv)));
  }
  meta->num_relations = relations.items().size();

  // Pool payloads last (ids are now final).
  std::string d;
  for (const NodeSet* set : pool.items()) PutDeltaList32(d, set->sorted());
  GKEYS_RETURN_IF_ERROR(store.Put(Key1('D'), std::move(d)));
  meta->num_pool_sets = pool.items().size();
  return Status::OK();
}

StatusOr<MatchPlan> PlanCodec::DecodePlan(const Store& store,
                                          const SnapshotMeta& meta,
                                          const Graph& g,
                                          const KeySet& keys) {
  if (g.NumNodes() != meta.num_nodes)
    return Corrupt("graph/meta node-count mismatch");
  std::shared_ptr<MatchPlan::Rep> rep(
      new MatchPlan::Rep(EmContext::DeserializeShell{}, g, keys,
                         meta.plan_options));
  EmContext& ctx = rep->ctx;

  // NodeSet pool, in id order.
  std::vector<std::shared_ptr<const NodeSet>> pool;
  GKEYS_RETURN_IF_ERROR(ReadSection(
      store, 'D', meta.num_pool_sets, "NodeSet pool",
      [&](ByteReader& r, uint64_t i) -> Status {
        std::vector<NodeId> nodes;
        if (!ReadDeltaList32(r, meta.num_nodes - 1, &nodes))
          return Corrupt("bad NodeSet pool set " + std::to_string(i));
        pool.push_back(std::make_shared<const NodeSet>(
            NodeSet::FromSorted(std::move(nodes))));
        return Status::OK();
      }));

  // Plan blob: slots, candidates, dependency scans.
  auto p_blob = store.Get(Key1('P'));
  if (!p_blob.ok()) return Corrupt("missing plan record");
  ByteReader p(*p_blob);
  uint64_t num_slots = 0;
  if (!p.ReadVarint(&num_slots) || num_slots > meta.num_nodes)
    return Corrupt("bad slot count");
  // A patch shares or recomputes the d-neighbor of every keyed entity,
  // and keeps neighbor_nodes by difference: the slots must name each
  // keyed entity exactly once, and their sets must sum to meta's count.
  std::vector<std::pair<NodeId, std::shared_ptr<const NodeSet>>> slots;
  slots.reserve(num_slots);
  std::vector<bool> named(g.NumNodes());
  uint64_t neighbor_nodes = 0;
  for (uint64_t i = 0; i < num_slots; ++i) {
    // Built only on error: there is one slot per keyed entity.
    auto slot = [i] { return "d-neighbor slot " + std::to_string(i); };
    uint32_t entity = 0;
    uint64_t pool_id = 0;
    if (!p.ReadVarint32(&entity) || !p.ReadVarint(&pool_id) ||
        entity >= g.NumNodes() || pool_id >= pool.size()) {
      return Corrupt("bad " + slot());
    }
    if (!g.IsEntity(entity))
      return Corrupt(slot() + " names value node " + std::to_string(entity));
    if (!ctx.keys_by_type_.contains(g.entity_type(entity))) {
      return Corrupt(slot() + " names an entity of an unkeyed type, " +
                     std::to_string(entity));
    }
    if (named[entity]) return Corrupt("bad " + slot());
    named[entity] = true;
    neighbor_nodes += pool[pool_id]->size();
    slots.emplace_back(entity, pool[pool_id]);
  }
  for (const auto& [type, key_ids] : ctx.keys_by_type_) {
    for (NodeId e : g.EntitiesOfType(type)) {
      if (!named[e]) {
        return Corrupt("keyed entity " + std::to_string(e) +
                       " has no d-neighbor slot");
      }
    }
  }
  if (neighbor_nodes != meta.neighbor_nodes) {
    return Corrupt("meta counts " + std::to_string(meta.neighbor_nodes) +
                   " d-neighbor nodes, but the slots' sets hold " +
                   std::to_string(neighbor_nodes));
  }
  // The same in-place write a compile's d-neighbor phase makes.
  ctx.dneighbors_.Write(g.NumNodes(), std::move(slots));
  ctx.neighbor_entities_ = num_slots;
  uint64_t num_candidates = 0;
  if (!p.ReadVarint(&num_candidates) ||
      num_candidates != meta.num_candidates) {
    return Corrupt("candidate count mismatch");
  }
  // Each candidate takes at least 3 bytes: two varints and a flag byte.
  if (num_candidates > p.remaining() / 3)
    return Corrupt("candidate count exceeds the plan record");
  const bool pairing = meta.plan_options.use_pairing;
  ctx.candidates_.reserve(num_candidates);
  // Each candidate's pairing output: the reduced sets from this record,
  // the relation from the product-graph records below.
  std::vector<PairingOutput> outputs(
      pairing || meta.has_product_graph ? num_candidates : 0);
  for (uint64_t i = 0; i < num_candidates; ++i) {
    uint32_t e1 = 0, e2 = 0;
    uint8_t flags = 0;
    if (!p.ReadVarint32(&e1) || !p.ReadVarint32(&e2) || !p.ReadU8(&flags) ||
        e1 >= g.NumNodes() || e2 >= g.NumNodes() || !g.IsEntity(e1)) {
      return Corrupt("bad candidate " + std::to_string(i));
    }
    // L is a set of same-type entity pairs (e1 < e2) sorted by (e1, e2):
    // the dependency index finds a candidate by binary search in it.
    if (e1 >= e2) {
      return Corrupt("candidate " + std::to_string(i) + " has e1 >= e2");
    }
    if (!g.IsEntity(e2) || g.entity_type(e2) != g.entity_type(e1)) {
      return Corrupt("candidate " + std::to_string(i) +
                     " pairs an entity with a node of another type");
    }
    if (i > 0 && PackPair(e1, e2) <= PackPair(ctx.candidates_.back().e1,
                                              ctx.candidates_.back().e2)) {
      return Corrupt("candidate " + std::to_string(i) +
                     " does not follow candidate " + std::to_string(i - 1) +
                     " in (e1, e2) order");
    }
    Candidate c;
    c.e1 = e1;
    c.e2 = e2;
    c.has_recursive_key = flags & 1;
    c.has_value_based_key = flags & 2;
    auto keys_it = ctx.keys_by_type_.find(g.entity_type(e1));
    if (keys_it == ctx.keys_by_type_.end())
      return Corrupt("candidate of unkeyed type");
    c.keys = keys_it->second.get();
    if (pairing) {
      uint64_t p1 = 0, p2 = 0;
      if (!p.ReadVarint(&p1) || !p.ReadVarint(&p2) || p1 >= pool.size() ||
          p2 >= pool.size()) {
        return Corrupt("bad candidate pool refs");
      }
      // Deduplicated entries may share one payload, which is fine —
      // nothing relies on pointer distinctness.
      outputs[i].r1 = pool[p1];
      c.nbr1 = outputs[i].r1.get();
      outputs[i].r2 = pool[p2];
      c.nbr2 = outputs[i].r2.get();
    } else {
      // Both ends are keyed entities, so both have a slot.
      c.nbr1 = &ctx.DNbr(e1);
      c.nbr2 = &ctx.DNbr(e2);
    }
    ctx.candidates_.push_back(c);
  }
  ctx.depends_on_pairs_.offsets.reserve(num_candidates + 1);
  for (uint64_t j = 0; j < num_candidates; ++j) {
    GKEYS_RETURN_IF_ERROR(ReadDependencyScan(
        p, j, g.NumNodes(), ctx.depends_on_pairs_.values));
    ctx.depends_on_pairs_.CloseRow();
  }
  if (!p.AtEnd()) return Corrupt("trailing bytes in plan record");
  ctx.candidates_initial_ = meta.candidates_initial;
  ctx.candidates_blocked_ = meta.candidates_blocked;
  ctx.neighbor_nodes_ = neighbor_nodes;
  ctx.neighbor_nodes_reduced_ = meta.neighbor_nodes_reduced;
  // Every candidate is new to the dependency index, as on a compile.
  const std::vector<int64_t> all_new(num_candidates, -1);
  std::vector<uint32_t> all_dirty(num_candidates);
  std::iota(all_dirty.begin(), all_dirty.end(), 0u);
  ctx.IndexDependencies(nullptr, {}, all_new, all_dirty);

  // Signature indexes. A stored source that is not a source of its key
  // fails the validity check of the first patch that reads it, and the
  // type's sources are chosen again.
  uint64_t sig_count = 0;
  Status scan = store.Scan("X", [&](std::string_view key,
                                    std::string_view value) -> Status {
    if (key.size() != 5) return Corrupt("bad sig-record key length");
    uint32_t type = GetBe32(key.data() + 1);
    if (type >= meta.num_symbols) return Corrupt("sig record for bad type");
    if (!ctx.keys_by_type_.contains(type)) {
      return Corrupt("sig record for type " + std::to_string(type) +
                     ", which has no key");
    }
    ByteReader r(value);
    uint8_t blockable = 0;
    uint64_t nkeys = 0;
    if (!r.ReadU8(&blockable) || !r.ReadVarint(&nkeys) ||
        nkeys > ctx.compiled_.size()) {
      return Corrupt("bad sig index header");
    }
    auto idx = std::make_shared<EmContext::SigIndex>();
    idx->blockable = blockable != 0;
    idx->keys.reserve(nkeys);
    for (uint64_t k = 0; k < nkeys; ++k) {
      EmContext::SigPerKey pk;
      uint64_t key_idx = 0;
      uint8_t has_constant = 0;
      if (!r.ReadVarint(&key_idx) || key_idx >= ctx.compiled_.size() ||
          !r.ReadU8(&has_constant)) {
        return Corrupt("bad sig key header");
      }
      pk.key = static_cast<int>(key_idx);
      if (has_constant != 0) {
        uint32_t c = 0;
        if (!r.ReadVarint32(&c) || c >= meta.num_nodes)
          return Corrupt("bad sig constant");
        pk.source.constant = c;
      }
      uint64_t path_len = 0;
      if (!r.ReadVarint(&path_len) || path_len > value.size())
        return Corrupt("bad sig path length");
      pk.source.path.reserve(path_len);
      for (uint64_t s = 0; s < path_len; ++s) {
        uint32_t pred = 0;
        uint8_t forward = 0;
        uint64_t to_node = 0;
        if (!r.ReadVarint32(&pred) || pred >= meta.num_symbols ||
            !r.ReadU8(&forward) || !r.ReadVarint(&to_node) ||
            to_node > INT32_MAX) {
          return Corrupt("bad sig path step");
        }
        pk.source.path.push_back(EmContext::SigStep{
            Symbol{pred}, forward != 0, static_cast<int>(to_node)});
      }
      idx->keys.push_back(std::move(pk));
    }
    if (!r.AtEnd()) return Corrupt("trailing bytes in sig record");
    ctx.sig_index_[type] = std::move(idx);
    ++sig_count;
    return Status::OK();
  });
  GKEYS_RETURN_IF_ERROR(scan);
  if (sig_count != meta.num_sig_types)
    return Corrupt("signature index count mismatch");

  // Product graph: restore each candidate's relation, then build Gp from
  // an empty one, as a compile does. A plan has a Gp exactly when its
  // options build one: Patch extends the source's Gp.
  if (meta.has_product_graph != meta.plan_options.build_product_graph)
    return Corrupt("product-graph flag disagrees with the plan options");
  if (meta.has_product_graph) {
    std::vector<std::shared_ptr<const PairingRelation>> rels;
    GKEYS_RETURN_IF_ERROR(ReadSection(
        store, 'R', meta.num_relations, "relation",
        [&](ByteReader& r, uint64_t) -> Status {
          uint64_t count = 0;
          if (!r.ReadVarint(&count) || count > r.remaining())
            return Corrupt("bad relation count");
          auto rel = std::make_shared<PairingRelation>();
          rel->reserve(count);
          for (uint64_t i = 0; i < count; ++i) {
            uint64_t packed = 0;
            if (!r.ReadVarint(&packed)) return Corrupt("bad relation entry");
            if ((packed >> 32) >= meta.num_nodes ||
                (packed & 0xffffffffu) >= meta.num_nodes) {
              return Corrupt("relation pair out of range");
            }
            rel->push_back(packed);
          }
          rels.push_back(std::move(rel));
          return Status::OK();
        }));
    auto g_blob = store.Get(Key1('G'));
    if (!g_blob.ok()) return Corrupt("missing product-graph record");
    ByteReader gr(*g_blob);
    uint64_t count = 0;
    if (!gr.ReadVarint(&count) || count != num_candidates)
      return Corrupt("product-graph candidate count mismatch");
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t rel_id = 0;
      if (!gr.ReadVarint(&rel_id) || rel_id >= rels.size() ||
          rels[rel_id] == nullptr) {
        return Corrupt("bad relation reference");
      }
      // Gp's build trusts what a pairing pass guarantees: a strictly
      // ascending relation that, unless empty, holds its candidate pair.
      const PairingRelation& rel = *rels[rel_id];
      auto unreplayable = [&](const std::string& problem) {
        return Corrupt("relation " + std::to_string(rel_id) +
                       " of candidate " + std::to_string(i) + " " + problem);
      };
      if (std::adjacent_find(rel.begin(), rel.end(),
                             std::greater_equal<uint64_t>()) != rel.end())
        return unreplayable("is not strictly ascending");
      const Candidate& c = ctx.candidates_[i];
      if (!rel.empty() &&
          !std::binary_search(rel.begin(), rel.end(), PackPair(c.e1, c.e2)))
        return unreplayable("lacks its candidate's pair");
      outputs[i].relation = rels[rel_id];
    }
    if (!gr.AtEnd()) return Corrupt("trailing bytes in product-graph record");
  }
  if (!outputs.empty()) {
    ctx.pairing_ =
        ChunkTable<PairingOutput>::Remap({}, all_new, std::move(outputs));
  }
  if (meta.has_product_graph) {
    const EmContext empty(EmContext::DeserializeShell{}, g, keys,
                          meta.plan_options);
    rep->pg.emplace(PatchProductGraph(ProductGraph(), empty, ctx,
                                      ContextPatchInfo(), {}));
  }

  return MatchPlan(std::shared_ptr<const MatchPlan::Rep>(std::move(rep)));
}

// ---- Result + provenance index ---------------------------------------

Status PlanCodec::EncodeResult(const MatchResult& result, Store& store,
                               SnapshotMeta* meta) {
  std::string a;
  PutVarint(a, result.pairs.size());
  for (const auto& [x, y] : result.pairs) {
    PutVarint(a, x);
    PutVarint(a, y);
  }
  GKEYS_RETURN_IF_ERROR(store.Put(Key1('A'), std::move(a)));
  std::string v;
  const ProvenanceIndex& index = result.derivations;
  for (size_t i = 0; i < index.size(); ++i) {
    const ProvenanceIndex::Head& d = index.heads[i];
    PutVarint(v, d.e1);
    PutVarint(v, d.e2);
    PutVarint(v, static_cast<uint64_t>(d.key + 1));  // -1 encodes as 0
    PutVarint(v, index.premises[i].size());
    for (const auto& [x, y] : index.premises[i]) {
      PutVarint(v, x);
      PutVarint(v, y);
    }
    PutVarint(v, index.triples[i].size());
    for (const WitnessTriple& t : index.triples[i]) {
      PutVarint(v, t.s);
      PutVarint(v, t.p);
      PutVarint(v, t.o);
    }
  }
  GKEYS_RETURN_IF_ERROR(store.Put(Key1('V'), std::move(v)));
  meta->num_pairs = result.pairs.size();
  meta->num_derivations = result.derivations.size();
  return Status::OK();
}

StatusOr<MatchResult> PlanCodec::DecodeResult(const Store& store,
                                              const SnapshotMeta& meta) {
  MatchResult result;
  auto a_blob = store.Get(Key1('A'));
  if (!a_blob.ok()) return Corrupt("missing result record");
  ByteReader a(*a_blob);
  uint64_t num_pairs = 0;
  if (!a.ReadVarint(&num_pairs) || num_pairs != meta.num_pairs ||
      num_pairs > a_blob->size()) {  // each pair takes >= 2 bytes
    return Corrupt("result pair count mismatch");
  }
  result.pairs.reserve(num_pairs);
  for (uint64_t i = 0; i < num_pairs; ++i) {
    uint32_t x = 0, y = 0;
    if (!a.ReadVarint32(&x) || !a.ReadVarint32(&y) || x >= meta.num_nodes ||
        y >= meta.num_nodes) {
      return Corrupt("bad result pair");
    }
    result.pairs.emplace_back(x, y);
  }
  if (!a.AtEnd()) return Corrupt("trailing bytes in result record");

  // Derivations in index order, the order retraction replays, appended
  // straight into the flat index.
  ProvenanceIndex& index = result.derivations;
  GKEYS_RETURN_IF_ERROR(ReadSection(
      store, 'V', meta.num_derivations, "derivation",
      [&](ByteReader& r, uint64_t) -> Status {
        uint32_t e1 = 0, e2 = 0;
        uint64_t key_plus_1 = 0, n = 0;
        if (!r.ReadVarint32(&e1) || !r.ReadVarint32(&e2) ||
            !r.ReadVarint(&key_plus_1) || e1 >= meta.num_nodes ||
            e2 >= meta.num_nodes || key_plus_1 > INT32_MAX) {
          return Corrupt("bad derivation header");
        }
        index.heads.push_back(ProvenanceIndex::Head{
            e1, e2, static_cast<int>(key_plus_1) - 1});
        if (!r.ReadVarint(&n) || n > r.remaining())
          return Corrupt("bad premise count");
        for (uint64_t i = 0; i < n; ++i) {
          uint32_t x = 0, y = 0;
          if (!r.ReadVarint32(&x) || !r.ReadVarint32(&y) ||
              x >= meta.num_nodes || y >= meta.num_nodes) {
            return Corrupt("bad premise");
          }
          index.premises.values.emplace_back(x, y);
        }
        index.premises.CloseRow();
        if (!r.ReadVarint(&n) || n > r.remaining())
          return Corrupt("bad witness-triple count");
        for (uint64_t i = 0; i < n; ++i) {
          uint32_t s = 0, p = 0, o = 0;
          if (!r.ReadVarint32(&s) || !r.ReadVarint32(&p) ||
              !r.ReadVarint32(&o) || s >= meta.num_nodes ||
              p >= meta.num_symbols || o >= meta.num_nodes) {
            return Corrupt("bad witness triple");
          }
          index.triples.values.push_back(WitnessTriple{s, Symbol{p}, o});
        }
        index.triples.CloseRow();
        return Status::OK();
      }));
  // Stats are not persisted; confirmed mirrors the stored pair set.
  result.stats.confirmed = result.pairs.size();
  return result;
}

}  // namespace storage
}  // namespace gkeys
