#ifndef GKEYS_GRAPH_GRAPH_H_
#define GKEYS_GRAPH_GRAPH_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/status.h"

namespace gkeys {

/// Node identifier within a Graph. Entities and values share one id space.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = UINT32_MAX;

/// A node is either an entity (has a type from Θ and a unique id) or a
/// value from D (paper §2.1). Two entities are the same node iff they have
/// the same ID (node identity ⇔); equal values are represented by one node
/// (value equality =).
enum class NodeKind : uint8_t { kEntity, kValue };

/// One directed labeled edge in an adjacency list.
struct Edge {
  Symbol pred;
  NodeId dst;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.pred == b.pred && a.dst == b.dst;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    return a.pred != b.pred ? a.pred < b.pred : a.dst < b.dst;
  }
};

/// One triple (s, p, o): subject entity, predicate, object entity-or-value.
struct Triple {
  NodeId subject;
  Symbol pred;
  NodeId object;

  friend bool operator==(const Triple& a, const Triple& b) {
    return a.subject == b.subject && a.pred == b.pred && a.object == b.object;
  }
};

class GraphDelta;

/// A directed edge-labeled graph over triples (paper §2.1).
///
/// Construction: AddEntity / AddValue / AddTriple, then Finalize(). This
/// is the one way a graph is built: generators, the text parser,
/// snapshot decoding and fusion all go through it. Until
/// the first Finalize() the added triples sit in one flat list, in
/// insertion order and with duplicates; nodes have no adjacency of their
/// own yet. That Finalize() builds both CSR directions by counting sort
/// straight into fixed spans of kChunkNodes node ids: each chunk holds
/// 32-bit offsets local to the chunk plus one contiguous edge array.
/// Count each node's edges, prefix-sum the counts into the chunk's
/// offsets, scatter the triples into place, then sort and deduplicate
/// each node's run. The BFS / pairing / isomorphism inner loops then scan
/// cache-line-contiguous memory instead of chasing one heap allocation
/// per node; Out(n) and In(n) read chunk n / kChunkNodes.
///
/// Before the first Finalize(), HasTriple, RemoveTriple and ForEachTriple
/// work over the flat list (linear scans; ForEachTriple visits insertion
/// order, duplicates included). Out(), In() and the degree queries
/// require a graph finalized at least once: a debug build asserts it, a
/// release build returns empty adjacency.
///
/// Mutating a finalized graph thaws only the touched nodes: their
/// adjacency is copied out of the CSR into a per-node overlay and edited
/// there, while every other node keeps serving straight from the CSR.
/// The next Finalize() rewrites only the chunks that hold a thawed or a
/// new node id, inside their own arrays: clean runs shift in blocks and
/// the overlay runs land in the gaps; no other chunk's arrays are read
/// or written. A re-finalize thus costs the dirty chunks, not the graph,
/// and allocates only when a chunk outgrows its arrays. Apply returns
/// the touched nodes, sorted, so incremental consumers (MatchPlan::Patch)
/// can recompile exactly the affected region.
///
/// Strings (types, predicates, values) are interned in a per-graph
/// StringInterner so they compare by integer.
class Graph {
 public:
  /// Node ids per CSR chunk. A re-finalize rewrites the chunks holding a
  /// dirty id, so a smaller span moves fewer bystanders' edges per dirty
  /// id, and makes the chunk table larger. On 4-triple commits into the
  /// Google sim (every 50th triple re-added, EMOptVC, p = 2; 4-vCPU host)
  /// an Apply allocates 5–8 KiB on average and takes 0.04 ms paced at 15
  /// commits/s at spans 64, 256 and 1024 alike, from 30k to 486k nodes.
  /// A cold parse of the 133k-triple DBpedia sim read 20% slower at 64,
  /// which allocates four times the chunks, and level with one flat array
  /// at 256 and 1024 (compile and run within the host's noise at all
  /// three): 256 is the smallest span that keeps the cold path level.
  static constexpr size_t kChunkNodes = 256;

  Graph() = default;

  // Copyable (tests/generators duplicate graphs); moves are O(1).
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  // ---- Construction ----

  /// Interns a string in this graph's symbol table.
  Symbol Intern(std::string_view s) { return interner_.Intern(s); }

  /// Adds a fresh entity node of the given type. Every call creates a new
  /// entity (entities are identified by NodeId, not by their labels).
  NodeId AddEntity(Symbol type);
  NodeId AddEntity(std::string_view type) { return AddEntity(Intern(type)); }

  /// Adds (or returns the existing) value node for a literal. Equal values
  /// map to the same node, per value equality.
  NodeId AddValue(std::string_view value);

  /// Adds triple (s, p, o). The subject must be an entity node.
  Status AddTriple(NodeId s, Symbol p, NodeId o);
  Status AddTriple(NodeId s, std::string_view p, NodeId o) {
    return AddTriple(s, Intern(p), o);
  }

  /// Removes triple (s, p, o); NotFound if it is not present. On a
  /// finalized graph only the two endpoints thaw (see class comment).
  Status RemoveTriple(NodeId s, Symbol p, NodeId o);
  Status RemoveTriple(NodeId s, std::string_view p, NodeId o) {
    return RemoveTriple(s, Intern(p), o);
  }

  /// Sorts and deduplicates adjacency and freezes it into CSR chunks.
  /// After post-finalize mutations, rewrites only the chunks holding a
  /// dirty node (their clean runs are moved in blocks, not re-sorted and
  /// not looked up). Idempotent.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Applies `delta` (built against this graph via GraphDelta's staging
  /// API) and re-finalizes: new entities/values are materialized with
  /// exactly the NodeIds the delta staged, triples are added/removed
  /// through the per-node thaw path, and the dirty CSR chunks rewritten.
  /// Returns the sorted dirty node set (endpoints of every added/removed
  /// triple plus all new nodes) — the input MatchPlan::Patch consumes.
  /// All or nothing: every removal is checked before anything changes,
  /// so on error the graph is exactly as it was. Errors: InvalidArgument
  /// when the delta was staged against a graph with a different node
  /// count; NotFound when a removed triple is neither in the graph nor
  /// among the delta's adds (adds run first), or is removed twice.
  StatusOr<std::vector<NodeId>> Apply(const GraphDelta& delta);

  // ---- Queries ----

  size_t NumNodes() const { return kinds_.size(); }
  size_t NumEntities() const { return num_entities_; }
  size_t NumValues() const { return NumNodes() - num_entities_; }
  /// |G|: number of triples.
  size_t NumTriples() const { return num_triples_; }

  NodeKind kind(NodeId n) const { return kinds_[n]; }
  bool IsEntity(NodeId n) const { return kinds_[n] == NodeKind::kEntity; }
  bool IsValue(NodeId n) const { return kinds_[n] == NodeKind::kValue; }

  /// Entity type symbol; kNoSymbol for value nodes.
  Symbol entity_type(NodeId n) const { return labels_[n]; }

  /// Literal symbol of a value node; kNoSymbol for entities.
  Symbol value_sym(NodeId n) const {
    return IsValue(n) ? labels_[n] : kNoSymbol;
  }

  /// Literal string of a value node.
  const std::string& value_str(NodeId n) const {
    return interner_.Resolve(labels_[n]);
  }

  /// Outgoing / incoming labeled edges of a node (sorted while
  /// finalized()). Requires a graph finalized at least once.
  std::span<const Edge> Out(NodeId n) const {
    assert(csr_built_ && "Out() before the first Finalize()");
    if (!out_overlay_.empty()) {
      auto it = out_overlay_.find(n);
      if (it != out_overlay_.end()) return it->second;
    }
    return n < csr_nodes_ ? CsrRun(out_csr_, n) : std::span<const Edge>();
  }
  std::span<const Edge> In(NodeId n) const {
    assert(csr_built_ && "In() before the first Finalize()");
    if (!in_overlay_.empty()) {
      auto it = in_overlay_.find(n);
      if (it != in_overlay_.end()) return it->second;
    }
    return n < csr_nodes_ ? CsrRun(in_csr_, n) : std::span<const Edge>();
  }

  size_t OutDegree(NodeId n) const { return Out(n).size(); }
  size_t InDegree(NodeId n) const { return In(n).size(); }

  /// Whether triple (s, p, o) is in G. O(log deg) after Finalize(); a
  /// scan of the flat list before the first one.
  bool HasTriple(NodeId s, Symbol p, NodeId o) const;

  /// Entities of a given type (empty if none). Stable insertion order.
  std::span<const NodeId> EntitiesOfType(Symbol type) const;

  /// Looks up the node for a literal value, or kNoNode.
  NodeId FindValue(std::string_view value) const;

  /// All entity types present in the graph.
  std::vector<Symbol> EntityTypes() const;

  /// Invokes fn(Triple) for every triple, grouped by subject; before the
  /// first Finalize(), in insertion order instead.
  template <typename Fn>
  void ForEachTriple(Fn&& fn) const {
    if (!csr_built_) {
      for (const Triple& t : build_) fn(t);
      return;
    }
    for (NodeId s = 0; s < NumNodes(); ++s) {
      for (const Edge& e : Out(s)) fn(Triple{s, e.pred, e.dst});
    }
  }

  const StringInterner& interner() const { return interner_; }
  StringInterner& interner() { return interner_; }

  /// Human-readable node description for logging and examples.
  std::string DescribeNode(NodeId n) const;

 private:
  static constexpr int kChunkShift = std::countr_zero(kChunkNodes);
  static_assert(std::has_single_bit(kChunkNodes));

  /// kChunkNodes consecutive node ids of one CSR direction (the last
  /// chunk may hold fewer): local node i's edges live at
  /// [offsets[i], offsets[i + 1]) of `edges`, sorted by (pred, dst) and
  /// deduplicated.
  struct Chunk {
    std::vector<uint32_t> offsets;
    std::vector<Edge> edges;
  };
  using Csr = std::vector<Chunk>;
  using Overlay = std::unordered_map<NodeId, std::vector<Edge>>;

  /// Node n's run in `csr`; n must lie below csr_nodes_.
  static std::span<const Edge> CsrRun(const Csr& csr, NodeId n) {
    const Chunk& c = csr[n >> kChunkShift];
    const size_t i = n & (kChunkNodes - 1);
    return {c.edges.data() + c.offsets[i], c.offsets[i + 1] - c.offsets[i]};
  }

  /// Finalize() without emptying dirty_nodes_, which it leaves sorted
  /// and deduplicated for Apply to hand out.
  void Freeze();
  /// First finalization of one direction: counting sort of the flat
  /// triple list (keyed by subject for out-edges, by object for
  /// in-edges) into fresh chunks. Returns the edges kept.
  size_t BuildCsr(bool out, Csr& csr) const;
  /// Re-finalization of one direction: rewrites each chunk holding a
  /// node of `overlay` or a node past the old CSR, and empties
  /// `overlay`. Returns the duplicate edges the overlay runs' dedup
  /// dropped.
  size_t RewriteDirtyChunks(Overlay& overlay, Csr& csr);

  /// Thaws node `n` only: copies its CSR run into the overlay (first
  /// mutation after Finalize) and returns the editable vector. Marks the
  /// graph unfinalized and records n as dirty.
  std::vector<Edge>& ThawNode(Overlay& overlay, const Csr& csr, NodeId n);
  /// Registers a brand-new node added after finalization.
  void TouchNewNode(NodeId n);

  StringInterner interner_;
  std::vector<NodeKind> kinds_;
  // Entity type symbol for entities; literal symbol for values.
  std::vector<Symbol> labels_;
  // Triples added before the first Finalize(), which empties it.
  std::vector<Triple> build_;
  // Finalized CSR adjacency, chunk n >> kChunkShift holding node n.
  Csr out_csr_;
  Csr in_csr_;
  // Per-node thaw: dirty nodes' true adjacency while the CSR is stale for
  // them. Emptied by Finalize()'s chunk rewrite.
  Overlay out_overlay_;
  Overlay in_overlay_;
  // Nodes touched since the last Finalize (may contain duplicates until
  // Finalize() sorts them).
  std::vector<NodeId> dirty_nodes_;
  std::unordered_map<Symbol, NodeId> value_nodes_;
  std::unordered_map<Symbol, std::vector<NodeId>> by_type_;
  size_t num_entities_ = 0;
  size_t num_triples_ = 0;
  // Node count the CSR chunks cover (nodes added later have no run yet
  // and live entirely in the overlay).
  size_t csr_nodes_ = 0;
  // CSR chunks exist (the graph was finalized at least once).
  bool csr_built_ = false;
  // No pending mutations AND the CSR is current.
  bool finalized_ = false;
};

}  // namespace gkeys

#endif  // GKEYS_GRAPH_GRAPH_H_
