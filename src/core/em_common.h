#ifndef GKEYS_CORE_EM_COMMON_H_
#define GKEYS_CORE_EM_COMMON_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "eq/equivalence.h"
#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "isomorph/eval_search.h"
#include "keys/key.h"
#include "pattern/pattern.h"
#include "pattern/tour.h"

namespace gkeys {

namespace storage {
class PlanCodec;  // snapshot (de)serialization, src/storage/plan_codec.h
}  // namespace storage
class MatchPlan;     // src/core/match_plan.h

/// Which entity-matching algorithm to run (paper §6 "Algorithms").
enum class Algorithm {
  kNaiveChase,  // sequential chase (§3.1), exhaustive enumeration
  kEmMr,        // EMMR        (§4.1)
  kEmVf2Mr,     // EMVF2MR     (EMMR with VF2 full enumeration, no early stop)
  kEmOptMr,     // EMOptMR     (EMMR + §4.2 optimizations)
  kEmVc,        // EMVC        (§5.1)
  kEmOptVc,     // EMOptVC     (EMVC + §5.2 optimizations)
};

std::string AlgorithmName(Algorithm a);

/// Options that shape plan *compilation* (the expensive preparation phase
/// every algorithm shares — DriverMR line 1). An EmContext keeps the set
/// it was compiled with. Run-time knobs (algorithm, bounded messages,
/// prioritization, VF2, …) are EmOptions on the Matcher instead, so one
/// compiled plan serves many differently-configured runs.
struct PlanOptions {
  /// Worker threads used while compiling the plan (d-neighbors, pairing,
  /// dependency index are all built in parallel), 1 to kMaxProcessors.
  /// Purely a compile-time resource choice; it does not constrain later
  /// runs.
  int processors = 1;

  /// §4.2 / Prop. 9: filter the candidate list L down to pairable pairs
  /// and shrink d-neighbors with the maximum pairing relation. Baked into
  /// the plan because it determines the candidate and neighbor structures.
  /// Leave on unless reproducing the un-optimized EMMR/EMVF2MR baselines.
  bool use_pairing = true;

  /// Signature blocking: enumerate only same-type pairs that share at
  /// least one (predicate, value) signature some key requires on the
  /// designated variable, instead of all O(n²) same-type pairs. Two
  /// entities can only be identified by a key whose value variables /
  /// constants adjacent to x they agree on, so skipped pairs are provably
  /// not directly identifiable (the same guarantee Prop. 9 gives the
  /// pairing filter); types carrying a purely recursive / variable-only
  /// key fall back to full enumeration, and skipped pairs stay visible to
  /// ghost/dependency tracking. Output-preserving for every algorithm;
  /// baked into the plan because it shapes the candidate list. Leave on
  /// unless reproducing exhaustive-enumeration baselines.
  bool use_blocking = true;

  /// Build the product-graph skeleton Gp (§5.1) at compile time. Required
  /// to run the EMVC family from this plan; the MapReduce family and the
  /// naive chase ignore it.
  bool build_product_graph = true;

  /// The compilation preset matching a paper algorithm: pairing per the
  /// algorithm's §4.2/§5.1 prescription, no blocking for the naive chase
  /// (it enumerates exhaustively), product graph only for EMVC.
  static PlanOptions For(Algorithm a, int p);
};

/// Run-time tunables shared by the algorithm family.
struct EmOptions {
  /// Number of processors p (worker threads), 1 to kMaxProcessors.
  int processors = 1;
  /// EMMR family: replace the combined EvalMR search by VF2 enumeration.
  bool use_vf2 = false;
  /// §4.2: process pairs carrying only value-based keys first (L0 seeds).
  bool use_dependency = false;
  /// §4.2: re-check a pair only in round 1 or after a dependency changed.
  bool use_incremental = false;
  /// §5.2: per-(pair, key) message budget k; 0 = unbounded (plain EMVC).
  int bounded_messages = 0;
  /// §5.2: prioritized propagation (highest-potential edges first).
  bool prioritized = false;
  /// Graceful-degradation budget: when > 0, the run checks a wall-clock
  /// deadline at the top of every fixpoint round and returns
  /// kDeadlineExceeded once the budget is spent. A streaming sink keeps
  /// every pair emitted so far — the partial result is usable, exactly
  /// like cooperative cancellation. A run that completes within budget
  /// never fails, even if it finishes at the wire (the check precedes
  /// rounds, not follows them). 0 = unbounded. Like every run option it
  /// is not persisted: a snapshot keeps the algorithm and the plan's
  /// PlanOptions (storage/plan_codec.h).
  double time_budget_seconds = 0.0;

  /// Presets matching the paper's five evaluated algorithms.
  static EmOptions For(Algorithm a, int p);
};

/// Upper bound on EmOptions::processors and PlanOptions::processors,
/// checked by Matcher::Run, Matcher::Compile and the snapshot decoder.
/// It is far above every measured configuration (p ≤ 8), and it keeps a
/// typo from asking for p × p MapReduce spill buckets per round or
/// thousands of vertex-centric worker threads.
inline constexpr int kMaxProcessors = 256;

/// Counters the benchmark harness reports (paper Table 2 and the
/// optimization-effectiveness narratives in §6).
struct EmStats {
  size_t candidates_initial = 0;   // |L| enumerated (after blocking)
  size_t candidates_blocked = 0;   // same-type pairs skipped by blocking
  size_t candidates = 0;           // |L| actually processed
  size_t confirmed = 0;            // identified entity pairs in chase(G,Σ)
  size_t rounds = 0;               // MapReduce rounds / engine runs
  uint64_t iso_checks = 0;         // key-identification checks performed
  uint64_t messages = 0;           // vertex-centric messages sent
  size_t product_graph_nodes = 0;  // |Vp|
  size_t product_graph_edges = 0;  // |Ep|
  uint64_t neighbor_nodes = 0;   // Σ |Gd| over candidate entities
  uint64_t neighbor_nodes_reduced = 0;  // after pairing reduction
  SearchStats search;
  // ---- Incremental re-matching accounting (Matcher::Rematch) ----------
  size_t rematch_seeded = 0;       // 1: a Rematch, seeded from prev
  size_t derivations_retracted = 0;  // removal handling: over-deleted
  /// Pairs of the previous result absent from this one (Rematch only) —
  /// the exact retractions a removal delta caused, net of re-derivation.
  /// Matches the OnPairRetracted callback count; 0 for additive deltas
  /// (identification is monotone in G).
  size_t pairs_retracted = 0;
  double prep_seconds = 0.0;       // DriverMR line 1 work
  double run_seconds = 0.0;        // fixpoint computation
};

/// One graph triple a witness realized. Recorded with the predicate as a
/// graph Symbol, so validity on a mutated graph is one HasTriple probe.
struct WitnessTriple {
  NodeId s;
  Symbol p;
  NodeId o;
  friend bool operator==(const WitnessTriple& a, const WitnessTriple& b) {
    return a.s == b.s && a.p == b.p && a.o == b.o;
  }
  friend bool operator<(const WitnessTriple& a, const WitnessTriple& b) {
    return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
  }
};

/// One direct identification together with everything it depends on — a
/// node of the paper's §3.1 proof graphs, compact enough to keep for every
/// run. `premises` are the non-reflexive entity-variable equalities the
/// witness consumed (each derived earlier, directly or transitively);
/// `triples` are the graph triples the witness realized on either side.
/// A derivation stays valid on a mutated graph iff all its triples still
/// exist and all its premises are still derivable — exactly what
/// RetractDerivations (core/provenance.h) replays under removal deltas.
struct Derivation {
  NodeId e1, e2;  // the identified pair, e1 < e2
  /// Compiled-key index (EmContext::compiled_keys()) that fired.
  int key = -1;
  /// Entity-variable equalities used, each (min, max), reflexive omitted.
  std::vector<std::pair<NodeId, NodeId>> premises;
  /// Graph triples realized by the witness (both sides, deduplicated).
  std::vector<WitnessTriple> triples;
};

/// Rows of values in one flat array: row i is
/// values[offsets[i], offsets[i + 1]). The graph and Gp store their
/// adjacency the same way.
template <typename T>
struct Rows {
  std::vector<size_t> offsets{0};
  std::vector<T> values;

  size_t size() const { return offsets.size() - 1; }
  std::span<const T> operator[](size_t i) const {
    return {values.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  /// Ends row size() - 1 at the current end of `values`.
  void CloseRow() { offsets.push_back(values.size()); }
  /// Appends `row` as a new last row.
  void AddRow(std::span<const T> row) {
    values.insert(values.end(), row.begin(), row.end());
    CloseRow();
  }
  /// Appends every row of `from`: one block copy of its values.
  void AddRows(const Rows& from) {
    const size_t base = values.size();
    values.insert(values.end(), from.values.begin(), from.values.end());
    for (size_t i = 1; i < from.offsets.size(); ++i) {
      offsets.push_back(base + from.offsets[i]);
    }
  }
  void Reserve(size_t rows, size_t num_values) {
    offsets.reserve(offsets.size() + rows);
    values.reserve(values.size() + num_values);
  }
  void Clear() {
    offsets.assign(1, 0);
    values.clear();
  }
  size_t MemoryBytes() const {
    return offsets.capacity() * sizeof(size_t) +
           values.capacity() * sizeof(T);
  }
  friend bool operator==(const Rows&, const Rows&) = default;
};

/// Groups `v` by row_of(e) in [0, rows), each row's entries kept in
/// their order in `v`: a stable sort while `v` holds fewer than rows / 16
/// entries (a patch's few edits), else a counting pass over the rows (a
/// compile or load edits every row). Timed on 4.6k to 50k rows with
/// 8- and 12-byte entries, the two cross over between rows / 32 and
/// rows / 16; at rows / 8 the counting pass is 2 to 7 times faster.
template <class T, class RowOf>
void GroupByRow(std::vector<T>& v, size_t rows, RowOf row_of) {
  if (v.size() < rows / 16) {
    std::stable_sort(v.begin(), v.end(), [&](const T& a, const T& b) {
      return row_of(a) < row_of(b);
    });
    return;
  }
  std::vector<size_t> at(rows + 1, 0);
  for (const T& e : v) ++at[row_of(e) + 1];
  for (size_t r = 0; r < rows; ++r) at[r + 1] += at[r];
  std::vector<T> grouped(v.size());
  for (T& e : v) {
    const size_t row = row_of(e);
    grouped[at[row]++] = std::move(e);
  }
  v.swap(grouped);
}

/// A provenance index, flat: one head per derivation, with the
/// derivations' premises and witness triples as rows (row i belongs to
/// heads[i]). Readers see entry i as heads[i], premises[i] and
/// triples[i]. Copying or freeing an index costs one block copy or free
/// per array, however many derivations it holds.
struct ProvenanceIndex {
  /// The identified pair (e1 < e2) and the compiled key that fired
  /// (EmContext::compiled_keys()).
  struct Head {
    NodeId e1, e2;
    int key = -1;
    friend bool operator==(const Head&, const Head&) = default;
  };
  std::vector<Head> heads;
  Rows<std::pair<NodeId, NodeId>> premises;
  Rows<WitnessTriple> triples;

  size_t size() const { return heads.size(); }
  bool empty() const { return heads.empty(); }
  /// Appends one derivation.
  void Append(const Derivation& d);
  /// Appends entry i of `from`.
  void Append(const ProvenanceIndex& from, size_t i);
  /// Appends every entry of `from`, one block copy per array.
  void Append(const ProvenanceIndex& from);
  /// Reserves room for `entries` more derivations holding `num_premises`
  /// premises and `num_triples` witness triples between them.
  void Reserve(size_t entries, size_t num_premises, size_t num_triples);
  friend bool operator==(const ProvenanceIndex&,
                         const ProvenanceIndex&) = default;
};

/// The output of entity matching: chase(G, Σ).
struct MatchResult {
  /// All identified pairs (a, b), a < b, sorted — the non-reflexive part
  /// of chase(G, Σ).
  std::vector<std::pair<NodeId, NodeId>> pairs;
  /// Per-derivation provenance index, recorded by every run: one entry
  /// per direct identification (fired key, premises, witness triples), in
  /// an order where every premise is supported by earlier entries'
  /// transitive closure. The Eq-closure of the recorded merges equals
  /// `pairs`. Feed the whole result back into Matcher::Rematch so removal
  /// deltas can retract exactly the derivations a removed triple
  /// invalidates. Flat, so a seeded rematch carries it forward with one
  /// block copy per array.
  ProvenanceIndex derivations;
  EmStats stats;
};

/// Approximate heap footprint of a provenance index in bytes: the sum of
/// its array capacities, matching EmContext::MemoryBytes. Added to
/// MatchPlan::memory_bytes() it is the `plan_bytes` figure the workload
/// and bench rows report: everything a seeded rematch keeps resident.
size_t ProvenanceIndexBytes(const ProvenanceIndex& derivations);

/// Observer for streaming runs (Matcher::Run(plan, sink)): receives every
/// confirmed pair exactly once, a progress snapshot after every round of
/// the fixpoint, and is polled for cooperative cancellation.
///
/// Callbacks are invoked from the driver thread between rounds — never
/// concurrently — so implementations need no locking of their own.
/// Transitively implied pairs (Eq closure) are streamed in the round whose
/// merges implied them.
class MatchSink {
 public:
  virtual ~MatchSink() = default;

  /// A newly confirmed duplicate pair (a < b). Called exactly once per
  /// pair of the final chase(G, Σ).
  virtual void OnPair(NodeId a, NodeId b) { (void)a; (void)b; }

  /// Called at least once per fixpoint round with cumulative statistics
  /// (rounds, confirmed, iso_checks/messages so far).
  virtual void OnProgress(const EmStats& progress) { (void)progress; }

  /// A previously identified pair (a < b) no longer in chase(G, Σ) after
  /// a removal delta. Invoked by Matcher::Rematch only — once per lost
  /// pair, after the new fixpoint completed (so a retraction is final:
  /// pairs the over-deletion re-derived are never reported), before
  /// Rematch returns. Streams under additive deltas never retract
  /// (identification is monotone in G). The count is also reported as
  /// EmStats::pairs_retracted.
  virtual void OnPairRetracted(NodeId a, NodeId b) { (void)a; (void)b; }

  /// Polled between rounds; return true to stop the run. A cancelled run
  /// surfaces as StatusCode::kCancelled and the sink keeps every pair
  /// streamed so far.
  virtual bool cancelled() { return false; }
};

/// Seed for an incremental re-run (Matcher::Rematch): the engines start
/// from a retained fixpoint instead of Eq0 and re-check only the active
/// candidates, letting the existing dependency/ghost wake-up machinery
/// cascade into clean pairs that new merges enable.
///
/// For an additive delta the retained fixpoint is the whole previous
/// result (key identification is monotone in G — adding triples never
/// removes a match). For a delta that removed triples, Matcher::Rematch
/// first retracts the previous derivations a removed triple invalidates
/// (DRed-style over-deletion, see RetractDerivations in core/provenance.h)
/// and seeds from the surviving ones; `active` then additionally contains
/// every candidate whose pair was retracted, so survivors of the
/// over-deletion are re-derived by the normal fixpoint. Soundness only
/// needs prev_pairs ⊆ chase(G', Σ); completeness needs `active` to cover
/// every candidate whose outcome can have changed — both hold by
/// construction, so the result stays byte-identical to a from-scratch run.
struct RematchSeed {
  /// The retained pairs, (a, b) with a < b < NumNodes(), strictly
  /// ascending (Matcher::Rematch checks this): unioned into Eq up front,
  /// streamed as already-emitted (sinks see only pairs beyond this
  /// seed). The result lists its pairs from the seed unions and the
  /// run's merges, so a run pays for the classes it touched, not for
  /// every node. Closed under transitivity, as a result's pairs and a
  /// retraction's seed_pairs are: a sink's stream counts every pair of
  /// the seed's classes as streamed, so under a sink an unclosed seed
  /// fails the run with InvalidArgument before any callback.
  std::span<const std::pair<NodeId, NodeId>> prev_pairs;
  /// Candidate indices to re-check initially: a patched plan's
  /// dirty_candidates(), plus the retracted candidates under removals.
  std::span<const uint32_t> active;
  /// The provenance index carried over from the previous result — every
  /// derivation still valid on the post-delta graph; null carries none.
  /// The shell copies it ahead of the derivations this run records, one
  /// block copy per array, so MatchResult::derivations stays a complete,
  /// replayable index across chained rematches.
  const ProvenanceIndex* carried = nullptr;
};

/// A candidate pair from L with its per-pair working set. The neighbor
/// sets are owned by the EmContext (shared per-entity d-neighbors, or
/// per-pair pairing-reduced sets) and outlive the candidate.
struct Candidate {
  NodeId e1, e2;
  /// Indices into EmContext::compiled of keys defined on this pair's type.
  const std::vector<int>* keys = nullptr;
  /// Search restriction per side: the d-neighbor of e1 / e2, possibly
  /// reduced by pairing (§4.2).
  const NodeSet* nbr1 = nullptr;
  const NodeSet* nbr2 = nullptr;
  /// Whether any recursive key is defined on the pair.
  bool has_recursive_key = false;
  /// Whether any value-based key is defined on the pair (L0 membership).
  bool has_value_based_key = false;
};

/// A table of values by position (a node id or a candidate position) in
/// immutable chunks of kSpan positions, shared by a plan and the plans
/// patched from it, so an edit copies one pointer per chunk and clones
/// only the chunks whose positions it changes: a carried value is
/// neither copied nor reference-counted. A chunk no value was written to
/// stays null, and its positions read V{}.
template <typename V>
class ChunkTable {
 public:
  /// The number of positions.
  size_t size() const { return size_; }
  /// The value of position i (< size()).
  const V& operator[](size_t i) const {
    const auto& chunk = chunks_[i >> kBits];
    return chunk != nullptr ? chunk->values[i & (kSpan - 1)] : kNone;
  }

  /// The table of new_to_old.size() positions remapped from prev:
  /// position i takes prev's value at position new_to_old[i] when that
  /// is >= 0, else the next value of `fresh` (the values of the other
  /// positions, in position order). A chunk is shared with prev when
  /// each position it covers is carried from the same position and
  /// prev's chunk covers as many positions. With an empty prev every
  /// chunk is built.
  static ChunkTable Remap(const ChunkTable& prev,
                          std::span<const int64_t> new_to_old,
                          std::vector<V> fresh) {
    ChunkTable t;
    const size_t n = new_to_old.size();
    t.size_ = n;
    t.chunks_.reserve((n + kSpan - 1) >> kBits);
    size_t next_fresh = 0;
    for (size_t begin = 0; begin < n; begin += kSpan) {
      const size_t end = std::min(n, begin + kSpan);
      bool same = begin < prev.size_ &&
                  std::min(prev.size_, begin + kSpan) == end;
      for (size_t i = begin; same && i < end; ++i) {
        same = new_to_old[i] == static_cast<int64_t>(i);
      }
      if (same) {
        t.chunks_.push_back(prev.chunks_[begin >> kBits]);
        continue;
      }
      auto chunk = std::make_shared<Chunk>();
      for (size_t i = begin; i < end; ++i) {
        // Not a ?: of the two: its result would be a const temporary, so
        // a fresh value would be copied, not moved.
        V& slot = chunk->values[i - begin];
        if (new_to_old[i] >= 0) {
          slot = prev[new_to_old[i]];
        } else {
          slot = std::move(fresh[next_fresh++]);
        }
      }
      t.chunks_.push_back(std::move(chunk));
    }
    return t;
  }

  /// Grows the table to `size` positions (new chunks null) and writes
  /// each (position, value) of `writes`, which names a position at most
  /// once, in place: every chunk it names is cloned (or made, if null)
  /// once, and every other chunk stays shared.
  void Write(size_t size, std::vector<std::pair<uint32_t, V>> writes) {
    size_ = size;
    chunks_.resize((size + kSpan - 1) >> kBits);
    GroupByRow(writes, chunks_.size(),
               [](const auto& w) { return w.first >> kBits; });
    for (size_t i = 0; i < writes.size();) {
      const size_t c = writes[i].first >> kBits;
      auto chunk = chunks_[c] != nullptr ? std::make_shared<Chunk>(*chunks_[c])
                                         : std::make_shared<Chunk>();
      for (; i < writes.size() && writes[i].first >> kBits == c; ++i) {
        chunk->values[writes[i].first & (kSpan - 1)] =
            std::move(writes[i].second);
      }
      chunks_[c] = std::move(chunk);
    }
  }

  /// Approximate heap bytes: the chunk pointers, each non-null chunk
  /// once, and value_bytes(v) per value it holds.
  template <typename Fn>
  size_t MemoryBytes(Fn&& value_bytes) const {
    size_t bytes = chunks_.capacity() * sizeof(std::shared_ptr<const Chunk>);
    for (const auto& chunk : chunks_) {
      if (chunk == nullptr) continue;
      bytes += sizeof(Chunk);
      for (const V& v : chunk->values) bytes += value_bytes(v);
    }
    return bytes;
  }

 private:
  // Sized by measurement on the d-neighbor table (4-vCPU host, Google
  // sim of 121,600 nodes, 4-triple commits affecting ~21 entities): the
  // chunk pass took 0.12 ms per commit at 16 positions, 0.06 at 32 and
  // 64, 0.07 at 128. A hub commit affecting ~600 entities clones about
  // half of the chunks at 32, and more refcounts per clone at larger
  // spans.
  static constexpr unsigned kBits = 5;
  static constexpr size_t kSpan = size_t{1} << kBits;
  struct Chunk {
    std::array<V, kSpan> values;
  };
  static inline const V kNone{};
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  size_t size_ = 0;
};

/// A key compiled against the target graph, with its EMVC traversal order.
struct CompiledKey {
  const Key* key = nullptr;
  CompiledPattern cp;
  std::vector<TourStep> tour;
};

/// A candidate's pairing relation (Prop. 9) unioned over its keys, as
/// strictly ascending PackPair values; it holds the candidate pair itself
/// unless empty (no key pairs it). Gp's nodes are their union (§5.1).
using PairingRelation = std::vector<uint64_t>;

/// What one pairing pass over a candidate's keys yields: each side's
/// pairing-reduced d-neighbor (with use_pairing) and the relation (in a
/// plan that builds Gp). What the plan does not keep is null.
struct PairingOutput {
  std::shared_ptr<const NodeSet> r1, r2;
  std::shared_ptr<const PairingRelation> relation;
};

/// Outputs of the incremental patch constructor (see below): which part
/// of the compiled state had to be redone, and which candidates a seeded
/// re-run must re-check.
struct ContextPatchInfo {
  /// Keyed entities whose d-ball the delta may have changed (sorted):
  /// those closer than their type's radius d to a dirty node, and those
  /// at exactly d whose stored d-neighbor set holds both ends of one
  /// delta triple (see the patch constructor). Their d-neighbors and
  /// pairs were recomputed.
  std::vector<NodeId> affected_entities;
  /// Indices into candidates() whose isomorphism-check outcome may have
  /// changed: at least one affected endpoint, or newly enumerated. A
  /// seeded rematch re-checks exactly these (plus the dependency/ghost
  /// cascade the engines already perform). Ascending; every other
  /// candidate was carried over from the source plan.
  std::vector<uint32_t> dirty_candidates;
  /// The position map, per source-plan candidate index: the index of the
  /// same candidate in the new L when it was carried over unchanged, or
  /// -1 when it left L or was recompiled. Monotone over its carried
  /// entries (both lists are sorted by pair). PatchProductGraph reads it
  /// to share the carried candidates' product nodes.
  std::vector<int64_t> candidate_reuse;
  /// Where the patch time went (seconds; bench_incremental reports them).
  double keys_seconds = 0;
  double affected_seconds = 0;
  double dneighbor_seconds = 0;
  double enumerate_seconds = 0;
  double pairing_seconds = 0;
  double depindex_seconds = 0;
  double product_graph_seconds = 0;  // filled by MatchPlan::Patch
};

/// Everything DriverMR's line 1 precomputes, shared by all algorithms:
/// compiled keys, the candidate list L (signature-blocked, optionally
/// pairing-reduced), d-neighbors, and the entity-dependency index of §4.2.
class EmContext {
 public:
  /// Builds the context. `g` must be finalized. A compile is the patch
  /// constructor below run over an empty context (keys compiled, no
  /// d-neighbors, candidates or signature index) with every node dirty,
  /// so there is one plan builder. The context keeps `opts`; it reads
  /// processors, use_pairing and use_blocking.
  EmContext(const Graph& g, const KeySet& keys, const PlanOptions& opts);

  /// Incremental rebuild: compiles the same key set against `prev`'s
  /// graph AFTER a delta was applied to it (Graph::Apply), recompiling
  /// only the affected region and sharing every untouched section with
  /// `prev`. `dirty_nodes` are the nodes the delta touched (ascending,
  /// distinct, every triple end among them) and `delta_triples` the
  /// (subject, object) of each triple it added or removed; a compile
  /// passes every node and no triple. With d an entity's type radius and
  /// depth its post-delta distance from the nearest dirty node, a keyed
  /// entity is affected at depth < d, and at depth == d only when its
  /// d-neighbor set in `prev` holds both ends of one delta triple: at
  /// depth d its ball keeps its nodes and their distances, so the delta
  /// can change only triples between two of its nodes at distance d.
  /// Every keyed entity the delta added is affected. A patch touches an
  /// element only when the delta dirtied it and moves the rest by block:
  ///   - L: only the pairs involving an affected entity are enumerated
  ///     (and paired), its bucket partners read from the graph along
  ///     each key's pinned signature source; the new L is one linear
  ///     merge of them with the runs of prev's candidates that have no
  ///     affected endpoint. Every entity of a type whose pinned sources
  ///     the delta invalidates is affected, so that type recompiles as a
  ///     compile would. The merge yields the position map
  ///     (ContextPatchInfo::candidate_reuse).
  ///   - The d-neighbor table and the pairing outputs sit in ChunkTables;
  ///     only the chunks holding an affected entity, a recompiled
  ///     candidate or a shifted position are cloned.
  ///   - The dependency index is edited, not re-inverted: carried
  ///     candidates' scans are block-copied, only recompiled candidates
  ///     are scanned, and dependents and ghosts are carried through the
  ///     position map (IndexDependencies).
  /// `prev` must outlive nothing — the new context is self-contained
  /// apart from the shared immutable chunks, NodeSet payloads, key lists
  /// and signature sources.
  ///
  /// Counters: candidates_initial() is the size of the enumerated L
  /// before pairing (carried pairs included). candidates_blocked() counts
  /// the pairs signature blocking kept out, summed over the types this
  /// build enumerated in full — every type on a compile, the types whose
  /// signature sources had to be chosen again on a patch; types patched
  /// in place or carried over add nothing.
  /// With `collect_relations` (plans that build Gp), each candidate's
  /// pairing output keeps its relation, and the pairing pass runs
  /// without use_pairing too, dropping no pair then.
  EmContext(const EmContext& prev, std::span<const NodeId> dirty_nodes,
            std::span<const std::pair<NodeId, NodeId>> delta_triples,
            ContextPatchInfo* info, bool collect_relations = false);

  const Graph& graph() const { return *g_; }
  /// The options the context was compiled with (a patch keeps `prev`'s).
  const PlanOptions& options() const { return opts_; }

  const std::vector<CompiledKey>& compiled_keys() const { return compiled_; }

  /// The candidate list L (after optional pairing reduction).
  const std::vector<Candidate>& candidates() const { return candidates_; }
  size_t candidates_initial() const { return candidates_initial_; }
  /// Same-type pairs signature blocking kept out of the enumeration.
  size_t candidates_blocked() const { return candidates_blocked_; }
  /// Candidate i's pairing relation; kept only with collect_relations.
  const PairingRelation& relation(uint32_t i) const {
    return *pairing_[i].relation;
  }

  /// Dependency index (§4.2): the candidate indices j, ascending, that
  /// depend on candidate i — identifying candidate i can newly enable a
  /// recursive key on candidate j. One row of a flat offsets-plus-values
  /// index over L.
  std::span<const uint32_t> dependents(uint32_t i) const {
    return dependents_[i];
  }

  /// A same-type pair excluded from L (by the pairing filter, Prop. 9, or
  /// by signature blocking — provably not identifiable by any key
  /// directly) that some candidate still DEPENDS on: the pair can become
  /// equal transitively (through other merges), newly enabling a
  /// recursive key on its dependents. Ghosts are never isomorphism-
  /// checked; the algorithms only watch them for Eq membership and then
  /// wake their dependents. Without this, the pairing + incremental /
  /// dependency optimizations would be incomplete (a regression test in
  /// em_mapreduce_test.cc pins the exact scenario). Ghosts are discovered
  /// lazily from the d-neighbor overlaps of recursive-key candidates, so
  /// excluded pairs never need materializing. Ghosts are sorted by
  /// (e1, e2), e1 < e2; ghost_dependents(g) lists the candidates that
  /// depend on ghost g, ascending.
  struct GhostPair {
    NodeId e1, e2;
  };
  std::span<const GhostPair> ghosts() const { return ghosts_; }
  std::span<const uint32_t> ghost_dependents(uint32_t g) const {
    return ghost_dependents_[g];
  }

  /// Decides (Gd1 ∪ Gd2, Eq, Σ) |= (e1, e2) for candidate `c`, trying each
  /// of its keys until one fires, with the search strategy chosen by the
  /// caller (`use_vf2`) — so one compiled plan serves both the combined-
  /// search and VF2-enumeration algorithm variants. When `unrestricted`
  /// is true, searches all of G instead of the d-neighbors (the data-
  /// locality property guarantees the same answer; tests rely on this).
  /// On success reports which compiled key fired (`*key_out`) and, unless
  /// `witness` is null, its full witness vector: the engines record
  /// Derivations from it at the cost of one witness copy per successful
  /// identification.
  bool IdentifiesWitness(const Candidate& c, const EqView& eq, int* key_out,
                         Witness* witness, SearchStats* stats,
                         bool unrestricted, bool use_vf2) const;

  /// Assembles the Derivation of candidate `c` identified by compiled key
  /// `key` under `witness`: premises are the witness's non-reflexive
  /// entity-variable pairs, triples the graph triples it realized on both
  /// sides (deduplicated). Uninstantiated witness slots (kNoNode) are
  /// skipped, so partial vectors from the vertex-centric walk are safe.
  Derivation MakeDerivation(const Candidate& c, int key,
                            const Witness& witness) const;

  /// Aggregate d-neighbor sizes (for the §6 reduction statistics):
  /// neighbor_nodes() sums |Gd| over the distinct candidate entities
  /// (neighbor_entities() of them); neighbor_nodes_reduced() sums the
  /// pairing-reduced per-side sets over candidate pairs (two per pair).
  uint64_t neighbor_nodes() const { return neighbor_nodes_; }
  uint64_t neighbor_nodes_reduced() const {
    return neighbor_nodes_reduced_;
  }
  size_t neighbor_entities() const { return neighbor_entities_; }

  /// Approximate heap footprint of the compiled structures, in bytes
  /// (MatchPlan::memory_bytes()): the capacities of every array (the
  /// candidate list, d-neighbor chunks and NodeSets, pairing outputs,
  /// dependency index, ghosts) plus each chunk's and set's fixed size.
  /// Allocator headers, control blocks and the per-type maps (key lists,
  /// radii, signature sources) are left out, so the heap is somewhat
  /// larger (plan_memory_test bounds the ratio). Sections shared with a
  /// patch's source plan are counted in full on both sides. Excludes the
  /// referenced Graph and KeySet.
  size_t MemoryBytes() const;

 private:
  // The snapshot codec serializes/rebuilds the private compiled state
  // directly (d-neighbors, pools, signature sources, dependency scans) —
  // going through the public API would force a full recompile on load,
  // which is exactly what persistence is meant to avoid. MatchPlan is a
  // friend because its nested Rep constructs the deserialization shell,
  // and CompileMatchPlan because it patches one.
  friend class storage::PlanCodec;
  friend class MatchPlan;
  friend StatusOr<MatchPlan> CompileMatchPlan(const Graph& g,
                                              const KeySet& keys,
                                              const PlanOptions& opts);

  /// Tag for the deserialization shell constructor below.
  struct DeserializeShell {};

  /// The empty context: binds graph/keys/options and compiles the keys
  /// (cheap and deterministic), leaving every other member empty. A
  /// compile patches it with every node dirty; storage::PlanCodec fills
  /// it from snapshot records instead of running the expensive build
  /// phases (d-neighbors, enumeration, pairing, dependency scan).
  EmContext(DeserializeShell, const Graph& g, const KeySet& keys,
            const PlanOptions& opts);

  /// 0 … g.NumNodes()-1: the dirty set that turns a patch into a compile.
  static std::vector<NodeId> EveryNode(const Graph& g);

  // ---- Signature blocking: per keyed type, each matchable key's pinned
  // ---- source. Its buckets are read from the graph, not stored.

  /// One hop of a pattern path from the designated variable toward a
  /// value terminal.
  struct SigStep {
    Symbol pred;
    bool forward;
    int to_node;
    friend bool operator==(const SigStep&, const SigStep&) = default;
  };
  /// A signature source of one key: a path from x to a value variable
  /// (constant == kNoNode) or a graph-resolved constant. Any match maps
  /// the terminal to a value reached from BOTH entities along this exact
  /// path, so sharing a reachable terminal is an Eq-independent necessary
  /// condition for identification.
  struct SigSource {
    std::vector<SigStep> path;
    NodeId constant = kNoNode;
    friend bool operator==(const SigSource&, const SigSource&) = default;
  };
  /// The pinned source of one matchable key: the one its type's
  /// enumeration walks (EntitiesReaching) to find bucket partners.
  struct SigPerKey {
    int key = -1;  // compiled-key index
    SigSource source;
  };
  /// Signature state of one keyed type. blockable == false means some
  /// matchable key pins nothing on x (full enumeration for the type).
  struct SigIndex {
    bool blockable = false;
    std::vector<SigPerKey> keys;
  };

  /// Builds the §4.2 dependency index (dependents_/ghosts_) from the
  /// per-candidate depended-on pair scans. Candidates carried over from
  /// `prev` (new_to_old[j] >= 0, ascending over j) copy their scans as
  /// ranges; only the recompiled ones (`dirty`, ascending) re-walk their
  /// neighbor balls (inline below the thread-spawn break-even). Then
  /// IndexDependencies edits prev's index into this one.
  void BuildDependencyIndex(const EmContext& prev,
                            std::span<const int64_t> old_to_new,
                            std::span<const int64_t> new_to_old,
                            std::span<const uint32_t> dirty);

  /// Appends candidate c's depended-on pairs to `out`, ascending and
  /// deduplicated (the scan of BuildDependencyIndex).
  void ScanDependencies(const Candidate& c, std::vector<uint64_t>& out) const;

  /// Derives dependents_/ghosts_ over candidates_ and depends_on_pairs_
  /// by editing `prev`'s index (null: an empty one) instead of inverting
  /// every scan. old_to_new / new_to_old are the position maps of the
  /// carried candidates, whose scans equal prev's; `dirty` lists the
  /// other new positions, ascending. The edit carries prev's rows through
  /// the maps (a block copy of every unedited run, with no value remapped
  /// when no carried candidate moved), drops the entries of prev's
  /// uncarried candidates, adds the dirty candidates' scans, and moves a
  /// pair's dependents between the ghost table and dependents_ when it
  /// enters or leaves L. The result equals the inversion of every scan
  /// over L (tests/dependency_reference.h). Compile and the snapshot
  /// decoder call it with every candidate dirty, so the derived index is
  /// never serialized.
  void IndexDependencies(const EmContext* prev,
                         std::span<const int64_t> old_to_new,
                         std::span<const int64_t> new_to_old,
                         std::span<const uint32_t> dirty);

  /// All signature sources of `cp` (BFS over the pattern from x).
  static std::vector<SigSource> FindSigSources(const CompiledPattern& cp);

  /// Fills `out` with the terminal values entity `e` reaches along
  /// `src.path`, ascending.
  void ReachableValues(NodeId e, const SigSource& src,
                       const CompiledPattern& cp,
                       std::vector<NodeId>& out) const;

  /// Fills `out` with value `v`'s bucket: the entities of x's type whose
  /// ReachableValues along `src` hold v, ascending. `src.path` is walked
  /// backwards from v; for a one-hop source that is v's in-edge run for
  /// the predicate, filtered to the type.
  void EntitiesReaching(NodeId v, const SigSource& src,
                        const CompiledPattern& cp,
                        std::vector<NodeId>& out) const;

  /// Compiles the signature index of one keyed type: per matchable key,
  /// the source whose buckets hold the fewest pairs over `entities`.
  std::shared_ptr<const SigIndex> BuildSigIndex(
      const std::vector<int>& key_ids,
      std::span<const NodeId> entities) const;

  /// Whether `prev_idx` (a pre-delta SigIndex of this type) is still
  /// valid under the recompiled keys: same matchable key list, and every
  /// stored source is still a source of its key.
  bool SigIndexStillValid(const SigIndex& prev_idx,
                          const std::vector<int>& key_ids) const;

  /// Compiles the key set against *g_ (shared by both constructors).
  /// A type's key list is shared with `prev`'s when equal, which it
  /// always is for a type `prev` had: a designated type, once resolved,
  /// stays resolved (the interner only grows). So a carried candidate's
  /// `keys` pointer stays valid in the patched context.
  void CompileKeys(const EmContext* prev);

  /// The cached d-neighbor of keyed entity `e` (must exist).
  const NodeSet& DNbr(NodeId e) const { return *dneighbors_[e]; }

  const Graph* g_;
  const KeySet* keys_;
  PlanOptions opts_;
  std::vector<CompiledKey> compiled_;
  // Per keyed type, its compiled-key indices (Candidate::keys points into
  // them), shared across patches (CompileKeys).
  std::unordered_map<Symbol, std::shared_ptr<const std::vector<int>>>
      keys_by_type_;
  std::unordered_map<Symbol, int> radius_by_type_;
  std::vector<Candidate> candidates_;
  // Storage for the NodeSets candidates point into: the d-neighbor
  // table by node id (DNbr; null for a node that is not a keyed entity),
  // and with use_pairing or collect_relations each candidate's pairing
  // output by candidate position. Payloads are shared immutable, so a
  // patched context reuses untouched sections copy-on-write, and the raw
  // pointers handed to Candidate stay stable across context moves.
  ChunkTable<std::shared_ptr<const NodeSet>> dneighbors_;
  ChunkTable<PairingOutput> pairing_;
  // Signature sources per keyed type (use_blocking only); shared with
  // the source plan while they stay valid.
  std::unordered_map<Symbol, std::shared_ptr<const SigIndex>> sig_index_;
  // Row j: the packed same-type keyed pairs inside candidate j's
  // neighbor balls that a recursive key could consume (the §4.2 scan's
  // raw output), ascending. Kept so a patch copies clean candidates'
  // scans instead of re-walking their balls; dependents_/ghosts_ are
  // derived from it.
  Rows<uint64_t> depends_on_pairs_;
  size_t candidates_initial_ = 0;
  size_t candidates_blocked_ = 0;
  std::vector<GhostPair> ghosts_;
  Rows<uint32_t> ghost_dependents_;  // row g: dependents of ghosts_[g]
  Rows<uint32_t> dependents_;        // row i: dependents of candidate i
  // Σ |Gd| and the number of keyed entities, kept by difference across
  // patches.
  uint64_t neighbor_nodes_ = 0;
  size_t neighbor_entities_ = 0;
  uint64_t neighbor_nodes_reduced_ = 0;
};

}  // namespace gkeys

#endif  // GKEYS_CORE_EM_COMMON_H_
