#ifndef GKEYS_STORAGE_PLAN_CODEC_H_
#define GKEYS_STORAGE_PLAN_CODEC_H_

#include <cstdint>

#include "common/status.h"
#include "core/em_common.h"
#include "core/match_plan.h"
#include "graph/graph.h"
#include "keys/key.h"
#include "storage/store.h"

namespace gkeys {
namespace storage {

/// Everything the fixed-size meta record carries: enough to validate the
/// other records' counts and to reconstruct the options the plan was
/// compiled with. Written last (the codecs fill the counts as they
/// encode), read first.
///
/// Record bytes: u8 algorithm; a run-option block (varint processors, u8
/// flags, varint bounded messages) whose bytes the plan options fix, so
/// DecodeMeta rejects a block that disagrees with them (plan_codec.cc,
/// RunOptionBytes); varint plan processors; u8 plan flags (pairing,
/// blocking, product graph); u8 has_product_graph; u8 has_entity_names;
/// then the counts below as varints, in order.
struct SnapshotMeta {
  Algorithm algorithm = Algorithm::kEmOptVc;
  PlanOptions plan_options;
  bool has_product_graph = false;
  bool has_entity_names = false;
  uint64_t num_symbols = 0;
  uint64_t num_nodes = 0;
  uint64_t num_candidates = 0;
  uint64_t num_pool_sets = 0;   // content-deduplicated NodeSets ('D')
  uint64_t num_relations = 0;   // content-deduplicated Relations ('R')
  uint64_t num_sig_types = 0;   // signature indexes ('X')
  uint64_t num_derivations = 0;
  uint64_t num_pairs = 0;
  // EmContext enumeration counters (not derivable from the survivors).
  uint64_t candidates_initial = 0;
  uint64_t candidates_blocked = 0;
  uint64_t neighbor_nodes = 0;
  uint64_t neighbor_nodes_reduced = 0;
};

/// (De)serializes the three snapshot artifacts — graph, plan, result —
/// into one record per table behind the Store interface.
/// Friended into EmContext / MatchPlan / ProductGraph: the codec restores
/// the private compiled state directly, then replays the cheap
/// deterministic derivations (CompileKeys, the dependency index, the
/// product-graph edge pass) instead of persisting them.
///
/// Key layout (a prefix byte each; a table's items sit back to back in id
/// order, meta carries their count, fixed-width integers are big-endian):
///
///     'M'            meta record (SnapshotMeta)
///     'S'            interned strings in symbol order, each varint
///                    length + bytes
///     'N'            nodes, 5 bytes each: u8 kind, be32 label symbol
///     'E'            one out-edge run per node: varint count, per edge
///                    varint pred + varint dst
///     'K'            key set as DSL text (ToDsl round-trip)
///     'T'            entity-name table, sorted by node (gkeys CLI deltas
///                    resolve through it; optional)
///     'P'            plan blob: d-neighbor slots (one per keyed entity,
///                    keyed types in key-map order, each type's
///                    entities ascending: varint entity + varint 'D'
///                    id), candidates, raw dependency scans
///     'D'            NodeSet pool, content-deduplicated: COW-shared
///                    d-neighbor / pairing-reduced sets store once
///     'X' be32(type) per-type signature index: per key its source and
///                    its overlay merged into its base table (entities
///                    strictly ascending, each of the record's keyed
///                    type, with a nonempty delta-encoded value row)
///     'G'            product graph: per-candidate relation pool ids
///     'R'            pairing-relation pool, content-deduplicated
///     'A'            result pairs
///     'V'            derivations of the provenance index, in index
///                    order (the order retraction replays)
class PlanCodec {
 public:
  // ---- Meta ----------------------------------------------------------
  static Status EncodeMeta(const SnapshotMeta& meta, Store& store);
  static StatusOr<SnapshotMeta> DecodeMeta(const Store& store);

  // ---- Graph + interner ----------------------------------------------
  static Status EncodeGraph(const Graph& g, Store& store, SnapshotMeta* meta);
  /// Rebuilds the graph by replaying construction in id order; the
  /// result is byte-identical (CSR, interner, type tables) to the saved
  /// one. All record contents are bounds-validated: corrupt payloads
  /// return ParseError, never crash.
  static StatusOr<Graph> DecodeGraph(const Store& store,
                                     const SnapshotMeta& meta);

  // ---- Plan ----------------------------------------------------------
  /// Serializes the compiled plan. COW-shared sections (NodeSets, pairing
  /// relations) are deduplicated by pointer identity first and content
  /// second, so a plan lineage of N patches stores shared payloads once.
  static Status EncodePlan(const MatchPlan& plan, Store& store,
                           SnapshotMeta* meta);
  /// Rebuilds a runnable MatchPlan against `g`/`keys` (which must be the
  /// decoded counterparts and must outlive the plan). The expensive build
  /// phases are skipped: keys recompile, the d-neighbor chunk table,
  /// candidates, their candidate-chunked sections and signature indexes
  /// restore from records, and the dependency index and the product
  /// graph's edge pass run from the raw scans and the restored relations
  /// with every candidate dirty, as a compile runs them. The slots
  /// must name every keyed entity exactly once and no other node, and
  /// their sets must sum to meta's neighbor_nodes: a later patch keeps
  /// both by difference.
  static StatusOr<MatchPlan> DecodePlan(const Store& store,
                                        const SnapshotMeta& meta,
                                        const Graph& g, const KeySet& keys);

  // ---- Result + provenance index -------------------------------------
  static Status EncodeResult(const MatchResult& result, Store& store,
                             SnapshotMeta* meta);
  /// Stats are not persisted: the decoded result carries zeroed stats
  /// apart from confirmed (= pairs.size()); timings belong to the run
  /// that produced them, not to the snapshot.
  static StatusOr<MatchResult> DecodeResult(const Store& store,
                                            const SnapshotMeta& meta);
};

}  // namespace storage
}  // namespace gkeys

#endif  // GKEYS_STORAGE_PLAN_CODEC_H_
