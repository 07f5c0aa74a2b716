#ifndef GKEYS_STORAGE_SNAPSHOT_H_
#define GKEYS_STORAGE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "core/em_common.h"
#include "core/match_plan.h"
#include "core/matcher.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "keys/key.h"
#include "storage/store.h"

namespace gkeys {
namespace storage {

/// One complete matching session persisted behind a Store: the graph, the
/// compiled plan, and the result with its provenance index. Save writes a
/// run's state; Load rebuilds a self-owning session (the Snapshot owns
/// the graph and key set the restored plan references); Resume continues
/// it incrementally — Apply the deltas that arrived while the process was
/// down, Patch, Rematch — skipping the expensive compile phases entirely.
///
///     // First run:
///     auto store = MmapStore::Create(path);
///     Snapshot::Save(**store, g, keys, plan, result, algorithm);
///     (*store)->Flush();
///
///     // After restart:
///     auto store = MmapStore::Open(path);
///     auto snap = Snapshot::Load(**store);
///     auto result = Matcher(snap->algorithm()).Resume(*snap, pending);
///
/// Resume updates the snapshot in place (post-delta graph, plan, result),
/// so successive calls chain exactly like the in-memory incremental
/// lifecycle; Save the snapshot's state again to persist the new point.
class Snapshot {
 public:
  /// Serializes a session into `store` (call Store::Flush afterwards to
  /// make it durable). `plan` must be compiled against exactly `g` and
  /// `keys`, and `result` should be the result of running `algorithm`
  /// over it — Resume seeds from it. `entity_names`, when given, is the
  /// CLI's ent-token table (LoadedGraph::entities); it rides along so
  /// delta files parse against a loaded snapshot.
  static Status Save(
      Store& store, const Graph& g, const KeySet& keys,
      const MatchPlan& plan, const MatchResult& result, Algorithm algorithm,
      const std::unordered_map<std::string, NodeId>* entity_names = nullptr);

  /// Rebuilds the session from `store`. Every record is bounds-validated:
  /// corrupt or truncated payloads return ParseError, never crash.
  static StatusOr<Snapshot> Load(const Store& store);

  // Snapshots own their graph/keys (the plan references them), so they
  // move but do not copy.
  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;

  const Graph& graph() const { return *graph_; }
  const KeySet& keys() const { return *keys_; }
  const MatchPlan& plan() const { return plan_; }
  const MatchResult& result() const { return result_; }
  Algorithm algorithm() const { return algorithm_; }
  /// The ent-token table saved alongside (empty when none was).
  const std::unordered_map<std::string, NodeId>& entity_names() const {
    return entity_names_;
  }

  /// Mutable graph access for staging pending deltas against the restored
  /// session (GraphDelta's constructor takes the target graph). Do not
  /// Apply deltas directly — Resume owns the Apply → Patch → Rematch
  /// sequencing.
  Graph& mutable_graph() { return *graph_; }

  /// The restart path: applies `pending` to the restored graph, patches
  /// the restored plan, and rematches seeded from the restored result —
  /// byte-identical to what an uninterrupted process would have computed.
  /// The snapshot advances to the post-delta state, so Resume calls
  /// chain. An empty `pending` returns the stored result unchanged.
  /// Usually invoked through Matcher::Resume.
  StatusOr<MatchResult> Resume(const Matcher& matcher,
                               const GraphDelta& pending);

  /// The snapshot's graph, plan and result as an ingest session bound to
  /// `entity_names` — what CommitBatches (core/ingest_pipeline.h) and
  /// the staged pipeline advance in place.
  IngestSession session(std::unordered_map<std::string, NodeId>& entity_names);

  /// Streaming ingest over this session: runs the staged pipeline
  /// (core/ingest_pipeline.h) against the snapshot's graph/plan/result,
  /// advancing them in place batch by batch — the streaming counterpart
  /// of repeated Resume calls. `entity_names` is the ent-token table
  /// batches parse against (usually RecoveredSession::entity_names,
  /// which extends entity_names()); it gains each committed batch's new
  /// tokens. Usually invoked through Matcher::IngestStream.
  IngestStats Ingest(const Matcher& matcher,
                     std::unordered_map<std::string, NodeId>& entity_names,
                     const IngestSource& source, const IngestOptions& opts,
                     const IngestObserver& observer);

 private:
  Snapshot() = default;

  // unique_ptr keeps the addresses the plan references stable across
  // Snapshot moves.
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<KeySet> keys_;
  MatchPlan plan_;
  MatchResult result_;
  Algorithm algorithm_ = Algorithm::kEmOptVc;
  std::unordered_map<std::string, NodeId> entity_names_;
};

}  // namespace storage
}  // namespace gkeys

#endif  // GKEYS_STORAGE_SNAPSHOT_H_
