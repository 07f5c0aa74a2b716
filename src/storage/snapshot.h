#ifndef GKEYS_STORAGE_SNAPSHOT_H_
#define GKEYS_STORAGE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "core/em_common.h"
#include "core/ingest_pipeline.h"
#include "core/match_plan.h"
#include "graph/graph.h"
#include "keys/key.h"
#include "storage/store.h"

namespace gkeys {
namespace storage {

/// One complete matching session persisted behind a Store: the graph, the
/// compiled plan, and the result with its provenance index. Save writes a
/// run's state; Load rebuilds a self-owning session (the Snapshot owns
/// the graph and key set the restored plan references), skipping the
/// expensive compile phases entirely.
///
/// A snapshot is the base image of one generation of a durable directory
/// (storage/durable_dir.h), and that directory is the only persisted
/// session: DurableDir::SaveSnapshot writes it, and Matcher::Recover
/// loads it and replays the write-ahead log on top:
///
///     // First run:
///     auto dir = DurableDir::Open(path);
///     dir->SaveSnapshot(g, keys, plan, result, algorithm, &entity_names);
///
///     // After restart:
///     auto session = Matcher().Recover(path);
///
/// The restored state advances in place through session(), under the
/// group commit live ingest runs (CommitBatches, core/ingest_pipeline.h);
/// a later SaveSnapshot of that state installs the next generation.
class Snapshot {
 public:
  /// Serializes a session into `store` (call Store::Flush afterwards to
  /// make it durable). `plan` must be compiled against exactly `g` and
  /// `keys`, and `result` should be the result of running `algorithm`
  /// over it — log replay seeds its rematches from it. `entity_names`,
  /// when given, is the CLI's ent-token table (LoadedGraph::entities); it
  /// rides along so delta files parse against a loaded snapshot.
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

  /// The snapshot's graph, plan and result as an ingest session bound to
  /// `entity_names` — what CommitBatches (core/ingest_pipeline.h) and
  /// the staged pipeline advance in place.
  IngestSession session(std::unordered_map<std::string, NodeId>& entity_names);

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
