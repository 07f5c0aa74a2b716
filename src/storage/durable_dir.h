#ifndef GKEYS_STORAGE_DURABLE_DIR_H_
#define GKEYS_STORAGE_DURABLE_DIR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/em_common.h"
#include "core/match_plan.h"
#include "graph/graph.h"
#include "keys/key.h"
#include "storage/delta_log.h"

namespace gkeys {
namespace storage {

/// A generation-numbered durable directory: the crash-safe home of one
/// long-running matching session. Each generation pairs an immutable
/// snapshot with the write-ahead log of delta batches ingested since:
///
///     <dir>/snap.000007.gks    base snapshot of generation 7
///     <dir>/wal.000007.log     acknowledged batches since that save
///
/// SaveSnapshot installs generation g+1 atomically (MmapStore's
/// write-temp → fsync → rename → dir-fsync) and starts a fresh log tied
/// to it, then prunes generations beyond keep-last-N; AppendDeltaText
/// makes one batch durable in O(batch) — the cheap ingest path between
/// the expensive saves. A failure at ANY step (ENOSPC, crash, torn write)
/// leaves the previous generation fully intact: recovery
/// (storage/recovery.h) picks the newest valid snapshot and replays its
/// log's surviving records.
class DurableDir {
 public:
  static constexpr int kDefaultKeepSnapshots = 2;

  /// First byte of every WAL payload: the batch is delta-file text.
  static constexpr char kTextDeltaTag = 'T';

  /// Opens (creating if missing) a durable directory. An existing
  /// directory's current generation is read from its snapshot filenames;
  /// the current generation's log is opened for append, truncating any
  /// torn tail left by a crash.
  static StatusOr<DurableDir> Open(std::string dir);

  DurableDir(DurableDir&&) = default;
  DurableDir& operator=(DurableDir&&) = default;

  /// Installs generation g+1: snapshot first (atomic rename install),
  /// then a fresh empty log tied to it, then prunes snapshots and logs
  /// older than `keep_last` generations. On error the previous
  /// generation's files are untouched and recovery still lands on an
  /// acknowledged state — but this handle stops acknowledging appends
  /// (FailedPrecondition) until a SaveSnapshot succeeds: the new
  /// snapshot's install may have landed on disk even when an error is
  /// returned, and recovery would never replay the old log past it.
  Status SaveSnapshot(
      const Graph& g, const KeySet& keys, const MatchPlan& plan,
      const MatchResult& result, Algorithm algorithm,
      const std::unordered_map<std::string, NodeId>* entity_names = nullptr,
      int keep_last = kDefaultKeepSnapshots);

  /// Appends one acknowledged batch, raw delta-file text (`+ s p o`
  /// lines), to the current generation's log. OK = durable.
  /// FailedPrecondition when no generation exists yet (SaveSnapshot
  /// first) or after a previous append failure (rotate via
  /// SaveSnapshot). Recovery tokenizes the logged batches and group-
  /// commits them (CommitBatches, core/ingest_pipeline.h) against the
  /// session's evolving entity-name table, so a batch may reference
  /// entities an earlier batch introduced by token.
  Status AppendDeltaText(std::string_view text);

  /// 0 while the directory has no snapshot yet.
  uint64_t generation() const { return generation_; }
  const std::string& dir() const { return dir_; }
  /// Records in the current generation's log (surviving + appended).
  size_t wal_records() const {
    return wal_ == nullptr ? 0 : wal_->records_appended();
  }

  std::string SnapshotPath(uint64_t generation) const;
  std::string WalPath(uint64_t generation) const;

  /// Generations that have a snapshot file in `dir`, sorted DESCENDING
  /// (newest first — recovery's probe order). IoError when the
  /// directory cannot be read.
  static StatusOr<std::vector<uint64_t>> ListGenerations(
      const std::string& dir);

 private:
  explicit DurableDir(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  uint64_t generation_ = 0;
  std::unique_ptr<DeltaLog> wal_;
};

}  // namespace storage
}  // namespace gkeys

#endif  // GKEYS_STORAGE_DURABLE_DIR_H_
