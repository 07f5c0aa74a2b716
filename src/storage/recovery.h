#ifndef GKEYS_STORAGE_RECOVERY_H_
#define GKEYS_STORAGE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "core/matcher.h"
#include "storage/snapshot.h"

namespace gkeys {
namespace storage {

/// What Recover did, for operators and the `gkeys recover` subcommand.
struct RecoveryReport {
  /// Generation of the snapshot recovery restored from.
  uint64_t generation = 0;
  /// Newer snapshots that failed validation and were skipped (a crash
  /// mid-rotation can leave at most a torn temp, so this is normally 0;
  /// nonzero means on-disk corruption of an installed snapshot).
  size_t snapshots_skipped = 0;
  /// Acknowledged log batches replayed on top of the snapshot.
  size_t batches_replayed = 0;
  /// Apply → Patch → Rematch passes the replay ran: one per group commit
  /// of the logged batches (empty batches need none).
  size_t commits = 0;
  /// Torn, never-acknowledged tail records dropped from the log.
  size_t batches_truncated = 0;
  /// Identified pairs in the recovered result.
  size_t pairs = 0;
};

/// A recovered session: the state machine's output, ready to serve
/// queries or continue ingesting.
struct RecoveredSession {
  Snapshot snapshot;
  /// The snapshot's entity-name table extended with every binding the
  /// replayed text batches introduced — parse NEW delta files against
  /// this map, not snapshot.entity_names().
  std::unordered_map<std::string, NodeId> entity_names;
  RecoveryReport report;
};

/// The recovery state machine over a DurableDir (usually invoked as
/// Matcher::Recover):
///
///   1. PICK    — probe snapshots newest-generation-first; the first
///                that opens and loads cleanly is the base (corrupt
///                newer ones are skipped and counted).
///   2. REPLAY  — DeltaLog::Replay the base's write-ahead log: the
///                surviving records are the acknowledged batches; a torn
///                tail is truncated (counted, never an error); a missing,
///                empty, or header-only log is a clean no-op.
///   3. APPLY   — the batches run through the incremental lifecycle
///                (Graph::Apply → MatchPlan::Patch → Matcher::Rematch) as
///                live ingest commits them: the log's text records are
///                tokenized and group-committed by one CommitBatches call
///                (core/ingest_pipeline.h). The recovered result is
///                byte-identical to what an uninterrupted process had,
///                and a failing batch is named exactly as the per-batch
///                chain would name it; so is a record that is empty or
///                not tagged as text, after the batches before it. Replay
///                runs under `matcher` reconfigured to the snapshot's
///                stored algorithm when they differ (the stored plan was
///                compiled for it); processors and the deadline carry
///                over.
///
/// Status contract: NotFound when `dir` has no snapshot at all;
/// kDeadlineExceeded, naming the batch, when the matcher's deadline
/// (Matcher::deadline_seconds) expires during a replayed rematch;
/// kDataLoss ONLY when an ACKNOWLEDGED batch is unrecoverable — every
/// snapshot corrupt (the message names the newest one and why it failed
/// to load), a checksum-valid log record that is not a text batch or
/// fails to bind or apply, a mid-log corruption with acknowledged records
/// after it, or a log whose generation does not match its snapshot.
/// Crashes, torn tails, and lost unacknowledged batches never produce
/// kDataLoss.
StatusOr<RecoveredSession> Recover(const std::string& dir,
                                   const Matcher& matcher);

}  // namespace storage
}  // namespace gkeys

#endif  // GKEYS_STORAGE_RECOVERY_H_
