#ifndef GKEYS_STORAGE_DELTA_LOG_H_
#define GKEYS_STORAGE_DELTA_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gkeys {
namespace storage {

/// Write-ahead delta log: the durability gap-filler between snapshots.
/// Snapshot::Save is expensive (it rewrites the whole session), so a
/// long-running ingest pipeline appends each acknowledged delta batch
/// here instead; a crash then loses nothing — recovery replays the
/// surviving records on top of the base snapshot (see storage/recovery.h).
///
/// File layout (all integers big-endian):
///
///     [0,  8)  magic "GKEYSWAL"
///     [8, 12)  format version (currently 1)
///     [12,20)  generation — ties the log to the snapshot it extends
///              (snap.<gen>.gks in a DurableDir); recovery refuses to
///              replay a log onto a different generation's snapshot
///     then, per appended record:
///              be32 payload length
///              be64 FNV-1a-64 over (the 4 length bytes ++ payload)
///              payload bytes (opaque to the log; DurableDir logs
///              tagged delta-file text, see durable_dir.h)
///
/// Durability contract: Append returns OK only after the record's bytes
/// were fully written AND fsync'd — OK means ACKNOWLEDGED, and an
/// acknowledged record survives any later crash. A failed Append poisons
/// the log (the file may end in a torn record); callers rotate to a new
/// generation via Snapshot save, which starts a fresh log.
///
/// Recovery contract (Replay): records are read in order up to the first
/// bad one. A bad record at the tail — incomplete header, payload past
/// EOF, or checksum mismatch with nothing valid after it — is a torn,
/// UNACKNOWLEDGED tail: it is counted in `truncated` and dropped, never
/// an error. A checksum mismatch FOLLOWED by another valid record is a
/// mid-log corruption of an acknowledged batch (later appends prove the
/// bad one was acked first): Replay returns kDataLoss, because the
/// durable state can no longer be reconstructed exactly.
class DeltaLog {
 public:
  static constexpr uint32_t kFormatVersion = 1;
  static constexpr size_t kHeaderBytes = 20;
  static constexpr size_t kRecordHeaderBytes = 12;

  /// What Replay recovered from a log file.
  struct ReplayResult {
    /// Payloads of the valid record prefix, in append order.
    std::vector<std::string> records;
    /// Torn tail records dropped (0 or 1: a tail tear is one record).
    size_t truncated = 0;
    /// Byte length of the valid prefix (header + surviving records) —
    /// what OpenForAppend truncates the file to before appending.
    uint64_t valid_bytes = 0;
    /// False for a zero-length or sub-header file (a log that was
    /// created but whose header write never became durable): such a log
    /// replays as a clean no-op with no generation to check.
    bool has_header = false;
    uint64_t generation = 0;
  };

  /// Creates a fresh log for `generation` at `path` (truncating any
  /// previous file), writing and fsyncing the header and fsyncing the
  /// parent directory so the empty log itself survives a crash.
  static StatusOr<std::unique_ptr<DeltaLog>> Create(std::string path,
                                                    uint64_t generation);

  /// Reads every surviving record of the log at `path`. IoError when the
  /// file cannot be opened or read (recovery checks existence first and
  /// treats a missing log as a clean no-op). See the recovery contract
  /// above for kDataLoss on mid-log corruption.
  static StatusOr<ReplayResult> Replay(const std::string& path);

  /// Opens an existing log for appending: Replay, truncate the file to
  /// the valid prefix (dropping a torn tail so later appends re-frame
  /// cleanly), then position at the end. `replayed` (optional) receives
  /// the surviving records.
  static StatusOr<std::unique_ptr<DeltaLog>> OpenForAppend(
      std::string path, ReplayResult* replayed);

  ~DeltaLog();
  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  /// Appends one checksummed record. OK = the record is durable
  /// (acknowledged). After any failure the log is poisoned: every later
  /// Append returns FailedPrecondition (rotate to a new generation).
  Status Append(std::string_view payload);

  uint64_t generation() const { return generation_; }
  const std::string& path() const { return path_; }
  size_t records_appended() const { return records_appended_; }

 private:
  DeltaLog(std::string path, uint64_t generation, int fd)
      : path_(std::move(path)), generation_(generation), fd_(fd) {}

  std::string path_;
  uint64_t generation_ = 0;
  int fd_ = -1;
  bool poisoned_ = false;
  size_t records_appended_ = 0;
};

}  // namespace storage
}  // namespace gkeys

#endif  // GKEYS_STORAGE_DELTA_LOG_H_
