#include "storage/recovery.h"

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/ingest_pipeline.h"
#include "io/fast_triples.h"
#include "storage/delta_log.h"
#include "storage/durable_dir.h"
#include "storage/mmap_store.h"

namespace gkeys {
namespace storage {

namespace {

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// A failure to replay acknowledged batch `batch_index`: data loss,
/// unless the caller's deadline ran out, which loses nothing.
Status LossAt(size_t batch_index, const Status& cause) {
  const std::string batch = "acknowledged batch " +
                            std::to_string(batch_index);
  if (cause.code() == StatusCode::kDeadlineExceeded) {
    return Status::DeadlineExceeded("replaying " + batch + ": " +
                                    std::string(cause.message()));
  }
  return Status::DataLoss(batch + " is unrecoverable: " +
                          std::string(cause.message()));
}

std::string GenName(const char* prefix, uint64_t g, const char* suffix) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06llu%s", prefix,
                static_cast<unsigned long long>(g), suffix);
  return name;
}

}  // namespace

StatusOr<RecoveredSession> Recover(const std::string& dir,
                                   const Matcher& matcher) {
  auto gens = DurableDir::ListGenerations(dir);
  if (!gens.ok() || gens->empty())
    return Status::NotFound("no snapshot in " + dir);

  // PICK: newest generation whose snapshot opens and loads cleanly. A
  // snapshot only becomes visible through MmapStore's atomic rename, so
  // a skip here means post-install corruption, not a crash artifact.
  // Recovery reads paths directly rather than DurableDir::Open — it must
  // stay read-only until the caller decides what to do with the state.
  std::unique_ptr<Snapshot> base;
  uint64_t generation = 0;
  size_t skipped = 0;
  std::string newest_skip;  // why the newest skipped snapshot was skipped
  for (uint64_t g : *gens) {
    const std::string name = GenName("snap.", g, ".gks");
    auto store = MmapStore::Open(dir + "/" + name);
    StatusOr<Snapshot> snap =
        store.ok() ? Snapshot::Load(**store) : store.status();
    if (!snap.ok()) {
      if (skipped++ == 0) newest_skip = name + ": " + snap.status().ToString();
      continue;
    }
    base = std::make_unique<Snapshot>(std::move(*snap));
    generation = g;
    break;
  }
  if (base == nullptr)
    return Status::DataLoss("every snapshot in " + dir + " is corrupt (" +
                            std::to_string(skipped) + " tried); " +
                            newest_skip);

  RecoveredSession session{std::move(*base), {}, {}};
  session.entity_names = session.snapshot.entity_names();
  session.report.generation = generation;
  session.report.snapshots_skipped = skipped;
  session.report.pairs = session.snapshot.result().pairs.size();

  // REPLAY: the base generation's write-ahead log. Missing log = a save
  // that crashed between snapshot install and log creation, or a pre-WAL
  // snapshot directory — either way zero acknowledged batches, a clean
  // no-op.
  const std::string wal_path = dir + "/" + GenName("wal.", generation, ".log");
  if (!FileExists(wal_path)) return session;

  auto replay = DeltaLog::Replay(wal_path);
  if (!replay.ok()) {
    if (replay.status().code() == StatusCode::kDataLoss)
      return replay.status();
    // A log whose fsync'd header no longer parses is corruption of
    // acknowledged bytes, not a torn tail.
    return Status::DataLoss("log " + wal_path + ": " +
                            std::string(replay.status().message()));
  }
  session.report.batches_truncated = replay->truncated;
  if (!replay->has_header) return session;  // header never hit disk: no-op
  if (replay->generation != generation)
    return Status::DataLoss(
        "log " + wal_path + " belongs to generation " +
        std::to_string(replay->generation) + ", snapshot is generation " +
        std::to_string(generation));

  // APPLY: every surviving record passed its checksum, so it was
  // acknowledged — any failure from here on is real data loss. The log
  // holds text batches (DurableDir::AppendDeltaText), and replay commits
  // the leading run of them the way live ingest does: one CommitBatches
  // call, which reproduces the serial per-batch chain byte for byte,
  // failing batch included. A record after that run is empty or carries
  // another tag; it is named once the batches before it are committed,
  // as the per-batch chain would reach it. Replay follows the
  // SNAPSHOT's algorithm when the caller's differs — the stored plan was
  // compiled for it (e.g. the EMVC family needs its product graph), and
  // all six produce identical pairs anyway. The switch loads that
  // algorithm's preset; the caller's processors and deadline carry over.
  Matcher replayer = matcher;
  if (replayer.algorithm() != session.snapshot.algorithm()) {
    const EmOptions& mine = matcher.options();
    replayer.algorithm(session.snapshot.algorithm())
        .processors(mine.processors)
        .deadline_seconds(mine.time_budget_seconds);
  }
  const std::vector<std::string>& records = replay->records;
  std::vector<TokenizedText> texts;
  for (const std::string& rec : records) {
    if (rec.empty() || rec[0] != DurableDir::kTextDeltaTag) break;
    texts.push_back(TokenizeDeltaText(std::string_view(rec).substr(1)));
  }
  std::vector<const TokenizedText*> batches;
  for (const TokenizedText& t : texts) batches.push_back(&t);
  // On failure `replayed.batches` is the position of the failing batch.
  IngestStats replayed;
  Status st = CommitBatches(replayer,
                            session.snapshot.session(session.entity_names),
                            batches, replayed);
  if (!st.ok()) return LossAt(replayed.batches, st);
  if (texts.size() < records.size()) {
    const std::string& rec = records[texts.size()];
    std::string why = rec.empty()
                          ? "empty payload"
                          : std::string("unknown batch tag '") + rec[0] + "'";
    return LossAt(texts.size(), Status::ParseError(why));
  }
  session.report.batches_replayed = replayed.batches;
  session.report.commits = replayed.commits;
  session.report.pairs = session.snapshot.result().pairs.size();
  return session;
}

}  // namespace storage

// Defined here, not in core/, so the core library stays layered below
// the storage subsystem.
StatusOr<storage::RecoveredSession> Matcher::Recover(
    const std::string& dir) const {
  return storage::Recover(dir, *this);
}

}  // namespace gkeys
