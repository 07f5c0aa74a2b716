#ifndef GKEYS_CORE_INGEST_PIPELINE_H_
#define GKEYS_CORE_INGEST_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "core/em_common.h"
#include "core/match_plan.h"
#include "graph/delta.h"
#include "graph/graph.h"

namespace gkeys {

class Matcher;
struct TokenizedText;  // io/fast_triples.h

/// Staged ingest: a tokenize-ahead stage feeding the serial engine chain
/// (bind → Apply → Patch → Rematch) through a bounded queue, so batch
/// N+1 parses while batch N rematches.
///
/// The split follows the two steps of delta parsing in io/fast_triples.h:
/// tokenizing (shape validation, field splitting, unescaping) never
/// touches the graph or the binding table, so it runs on its own thread
/// against future batches while the engine mutates the session; binding
/// and everything after it stay serial on the caller's thread in batch
/// order, which keeps the committed session byte-identical to a plain
/// serial loop (parse batch, Apply, Patch, Rematch, repeat) — the
/// pipeline-vs-serial tests in tests/ingest_test.cc pin exactly that.
///
/// Group commit: the engine-side costs of a tiny batch are dominated by
/// terms that do not shrink with batch size (Graph::Apply re-finalizes,
/// MatchPlan::Patch rebuilds its rep), so when tokenized batches are
/// already waiting in the queue — the common state whenever parsing
/// outruns matching — the engine hands up to `max_coalesce` of them to
/// CommitBatches (below), which commits them with as few Apply → Patch →
/// Rematch passes as serial semantics allow. Crash recovery replays the
/// write-ahead log through the same routine (storage/recovery.h). Set
/// max_coalesce = 1 to force per-batch commits throughout.
///
/// Error and cancellation semantics: the stream stops at the first
/// failing batch, exactly where the serial loop would have stopped; the
/// tokenize thread is woken and joined before Run returns, so no work
/// leaks. A batch that fails to parse, bind or apply leaves the session
/// at the last committed batch, and one that fails to parse reports the
/// status FastParseDelta reports for that text. A Patch or Rematch
/// failure (a Matcher::deadline_seconds expiry, say) comes after
/// Graph::Apply: it leaves the graph holding the failing pass's delta
/// while the plan and the result do not. Such a session must take no
/// further commit; recover it from its durable directory
/// (storage::Recover), which replays only the acknowledged batches.

/// Tuning and control knobs for one ingest run.
struct IngestOptions {
  /// How many tokenized batches may wait for the engine before the
  /// tokenize stage blocks — the backpressure bound on parse-ahead
  /// memory (each queued batch holds its text plus tokens).
  size_t queue_depth = 4;
  /// Most batches one engine pass may commit together (group commit, see
  /// above). 1 = per-batch commits, matching the serial loop's observer-
  /// visible granularity exactly; higher values amortize per-commit
  /// engine costs whenever the queue has a backlog. The final state is
  /// the same either way.
  size_t max_coalesce = 8;
  /// Polled between commits by both stages. Returning true stops the
  /// stream with kCancelled after the current commit; the session is
  /// left at the last committed batch, exactly as if the source had
  /// ended there.
  std::function<bool()> cancelled;
};

/// Wall-clock seconds per pipeline stage, summed over the run. parse
/// runs on the tokenize thread and OVERLAPS the others; bind..rematch
/// are serial, so their sum approximates the engine thread's busy time.
struct IngestStageSeconds {
  double parse = 0;
  double bind = 0;
  double apply = 0;
  double patch = 0;
  double rematch = 0;
};

/// Outcome of one ingest run. `status` is OK when the source drained to
/// its end; on error or cancellation the counters still describe every
/// batch that committed before the stop.
struct IngestStats {
  Status status;
  /// Batches committed (session advanced), including empty ones.
  size_t batches = 0;
  /// Of those, batches whose delta was empty (parse-only no-ops).
  size_t empty_batches = 0;
  /// Apply→Patch→Rematch passes that ran. Equal to non-empty `batches`
  /// when max_coalesce == 1; smaller when group commit coalesced.
  size_t commits = 0;
  uint64_t added_triples = 0;
  uint64_t removed_triples = 0;
  IngestStageSeconds seconds;
};

/// The mutable session state the pipeline advances in place — usually a
/// recovered storage::Snapshot's (Snapshot::session). All pointers must
/// be non-null and outlive the run; `entity_names` is the ent-token
/// binding table (LoadedGraph::entities / RecoveredSession::entity_names)
/// and gains the tokens each committed batch introduced.
struct IngestSession {
  Graph* graph = nullptr;
  MatchPlan* plan = nullptr;
  MatchResult* result = nullptr;
  std::unordered_map<std::string, NodeId>* entity_names = nullptr;
};

/// Pull-based batch source, called from the tokenize thread in stream
/// order: return the next batch's delta text, or std::nullopt at end of
/// stream. Must not touch the session (the engine is mutating it).
using IngestSource = std::function<std::optional<std::string>()>;

/// One committed batch, as seen by the observer (called on the engine
/// thread, after the session advanced past the batch).
struct IngestBatch {
  size_t index = 0;  // 0-based position in the stream
  const std::string* text = nullptr;
  /// The committed delta. Under group commit this is the GROUP's delta,
  /// shared by every batch the pass committed; use `contributed` (not
  /// delta->empty()) to tell whether THIS batch staged anything.
  const GraphDelta* delta = nullptr;
  const MatchResult* result = nullptr;  // session result after commit
  /// False for parse-only no-op batches (comments, blank lines).
  bool contributed = false;
};

/// Post-commit hook, e.g. the CLI's write-ahead-log append. Called for
/// every committed batch, empty ones included; a non-OK return stops
/// the stream with that status (the batch itself stays committed).
using IngestObserver = std::function<Status(const IngestBatch&)>;

/// One Apply → Patch → Rematch pass: advances `session` (graph, plan and
/// result; the binding table is not touched) past `delta` (an empty one
/// still runs the pass) and counts it in `stats`. When Apply fails, the
/// session is unchanged. When Patch or Rematch fails (a deadline, say),
/// the graph already holds `delta` and the plan and the result do not:
/// a later pass would patch the plan past a delta it never saw, so the
/// way back is storage::Recover from the session's durable directory.
Status CommitDelta(const Matcher& matcher, const IngestSession& session,
                   const GraphDelta& delta, IngestStats& stats);

/// Called once per committed batch, in order: `batch` is its position in
/// the run, `delta` the delta of the pass that committed it (shared by
/// every batch of that pass) and `contributed` whether the batch staged
/// anything. A non-OK return stops the run (the batch stays committed).
using BatchCommitted = std::function<Status(
    size_t batch, const GraphDelta& delta, bool contributed)>;

/// Group commit, shared by live ingest and crash recovery: commits a run
/// of tokenized delta batches onto `session`, in order, binding them
/// through one DeltaBinder (io/fast_triples.h) and running one Apply →
/// Patch → Rematch pass per group. A group grows until Append rejects a
/// batch k; batches [i, k) then commit as one pass (rebound in a fresh
/// binder) and the next group starts at k. A batch rejected as the first
/// of its group fails on its own, with the status the serial path
/// reports. The binder rejects every batch that would make a group differ
/// from committing its batches one by one, so the final session, the
/// committed prefix and the failing batch are exactly serial; only the
/// intermediate states are coarser.
///
/// On failure `stats.batches` has grown by the number of batches
/// committed before the failing one. A failing pass counts against the
/// first batch of its group: a batch whose removals could fail Apply
/// never joins a group it does not open, so a failing Apply is always
/// that batch's own, and Apply leaves the session at the batches before
/// it. (A Patch or Rematch failure, e.g. a deadline, leaves the graph
/// ahead of the plan, as it would for a single commit.)
Status CommitBatches(const Matcher& matcher, const IngestSession& session,
                     std::span<const TokenizedText* const> batches,
                     IngestStats& stats,
                     const BatchCommitted& committed = {});

/// Runs the staged pipeline until the source ends, a batch fails, the
/// observer rejects, or `opts.cancelled` fires. Usually invoked through
/// Matcher::IngestStream.
IngestStats RunIngestPipeline(const Matcher& matcher,
                              const IngestSession& session,
                              const IngestSource& source,
                              const IngestOptions& opts = {},
                              const IngestObserver& observer = {});

}  // namespace gkeys

#endif  // GKEYS_CORE_INGEST_PIPELINE_H_
