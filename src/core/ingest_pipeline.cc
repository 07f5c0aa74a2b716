#include "core/ingest_pipeline.h"

#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/timer.h"
#include "core/matcher.h"
#include "io/fast_triples.h"

namespace gkeys {
namespace {

/// One tokenized batch: the raw text (tokens point into it) plus its
/// tokenized lines. Moves only — the string's heap buffer keeps the
/// string_views valid across the queue hop.
struct ParsedBatch {
  size_t index = 0;
  std::string text;
  TokenizedText tokens;
};

/// Bounded SPSC handoff between the tokenize thread and the engine.
/// Push blocks while the queue is full (backpressure on parse-ahead);
/// either side can close, waking the other: a closed consumer makes
/// Push fail fast, a closed producer makes Pop drain then end.
class BatchQueue {
 public:
  explicit BatchQueue(size_t depth) : depth_(depth < 1 ? 1 : depth) {}

  /// Producer. False when the consumer closed (stop tokenizing).
  bool Push(ParsedBatch batch) {
    MutexLock lock(mu_);
    cv_.Wait(lock, [this]() GKEYS_REQUIRES(mu_) {
      return queue_.size() < depth_ || consumer_closed_;
    });
    if (consumer_closed_) return false;
    queue_.push_back(std::move(batch));
    cv_.NotifyAll();
    return true;
  }

  /// Consumer, non-blocking: a batch if one is already waiting, else
  /// nullopt (even while the producer is still running). Group commit
  /// uses this to take exactly the backlog without ever stalling on the
  /// tokenize stage.
  std::optional<ParsedBatch> TryPop() {
    MutexLock lock(mu_);
    if (queue_.empty()) return std::nullopt;
    ParsedBatch batch = std::move(queue_.front());
    queue_.pop_front();
    cv_.NotifyAll();
    return batch;
  }

  /// Consumer. nullopt when the producer closed and the queue drained.
  std::optional<ParsedBatch> Pop() {
    MutexLock lock(mu_);
    cv_.Wait(lock, [this]() GKEYS_REQUIRES(mu_) {
      return !queue_.empty() || producer_closed_;
    });
    if (queue_.empty()) return std::nullopt;
    ParsedBatch batch = std::move(queue_.front());
    queue_.pop_front();
    cv_.NotifyAll();
    return batch;
  }

  void CloseProducer() {
    MutexLock lock(mu_);
    producer_closed_ = true;
    cv_.NotifyAll();
  }

  void CloseConsumer() {
    MutexLock lock(mu_);
    consumer_closed_ = true;
    cv_.NotifyAll();
  }

 private:
  const size_t depth_;
  Mutex mu_;
  CondVar cv_;
  std::deque<ParsedBatch> queue_ GKEYS_GUARDED_BY(mu_);
  bool producer_closed_ GKEYS_GUARDED_BY(mu_) = false;
  bool consumer_closed_ GKEYS_GUARDED_BY(mu_) = false;
};

bool Cancelled(const IngestOptions& opts) {
  return opts.cancelled && opts.cancelled();
}

}  // namespace

Status CommitDelta(const Matcher& matcher, const IngestSession& session,
                   const GraphDelta& delta, IngestStats& stats) {
  Timer apply_timer;
  auto dirty = session.graph->Apply(delta);
  stats.seconds.apply += apply_timer.Seconds();
  GKEYS_RETURN_IF_ERROR(dirty.status());
  Timer patch_timer;
  StatusOr<MatchPlan> patched = session.plan->Patch(delta);
  stats.seconds.patch += patch_timer.Seconds();
  GKEYS_RETURN_IF_ERROR(patched.status());
  Timer rematch_timer;
  StatusOr<MatchResult> rematched =
      matcher.Rematch(*patched, *session.result, delta);
  stats.seconds.rematch += rematch_timer.Seconds();
  GKEYS_RETURN_IF_ERROR(rematched.status());
  *session.plan = *std::move(patched);
  *session.result = *std::move(rematched);
  stats.added_triples += delta.num_added_triples();
  stats.removed_triples += delta.num_removed_triples();
  ++stats.commits;
  return Status::OK();
}

Status CommitBatches(const Matcher& matcher, const IngestSession& session,
                     std::span<const TokenizedText* const> batches,
                     IngestStats& stats, const BatchCommitted& committed) {
  for (size_t begin = 0; begin < batches.size();) {
    // Grow the group until the binder rejects a batch or the run ends.
    Timer bind_timer;
    std::optional<DeltaBinder> binder;
    binder.emplace(*session.graph, *session.entity_names);
    std::vector<bool> contributed;
    size_t end = begin;
    Status rejected;
    for (; end < batches.size(); ++end) {
      const size_t ops_before = binder->ops();
      rejected = binder->Append(*batches[end]);
      if (!rejected.ok()) break;
      contributed.push_back(binder->ops() > ops_before);
    }
    if (end == begin) {
      stats.seconds.bind += bind_timer.Seconds();
      return rejected;  // first of its group: fails as it would alone
    }
    if (end < batches.size()) {
      // The rejected batch may have left part of itself in the binder.
      binder.emplace(*session.graph, *session.entity_names);
      for (size_t i = begin; i < end; ++i) {
        GKEYS_RETURN_IF_ERROR(binder->Append(*batches[i]));
      }
    }
    std::unordered_map<std::string, NodeId> new_bindings;
    GraphDelta delta = binder->Take(&new_bindings);
    stats.seconds.bind += bind_timer.Seconds();

    if (!delta.empty()) {
      GKEYS_RETURN_IF_ERROR(CommitDelta(matcher, session, delta, stats));
    }
    stats.batches += end - begin;
    for (bool c : contributed) {
      if (!c) ++stats.empty_batches;
    }
    for (auto& [token, id] : new_bindings) {
      session.entity_names->emplace(token, id);
    }
    if (committed) {
      for (size_t i = begin; i < end; ++i) {
        GKEYS_RETURN_IF_ERROR(committed(i, delta, contributed[i - begin]));
      }
    }
    begin = end;
  }
  return Status::OK();
}

IngestStats RunIngestPipeline(const Matcher& matcher,
                              const IngestSession& session,
                              const IngestSource& source,
                              const IngestOptions& opts,
                              const IngestObserver& observer) {
  IngestStats stats;
  if (session.graph == nullptr || session.plan == nullptr ||
      session.result == nullptr || session.entity_names == nullptr) {
    stats.status =
        Status::InvalidArgument("ingest: incomplete session (null pointer)");
    return stats;
  }
  if (!source) {
    stats.status = Status::InvalidArgument("ingest: null batch source");
    return stats;
  }

  BatchQueue queue(opts.queue_depth);

  // Tokenize stage. Owns the source and only tokenizes, so it never
  // touches the session the engine below is mutating. Its outcomes flow
  // back through the queue (per-batch tokens) and these two slots
  // (stream-end reason + stage clock), read after join.
  Status producer_status;
  double producer_parse_seconds = 0;
  std::thread tokenizer([&]() {
    for (size_t index = 0;; ++index) {
      if (Cancelled(opts)) {
        producer_status = Status::Cancelled("ingest cancelled");
        break;
      }
      std::optional<std::string> text = source();
      if (!text.has_value()) break;  // end of stream
      ParsedBatch batch;
      batch.index = index;
      batch.text = *std::move(text);
      Timer parse_timer;
      batch.tokens = TokenizeDeltaText(batch.text);
      producer_parse_seconds += parse_timer.Seconds();
      if (!queue.Push(std::move(batch))) break;  // engine stopped early
    }
    queue.CloseProducer();
  });

  // Engine stage (this thread): bind → Apply → Patch → Rematch, serial,
  // in commit order. Stops at the first failure with the session still
  // at the last committed batch.
  Status engine_status;
  const size_t max_coalesce = opts.max_coalesce < 1 ? 1 : opts.max_coalesce;
  while (engine_status.ok()) {
    if (Cancelled(opts)) {
      engine_status = Status::Cancelled("ingest cancelled");
      break;
    }
    std::optional<ParsedBatch> first = queue.Pop();
    if (!first.has_value()) break;  // producer done and queue drained

    // Group commit: whatever backlog the queue already holds rides along
    // with this batch, up to max_coalesce per pass. TryPop never blocks,
    // so an empty queue just means a group of one. The group must be
    // fully collected before any binding: the binder keeps string_views
    // into the batch texts, and vector growth moves them.
    std::vector<ParsedBatch> group;
    group.push_back(*std::move(first));
    while (group.size() < max_coalesce) {
      std::optional<ParsedBatch> more = queue.TryPop();
      if (!more.has_value()) break;
      group.push_back(*std::move(more));
    }
    std::vector<const TokenizedText*> tokens;
    for (const ParsedBatch& batch : group) tokens.push_back(&batch.tokens);
    engine_status = CommitBatches(
        matcher, session, tokens, stats,
        [&](size_t i, const GraphDelta& delta, bool contributed) {
          if (!observer) return Status::OK();
          IngestBatch committed;
          committed.index = group[i].index;
          committed.text = &group[i].text;
          committed.delta = &delta;
          committed.result = session.result;
          committed.contributed = contributed;
          return observer(committed);
        });
  }

  // Shutdown: wake the producer if it is blocked in Push, then join.
  queue.CloseConsumer();
  tokenizer.join();
  stats.seconds.parse = producer_parse_seconds;
  stats.status = !engine_status.ok() ? std::move(engine_status)
                                     : std::move(producer_status);
  return stats;
}

// Defined here (not in matcher.cc) so the pipeline machinery stays in
// one translation unit.
IngestStats Matcher::IngestStream(const IngestSession& session,
                                  const IngestSource& source,
                                  const IngestOptions& opts,
                                  const IngestObserver& observer) const {
  return RunIngestPipeline(*this, session, source, opts, observer);
}

}  // namespace gkeys
