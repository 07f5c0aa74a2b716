#ifndef GKEYS_CORE_FIXPOINT_H_
#define GKEYS_CORE_FIXPOINT_H_

// The fixpoint shell the three engine families (core/chase.cc,
// core/em_mapreduce.cc, core/em_vertexcentric.cc) run inside. Engine
// internals: no public header includes this one.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/em_common.h"
#include "eq/equivalence.h"

namespace gkeys {
namespace internal {

/// A small stable per-thread slot id, assigned on first use and fixed
/// for the thread's lifetime. The sharded logs below map a recording
/// thread to `slot % shards`: every thread always lands on the SAME
/// shard, so per-thread record order is preserved within its shard.
inline uint32_t ThreadLogSlot() {
  static std::atomic<uint32_t> next_slot{0};
  thread_local const uint32_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Collects the Eq merges an engine performs, so the stream can list
/// exactly the classes a round changed and Finish can list the pairs of
/// exactly the classes the run touched. Sharded: each
/// worker thread records into a cache-line-padded local shard (fixed
/// thread → shard mapping via ThreadLogSlot), so the map/compute phases
/// never contend on one global mutex; Drain concatenates shards in
/// shard-index order, which is deterministic given what each thread
/// recorded. Consumers are order-insensitive: both group the merges'
/// endpoints by their current root (ClassPairs), which no merge order
/// changes.
class MergeLog {
 public:
  explicit MergeLog(int shards = 1)
      : shards_(shards < 1 ? 1 : static_cast<size_t>(shards)) {}

  void Record(NodeId a, NodeId b) {
    Shard& s = shards_[ThreadLogSlot() % shards_.size()];
    MutexLock lock(s.mu);
    s.log.emplace_back(a, b);
  }

  /// Moves out everything recorded since the previous Drain, shards
  /// concatenated in shard-index order.
  std::vector<std::pair<NodeId, NodeId>> Drain() {
    std::vector<std::pair<NodeId, NodeId>> out;
    for (Shard& s : shards_) {
      MutexLock lock(s.mu);
      if (out.empty()) {
        out = std::exchange(s.log, {});
      } else {
        out.insert(out.end(), s.log.begin(), s.log.end());
        s.log.clear();
      }
    }
    return out;
  }

 private:
  struct alignas(64) Shard {
    Mutex mu;
    std::vector<std::pair<NodeId, NodeId>> log GKEYS_GUARDED_BY(mu);
  };
  // Constructed once, never resized: Shard is pinned in place (Mutex is
  // neither copyable nor movable).
  std::vector<Shard> shards_;
};

/// Collects the Derivations an engine records during a run. Sharded
/// like MergeLog (per-worker cache-line-padded shards, fixed thread →
/// shard mapping), but unlike merges the derivation log's ORDER is a
/// contract: RetractDerivations replays it front to back and treats an
/// entry whose premises are not yet supported as retracted, so a
/// supporter must precede every dependent. The engines' record-before-
/// Union discipline guarantees that in wall-clock time (a premise can
/// only read Same after the supporting Union, which its deriver's
/// Record precedes) — sharding must not lose it across shards. Each
/// Record therefore stamps the entry from one shared atomic counter
/// BEFORE appending to its shard, and Take merges shards by stamp: the
/// supporter's fetch_add happens-before the dependent's (through the
/// Union/Same synchronization the discipline already relies on), so
/// supporter stamps are strictly smaller and the merged log replays
/// exactly like a single-mutex global log. The counter is one
/// uncontended-size RMW — far cheaper than the mutex critical section
/// (lock + vector append + unlock) it replaces as the shared hot spot.
class DerivationLog {
 public:
  explicit DerivationLog(int shards = 1)
      : shards_(shards < 1 ? 1 : static_cast<size_t>(shards)) {}

  void Record(Derivation d) {
    const uint64_t stamp = seq_.fetch_add(1, std::memory_order_acq_rel);
    Shard& s = shards_[ThreadLogSlot() % shards_.size()];
    MutexLock lock(s.mu);
    s.log.push_back(Entry{stamp, std::move(d)});
  }

  /// Moves out everything recorded so far (call once, post-fixpoint),
  /// merged across shards into record-stamp order.
  std::vector<Derivation> Take() {
    std::vector<Entry> entries;
    for (Shard& s : shards_) {
      MutexLock lock(s.mu);
      entries.insert(entries.end(), std::make_move_iterator(s.log.begin()),
                     std::make_move_iterator(s.log.end()));
      s.log.clear();
    }
    // Stamps are distinct (fetch_add), so this is a total order; each
    // shard's run is already ascending, making sort cheap in practice.
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    std::vector<Derivation> out;
    out.reserve(entries.size());
    for (Entry& e : entries) out.push_back(std::move(e.d));
    return out;
  }

 private:
  struct Entry {
    uint64_t stamp;
    Derivation d;
  };
  struct alignas(64) Shard {
    Mutex mu;
    std::vector<Entry> log GKEYS_GUARDED_BY(mu);
  };
  std::atomic<uint64_t> seq_{0};
  std::vector<Shard> shards_;
};

/// One engine run's fixpoint shell. It owns what every engine needs
/// around its check step: the run timer and EmStats, the shared Eq, the
/// merge and derivation logs (one shard per processor, at most 64), the
/// pair stream, the round boundary (deadline, progress, cancellation),
/// and the watch flags that wake dependents when a candidate or ghost
/// becomes equal. An engine constructs one, runs rounds of its own
/// check step between BeginRound and EndRound, and returns Finish().
///
/// Watch flags: candidate i is "done" once its dependents were woken,
/// or once no wake is needed (equal under the seed). The shell marks
/// seed-equal candidates and ghosts done up front WITHOUT waking their
/// dependents — the previous run drew those consequences — so only new
/// merges cascade. An engine marks the candidates it wakes for itself
/// (MarkDone); Sweep handles the rest.
class FixpointRun {
 public:
  /// Starts the run timer and fills the plan-derived EmStats fields.
  /// With a `seed`, Eq starts from seed->prev_pairs (counted as already
  /// streamed) and the seed-equal candidates and ghosts are marked done.
  /// With a seed and a sink, a seed list not closed under transitivity
  /// fails the run with InvalidArgument at the first BeginRound (or
  /// Finish), before the sink sees any callback.
  FixpointRun(const EmContext& ctx, const EmOptions& opts, MatchSink* sink,
              const RematchSeed* seed);
  // Workers and callbacks hold its address for the whole run.
  FixpointRun(const FixpointRun&) = delete;
  FixpointRun& operator=(const FixpointRun&) = delete;

  /// Eq grows only through Merge, so the merge log sees every merge.
  const ConcurrentEquivalence& eq() const { return eq_; }
  EqView view() const { return EqView(&eq_); }
  EmStats& stats() { return stats_; }
  bool seeded() const { return seed_ != nullptr; }

  bool done(uint32_t i) const {
    return done_[i].load(std::memory_order_acquire) != 0;
  }
  /// Marks candidate i done; false when it already was (concurrent
  /// callers: exactly one wins).
  bool MarkDone(uint32_t i) {
    uint8_t expected = 0;
    return done_[i].compare_exchange_strong(expected, 1);
  }

  /// Records the Derivation of candidate `c` identified by compiled key
  /// `key` under `witness`. Call BEFORE Merge, so the log replays
  /// supporters ahead of dependents.
  void Record(const Candidate& c, int key, const Witness& witness) {
    deriv_log_.Record(ctx_.MakeDerivation(c, key, witness));
  }
  /// Unions (a, b) into Eq; true iff the classes were distinct. Thread-
  /// safe; the merge is logged, streamed at the next EndRound and listed
  /// by Finish.
  bool Merge(NodeId a, NodeId b) {
    if (!eq_.Union(a, b)) return false;
    merge_log_.Record(a, b);
    return true;
  }

  /// Top of a round: the seed's InvalidArgument (see the constructor),
  /// kDeadlineExceeded once EmOptions::time_budget_seconds is spent (a
  /// run that converges within budget never fails — the check precedes
  /// rounds), else counts the round.
  Status BeginRound();
  /// End of a round, with the workers quiescent: streams the round's
  /// merges and reports progress to the sink, and returns kCancelled
  /// when the sink asks to stop. Engines update their own counters
  /// (iso_checks, messages) in stats() first.
  Status EndRound();

  /// Calls wake(dep) for every dependent of each candidate (not done)
  /// and ghost (not yet seen equal) that is now equal, candidates in
  /// index order and then ghosts, marking each done. Same-ness only
  /// grows by merges, so a sweep with no merge since the last one
  /// returns at once.
  template <typename Wake>
  void Sweep(Wake&& wake) {
    if (eq_.num_merges() == swept_merges_) return;
    swept_merges_ = eq_.num_merges();
    const auto& candidates = ctx_.candidates();
    for (uint32_t i = 0; i < candidates.size(); ++i) {
      if (done(i) || !eq_.Same(candidates[i].e1, candidates[i].e2)) continue;
      MarkDone(i);
      for (uint32_t dep : ctx_.dependents(i)) wake(dep);
    }
    const auto ghosts = ctx_.ghosts();
    for (uint32_t gi = 0; gi < ghosts.size(); ++gi) {
      if (ghost_done_[gi] != 0 || !eq_.Same(ghosts[gi].e1, ghosts[gi].e2)) {
        continue;
      }
      ghost_done_[gi] = 1;
      for (uint32_t dep : ctx_.ghost_dependents(gi)) wake(dep);
    }
  }

  /// The result: pairs, the derivations (the seed's carried prefix, so
  /// the index stays replayable across chained rematches, then this
  /// run's records), and the stream of the merges since the last round,
  /// checking the exactly-once invariant (seed pairs plus streamed pairs
  /// == result pairs). The pairs are listed from the seed's and the run's
  /// merging unions (PairsOfMergedClasses), so Finish costs the merges
  /// and the pairs, not the nodes, on cold and seeded runs alike, and
  /// allocates nothing NumNodes()-sized.
  StatusOr<MatchResult> Finish();

 private:
  /// Streams the pairs that `merges`, the merges since the last stream,
  /// newly imply, and counts them into stats_.confirmed: ClassPairs of
  /// the joined classes' members under their roots now, minus ClassPairs
  /// of the same members under their labels in streamed_ — one sorted
  /// set difference. Only classes a merge joined are listed; every other
  /// class kept its members and implies nothing new.
  void StreamMerges(std::span<const std::pair<NodeId, NodeId>> merges);

  const Timer timer_;
  const EmContext& ctx_;
  const EmOptions& opts_;
  MatchSink* const sink_;
  const RematchSeed* const seed_;
  EmStats stats_;
  ConcurrentEquivalence eq_;
  MergeLog merge_log_;
  // Every union that merged so far: the seed's, then the run's merges as
  // rounds drain them from merge_log_.
  std::vector<std::pair<NodeId, NodeId>> merged_;
  DerivationLog deriv_log_;
  // With a seed and a sink: OK, or the InvalidArgument of a seed list
  // that is not closed under transitivity.
  Status seed_status_;
  // With a sink: one ClassEntry per endpoint of every merge streamed so
  // far (the seed's included), labelled with its class's root as of the
  // last stream that touched the class.
  std::vector<uint64_t> streamed_;
  std::vector<std::atomic<uint8_t>> done_;
  std::vector<uint8_t> ghost_done_;
  size_t swept_merges_ = 0;
};

}  // namespace internal
}  // namespace gkeys

#endif  // GKEYS_CORE_FIXPOINT_H_
