#ifndef GKEYS_CORE_MATCHER_H_
#define GKEYS_CORE_MATCHER_H_

#include "common/status.h"
#include "core/em_common.h"
#include "core/ingest_pipeline.h"
#include "core/match_plan.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "keys/key.h"

namespace gkeys {

namespace storage {
struct RecoveredSession;  // src/storage/recovery.h
}  // namespace storage

/// The library's session API: compile once, run many (paper §4–§5; all
/// algorithms share DriverMR's expensive line-1 preparation, so it is
/// hoisted into an immutable MatchPlan).
///
///     gkeys::Graph g = ...;                   // build and Finalize()
///     gkeys::KeySet keys; keys.AddFromDsl(...);
///
///     auto plan = gkeys::Matcher::Compile(g, keys);
///     if (!plan.ok()) { /* plan.status() */ }
///
///     gkeys::Matcher matcher;                 // defaults to EMOptVC
///     matcher.processors(8);
///     auto result = matcher.Run(*plan);       // StatusOr<MatchResult>
///
///     // The same plan, other algorithms — no recompilation:
///     auto mr = gkeys::Matcher(gkeys::Algorithm::kEmOptMr).Run(*plan);
///
/// Streaming: Run(plan, sink) emits each confirmed pair exactly once and
/// a progress snapshot per fixpoint round, and polls the sink for
/// cooperative cancellation (StatusCode::kCancelled).
///
/// Incremental lifecycle: after a GraphDelta is applied
/// (Graph::Apply → MatchPlan::Patch), Rematch(patched, prev, delta)
/// continues from the previous result instead of recomputing — seeded
/// for additive deltas outright, and for removal deltas through
/// provenance retraction (every result carries a per-derivation
/// provenance index; see MatchResult::derivations). Identification is
/// monotone in G and the chase is Church–Rosser (paper §3.1), so the
/// seeded run returns pairs byte-identical to a from-scratch Compile +
/// Run on the post-delta graph.
///
/// A Matcher is a small value object holding only configuration; it is
/// cheap to construct and copy, and one plan can be shared by matchers on
/// many threads (runs never mutate the plan, the previous result, or the
/// delta). Configure a Matcher on one thread before sharing it; the
/// execution methods are const and concurrently callable.
class Matcher {
 public:
  /// Defaults to the paper's best all-round algorithm, EMOptVC.
  Matcher() : Matcher(Algorithm::kEmOptVc) {}
  explicit Matcher(Algorithm a) { algorithm(a); }

  /// Compiles `keys` against `g` into a reusable plan. Status errors:
  /// FailedPrecondition (unfinalized graph), InvalidArgument (empty key
  /// set, bad options).
  static StatusOr<MatchPlan> Compile(const Graph& g, const KeySet& keys,
                                     const PlanOptions& opts = {}) {
    return CompileMatchPlan(g, keys, opts);
  }

  // ---- Builder-style configuration ----------------------------------
  // algorithm() loads the paper preset for `a` (EmOptions::For),
  // preserving the configured processor count; options() replaces the
  // whole set. Order matters: set the algorithm first, then the rest.

  Matcher& algorithm(Algorithm a) {
    algorithm_ = a;
    options_ = EmOptions::For(a, options_.processors);
    return *this;
  }
  /// Worker threads for the run (the paper's p), 1 to kMaxProcessors.
  Matcher& processors(int p) {
    options_.processors = p;
    return *this;
  }
  /// Graceful degradation for over-budget runs: a wall-clock budget in
  /// seconds, checked at the top of every fixpoint round. An expired
  /// budget returns StatusCode::kDeadlineExceeded through the same
  /// cooperative machinery as sink cancellation — a streaming sink keeps
  /// every pair emitted so far. A run that converges within the budget
  /// never fails. 0 = unbounded (default).
  Matcher& deadline_seconds(double s) {
    options_.time_budget_seconds = s;
    return *this;
  }
  /// Replaces the whole option set at once (for callers that already
  /// hold an EmOptions, e.g. the ablation bench and the engine tests).
  Matcher& options(const EmOptions& opts) {
    options_ = opts;
    return *this;
  }

  Algorithm algorithm() const { return algorithm_; }
  const EmOptions& options() const { return options_; }

  // ---- Execution -----------------------------------------------------

  /// Runs the configured algorithm over a compiled plan and materializes
  /// the full result. Status errors instead of asserts: InvalidArgument
  /// (invalid plan or options), FailedPrecondition (EMVC family on a plan
  /// compiled without its product graph).
  StatusOr<MatchResult> Run(const MatchPlan& plan) const {
    return RunWithSink(plan, nullptr);
  }

  /// Streaming run: identified pairs and per-round progress go to `sink`
  /// as the fixpoint advances (each pair exactly once; at least one
  /// OnProgress per round; serialized callbacks — see MatchSink). The
  /// returned result is the same one a non-streaming Run yields. If the
  /// sink requests cancellation the run stops at the next round boundary
  /// with StatusCode::kCancelled.
  StatusOr<MatchResult> Run(const MatchPlan& plan, MatchSink& sink) const {
    return RunWithSink(plan, &sink);
  }

  /// Incremental re-run after a graph delta. `plan` is the PATCHED plan
  /// (prev_plan.Patch(delta) after Graph::Apply(delta)); `prev` is the
  /// result of the previous run on the pre-delta graph — pass it back
  /// whole, its derivations ARE the provenance index removals need. The
  /// result is byte-identical to a from-scratch Run on the post-delta
  /// graph.
  ///
  /// Additive deltas: the fixpoint is seeded from `prev` and only the
  /// plan's dirty candidates are re-checked (the dependency/ghost
  /// machinery cascades into clean pairs new merges enable) —
  /// identification is monotone in G, so nothing previously derived can
  /// be lost.
  ///
  /// Removal deltas: previous derivations whose witness realized a
  /// removed triple are retracted, transitively over premises (DRed-style
  /// over-deletion; RetractDerivations in core/provenance.h). The run is
  /// then seeded from the SURVIVING derivations, re-checking the dirty
  /// candidates plus every candidate whose pair was retracted — survivors
  /// of the over-deletion re-derive through the normal fixpoint. A `prev`
  /// without derivations (only a hand-built one lacks them) retains an
  /// empty seed, which is still exact but re-checks every previously
  /// identified pair.
  ///
  /// The result's stats record the seeding: rematch_seeded (always 1) and
  /// derivations_retracted.
  ///
  /// The returned result is complete (retained pairs included), with
  /// prep_seconds = the PATCH cost of `plan`.
  StatusOr<MatchResult> Rematch(const MatchPlan& plan,
                                const MatchResult& prev,
                                const GraphDelta& delta) const {
    return RematchWithSink(plan, prev, delta, nullptr);
  }

  /// Streaming rematch: the sink sees every pair NOT in the retained seed
  /// — for additive deltas exactly the delta beyond `prev`, each exactly
  /// once (exactly-once across the whole plan lifetime when the same sink
  /// outlives successive additive rematches). When removals retract
  /// derivations, retracted-then-re-derived pairs are re-emitted (the
  /// stream cannot un-emit), and pairs that stay lost simply do not
  /// appear; OnPairRetracted reports the pairs of `prev` the result lost.
  /// `prev.pairs` must be closed under transitivity, as every result's
  /// are: the stream counts all pairs of the seed's classes as already
  /// emitted, so an additive rematch from an unclosed list is
  /// InvalidArgument before the sink sees any callback.
  StatusOr<MatchResult> Rematch(const MatchPlan& plan,
                                const MatchResult& prev,
                                const GraphDelta& delta,
                                MatchSink& sink) const {
    return RematchWithSink(plan, prev, delta, &sink);
  }

  /// Crash-recovery path: rebuilds a session from a durable directory
  /// (storage::DurableDir) — newest valid snapshot plus every
  /// acknowledged write-ahead-log batch replayed through the incremental
  /// lifecycle. NotFound when the directory holds no snapshot;
  /// kDataLoss only when an ACKNOWLEDGED batch is unrecoverable (torn
  /// unacknowledged tails are silently truncated and counted in the
  /// report). Defined in storage/recovery.cc so the core library stays
  /// layered below the storage subsystem; see storage/recovery.h for the
  /// state machine.
  StatusOr<storage::RecoveredSession> Recover(const std::string& dir) const;

  /// Streaming ingest: pulls delta batches from `source` through the
  /// staged pipeline (core/ingest_pipeline.h) — batch N+1 tokenizes on
  /// its own thread while batch N runs bind → Apply → Patch → Rematch
  /// here — advancing `session` in place, byte-identical to calling the
  /// serial chain per batch. Defined in core/ingest_pipeline.cc.
  IngestStats IngestStream(const IngestSession& session,
                           const IngestSource& source,
                           const IngestOptions& opts = {},
                           const IngestObserver& observer = {}) const;

 private:
  Status Validate(const MatchPlan& plan) const;
  /// Runs the configured engine — seeded when `seed` is non-null — and
  /// reports the plan's compile time as EmStats::prep_seconds.
  StatusOr<MatchResult> Dispatch(const MatchPlan& plan, MatchSink* sink,
                                 const RematchSeed* seed) const;
  StatusOr<MatchResult> RunWithSink(const MatchPlan& plan,
                                    MatchSink* sink) const;
  StatusOr<MatchResult> RematchWithSink(const MatchPlan& plan,
                                        const MatchResult& prev,
                                        const GraphDelta& delta,
                                        MatchSink* sink) const;
  Algorithm algorithm_ = Algorithm::kEmOptVc;
  EmOptions options_;
};

}  // namespace gkeys

#endif  // GKEYS_CORE_MATCHER_H_
