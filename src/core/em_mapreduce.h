#ifndef GKEYS_CORE_EM_MAPREDUCE_H_
#define GKEYS_CORE_EM_MAPREDUCE_H_

#include "core/em_common.h"
#include "keys/key.h"

namespace gkeys {

/// The EMMR family (paper §4): entity matching as an iterative MapReduce
/// computation. Each round:
///   * MapEM   — every active candidate pair is checked in parallel:
///               (Gd1 ∪ Gd2, Eq, Σ) |= (e1, e2) via procedure EvalMR
///               (or VF2 enumeration for EMVF2MR); results are emitted
///               keyed by entity;
///   * ReduceEM— newly identified pairs are merged into the global Eq
///               (transitivity via union-find, standing in for the
///               explicit TC joins over the HDFS-resident Eq), and
///               still-unidentified pairs are re-emitted for the next
///               round;
///   * the driver stops when a round changes nothing (Eq is a fixpoint).
///
/// Options map to the paper's variants:
///   * EMMR      — EmOptions::For(kEmMr, p);
///   * EMVF2MR   — use_vf2 (full match enumeration, no early termination);
///   * EMOptMR   — use_pairing (smaller L and neighbors), use_dependency
///                 (value-based L0 seeds first), use_incremental (re-check
///                 only after a dependency fired), §4.2.
///
/// Parallel scalability (Theorem 6): each round's map work is split over
/// p workers; on quiet data the wall time scales ~1/p (benchmarked).
///
/// Executes the iterative phase over a compiled plan's context with
/// caller-supplied run-time options (which may differ from the options
/// the context was compiled with — the compile-once/run-many contract of
/// Matcher). When `sink` is non-null, confirmed pairs and per-round
/// progress are streamed to it and cancellation is honored between
/// rounds (StatusCode::kCancelled).
///
/// With a `seed` (Matcher::Rematch), Eq starts from the previous
/// fixpoint, only the seed's active candidates enter round 1, and merges
/// pull clean candidates into the pipeline through the dependency index
/// and ghost watchers (regardless of use_incremental — the restricted
/// input set requires the wake-ups for completeness).
StatusOr<MatchResult> RunEmMapReduce(const EmContext& ctx,
                                     const EmOptions& run_options,
                                     MatchSink* sink,
                                     const RematchSeed* seed = nullptr);

}  // namespace gkeys

#endif  // GKEYS_CORE_EM_MAPREDUCE_H_
