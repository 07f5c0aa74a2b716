#ifndef GKEYS_CORE_EM_VERTEXCENTRIC_H_
#define GKEYS_CORE_EM_VERTEXCENTRIC_H_

#include "core/em_common.h"
#include "core/product_graph.h"
#include "keys/key.h"

namespace gkeys {

/// The EMVC family (paper §5): entity matching on the asynchronous
/// vertex-centric engine. The algorithm constructs the product graph Gp,
/// then seeds one message per (candidate pair, key). A message carries
/// the partial instantiation vector m and walks Gp guided by the key's
/// traversal order P_Q (a closed DFS tour from x, 2|Q| hops, Lemma 11);
/// at each product node it runs the EvalMR feasibility conditions and
/// forks a copy per eligible neighbor. A message arriving back at its
/// origin fully instantiated proves (G, {Q}) |= (e1, e2): the pair is
/// merged into the shared Eq and every dependent candidate (dep edges,
/// §4.2) is re-seeded so recursive keys fire incrementally — no rounds,
/// no barriers, no straggler blocking.
///
/// Optimizations (§5.2, enabled by EmOptions):
///   * bounded_messages k — at most k message copies per (pair, key)
///     check; once the budget is spent the message explores the remaining
///     branches sequentially *in place*, backtracking instead of forking;
///   * prioritized — eligible neighbors are tried highest-potential first
///     (potential = the neighbor's edge count matching the next tour hop:
///     the length of that predicate's run in Gp's CSR).
///
/// Transitive closure: subsumed by the concurrent union-find; a
/// quiescence sweep re-seeds dependents of pairs that became equal purely
/// transitively, guaranteeing the chase fixpoint (docs/ARCHITECTURE.md,
/// "Deviations from the paper").
///
/// Executes EMVC over a compiled plan's context and product-graph
/// skeleton with caller-supplied run-time options (bounded messages,
/// prioritization, processors — independent of how the context was
/// compiled). When `sink` is non-null, confirmed pairs and per-round
/// progress are streamed and cancellation is honored between engine runs
/// (StatusCode::kCancelled).
/// With a `seed` (Matcher::Rematch), Eq starts from the previous
/// fixpoint, only the seed's active candidates get initial messages, and
/// the existing increment-message / quiescence-sweep machinery cascades
/// into clean candidates that new merges enable.
StatusOr<MatchResult> RunEmVertexCentric(const EmContext& ctx,
                                         const ProductGraph& pg,
                                         const EmOptions& run_options,
                                         MatchSink* sink,
                                         const RematchSeed* seed = nullptr);

}  // namespace gkeys

#endif  // GKEYS_CORE_EM_VERTEXCENTRIC_H_
