#include "core/match_plan.h"

#include "common/timer.h"

namespace gkeys {

StatusOr<MatchPlan> CompileMatchPlan(const Graph& g, const KeySet& keys,
                                     const PlanOptions& opts) {
  if (!g.finalized()) {
    return Status::FailedPrecondition(
        "MatchPlan requires a finalized graph: call Graph::Finalize() "
        "before Matcher::Compile");
  }
  if (keys.empty()) {
    return Status::InvalidArgument(
        "MatchPlan requires a non-empty key set (nothing to match on)");
  }
  if (opts.processors < 1 || opts.processors > kMaxProcessors) {
    return Status::InvalidArgument(
        "PlanOptions::processors must be in [1, " +
        std::to_string(kMaxProcessors) + "], got " +
        std::to_string(opts.processors));
  }

  Timer timer;
  // Compile is Patch from an empty plan: the patch constructor over the
  // deserialization shell with every node dirty, and the product graph
  // patched from an empty one. Not make_shared: Rep is private and
  // friendship does not reach into the standard library's allocation
  // helpers.
  const EmContext empty(EmContext::DeserializeShell{}, g, keys, opts);
  ContextPatchInfo info;
  std::shared_ptr<MatchPlan::Rep> rep(
      new MatchPlan::Rep(empty, keys, EmContext::EveryNode(g), {}, &info));
  if (opts.build_product_graph) {
    rep->pg.emplace(
        PatchProductGraph(ProductGraph(), empty, rep->ctx, info, {}));
  }
  rep->compile_seconds = timer.Seconds();
  return MatchPlan(std::move(rep));
}

StatusOr<MatchPlan> MatchPlan::Patch(const GraphDelta& delta) const {
  if (!valid()) {
    return Status::InvalidArgument(
        "cannot Patch an empty MatchPlan: obtain one from Matcher::Compile");
  }
  const Graph& g = graph();
  if (!g.finalized()) {
    return Status::FailedPrecondition(
        "MatchPlan::Patch requires the delta to be applied first: "
        "Graph::Apply mutates and re-finalizes the graph");
  }
  if (g.NumNodes() != delta.base_nodes() + delta.num_new_nodes()) {
    return Status::FailedPrecondition(
        "MatchPlan::Patch: the graph has " + std::to_string(g.NumNodes()) +
        " nodes but the applied delta implies " +
        std::to_string(delta.base_nodes() + delta.num_new_nodes()) +
        " — was this delta applied to this plan's graph?");
  }

  Timer timer;
  std::vector<NodeId> dirty = delta.TouchedNodes();
  std::vector<std::pair<NodeId, NodeId>> triples;
  triples.reserve(delta.num_added_triples() + delta.num_removed_triples());
  for (const auto* list : {&delta.added(), &delta.removed()}) {
    for (const GraphDelta::DeltaTriple& t : *list) {
      triples.emplace_back(t.subject, t.object);
    }
  }
  ContextPatchInfo info;
  std::shared_ptr<MatchPlan::Rep> rep(
      new MatchPlan::Rep(rep_->ctx, *rep_->keys, dirty, triples, &info));
  if (rep_->ctx.options().build_product_graph) {
    // Gp is patched at |L| scale: carried-over candidates keep their
    // contributions; dirty ones add the relations their pairing pass just
    // collected.
    Timer pg_timer;
    rep->pg.emplace(
        PatchProductGraph(*rep_->pg, rep_->ctx, rep->ctx, info, dirty));
    info.product_graph_seconds = pg_timer.Seconds();
  }
  rep->patched = true;
  rep->dirty_candidates = std::move(info.dirty_candidates);
  rep->patch_info = std::move(info);
  rep->patch_info.dirty_candidates.clear();  // lives in dirty_candidates()
  rep->compile_seconds = timer.Seconds();
  return MatchPlan(std::move(rep));
}

}  // namespace gkeys
