#include "core/matcher.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "core/chase.h"
#include "core/em_mapreduce.h"
#include "core/em_vertexcentric.h"
#include "core/provenance.h"

namespace gkeys {

namespace {

/// Reports prev \ cur to the sink (both pair lists sorted): the exact
/// retractions a removal delta caused, net of everything the fixpoint
/// re-derived. Called after the new result is final, so every reported
/// pair is genuinely gone. Returns the count for EmStats::pairs_retracted.
size_t ReportRetractedPairs(const std::vector<std::pair<NodeId, NodeId>>& prev,
                            const std::vector<std::pair<NodeId, NodeId>>& cur,
                            MatchSink* sink) {
  size_t retracted = 0;
  auto it = cur.begin();
  for (const auto& p : prev) {
    while (it != cur.end() && *it < p) ++it;
    if (it != cur.end() && *it == p) continue;
    ++retracted;
    if (sink != nullptr) sink->OnPairRetracted(p.first, p.second);
  }
  return retracted;
}

/// InvalidArgument naming the first pair of `pairs` that a result on a
/// graph of `num_nodes` nodes cannot hold: every pair is (a, b) with
/// a < b < num_nodes, and the list ascends strictly.
Status CheckPrevPairs(std::span<const std::pair<NodeId, NodeId>> pairs,
                      size_t num_nodes) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    const char* problem = nullptr;
    if (a >= num_nodes || b >= num_nodes) {
      problem = "names a node past the graph's end";
    } else if (a >= b) {
      problem = "is not ordered a < b";
    } else if (i > 0 && pairs[i - 1] >= pairs[i]) {
      problem = "does not ascend strictly";
    }
    if (problem != nullptr) {
      return Status::InvalidArgument(
          "previous result's pair " + std::to_string(i) + " (" +
          std::to_string(a) + ", " + std::to_string(b) + ") " + problem +
          " (the graph has " + std::to_string(num_nodes) + " nodes)");
    }
  }
  return Status::OK();
}

/// InvalidArgument naming the first derivation of `index` whose pair,
/// premises or witness triples name a node past `num_nodes`.
Status CheckPrevDerivations(const ProvenanceIndex& index, size_t num_nodes) {
  for (size_t i = 0; i < index.size(); ++i) {
    bool in_range =
        index.heads[i].e1 < num_nodes && index.heads[i].e2 < num_nodes;
    for (const auto& [a, b] : index.premises[i]) {
      in_range = in_range && a < num_nodes && b < num_nodes;
    }
    for (const WitnessTriple& t : index.triples[i]) {
      in_range = in_range && t.s < num_nodes && t.o < num_nodes;
    }
    if (!in_range) {
      return Status::InvalidArgument(
          "previous result's derivation " + std::to_string(i) + " of (" +
          std::to_string(index.heads[i].e1) + ", " +
          std::to_string(index.heads[i].e2) +
          ") names a node past the graph's " + std::to_string(num_nodes) +
          " nodes");
    }
  }
  return Status::OK();
}

}  // namespace

Status Matcher::Validate(const MatchPlan& plan) const {
  if (!plan.valid()) {
    return Status::InvalidArgument(
        "cannot run an empty MatchPlan: obtain one from Matcher::Compile");
  }
  if (options_.processors < 1 || options_.processors > kMaxProcessors) {
    return Status::InvalidArgument(
        "processors must be in [1, " + std::to_string(kMaxProcessors) +
        "], got " + std::to_string(options_.processors));
  }
  if (options_.time_budget_seconds < 0) {
    return Status::InvalidArgument(
        "time_budget_seconds must be >= 0 (0 = unbounded)");
  }
  if (options_.bounded_messages < 0) {
    return Status::InvalidArgument(
        "bounded_messages must be >= 0 (0 = unbounded), got " +
        std::to_string(options_.bounded_messages));
  }
  if ((algorithm_ == Algorithm::kEmVc || algorithm_ == Algorithm::kEmOptVc) &&
      !plan.has_product_graph()) {
    return Status::FailedPrecondition(
        "the EMVC family needs the product-graph skeleton: compile the "
        "plan with PlanOptions::build_product_graph");
  }
  return Status::OK();
}

StatusOr<MatchResult> Matcher::Dispatch(const MatchPlan& plan,
                                        MatchSink* sink,
                                        const RematchSeed* seed) const {
  StatusOr<MatchResult> r = Status::InvalidArgument("unknown algorithm");
  switch (algorithm_) {
    case Algorithm::kNaiveChase:
      // The oracle's own loop (core/chase.cc) over the plan's context,
      // so plan-based and standalone chase can never diverge.
      r = RunChase(plan.context(), options_, sink, seed);
      break;
    case Algorithm::kEmMr:
    case Algorithm::kEmVf2Mr:
    case Algorithm::kEmOptMr:
      r = RunEmMapReduce(plan.context(), options_, sink, seed);
      break;
    case Algorithm::kEmVc:
    case Algorithm::kEmOptVc:
      r = RunEmVertexCentric(plan.context(), plan.product_graph(), options_,
                             sink, seed);
      break;
  }
  if (!r.ok()) return r;
  // Honest accounting for amortized prep: the plan was compiled (or
  // patched) once, possibly long ago; every run still reports that cost.
  r->stats.prep_seconds = plan.compile_seconds();
  return r;
}

StatusOr<MatchResult> Matcher::RunWithSink(const MatchPlan& plan,
                                           MatchSink* sink) const {
  GKEYS_RETURN_IF_ERROR(Validate(plan));
  return Dispatch(plan, sink, nullptr);
}

StatusOr<MatchResult> Matcher::RematchWithSink(const MatchPlan& plan,
                                               const MatchResult& prev,
                                               const GraphDelta& delta,
                                               MatchSink* sink) const {
  GKEYS_RETURN_IF_ERROR(Validate(plan));
  const size_t num_nodes = plan.context().graph().NumNodes();
  GKEYS_RETURN_IF_ERROR(CheckPrevPairs(prev.pairs, num_nodes));

  RematchSeed seed;
  RetractionResult retained;  // owns the removal path's seed storage
  if (delta.has_removals()) {
    // Over-delete the derivations the removals invalidate (transitively
    // over premises); the survivors seed Eq (DRed — see RematchSeed).
    GKEYS_RETURN_IF_ERROR(CheckPrevDerivations(prev.derivations, num_nodes));
    retained = RetractDerivations(plan.context().graph(), prev.derivations);
    seed.prev_pairs = retained.seed_pairs;
    seed.carried = &retained.surviving;
  } else {
    // Additive: identification is monotone in G, so the whole previous
    // result is a sound seed and every previous derivation stays valid.
    seed.prev_pairs = prev.pairs;
    seed.carried = &prev.derivations;
  }
  const auto& candidates = plan.context().candidates();
  std::vector<uint32_t> active;
  if (!plan.patched()) {
    // A freshly compiled plan carries no dirty set: seed Eq but re-check
    // every candidate (still skips work — seeded pairs are never
    // re-derived).
    active.resize(candidates.size());
    std::iota(active.begin(), active.end(), 0);
  } else {
    active.assign(plan.dirty_candidates().begin(),
                  plan.dirty_candidates().end());
    // Candidates whose pair fell out of the retained closure join the
    // dirty set: their pair may still be derivable through another
    // witness, which only a re-check can tell. Everything else kept its
    // previous outcome: a clean negative stays negative (removals only
    // shrink matches; additions are covered by the dirty set), and a
    // clean positive either survived retraction or is now active. The
    // retained closure is always a subset of the previous one, so equal
    // pair counts mean nothing was lost and the O(|L|) scan is skipped —
    // the common small-delta case stays delta-proportional. Both pair
    // lists are sorted, so the scan binary-searches them.
    if (delta.has_removals() &&
        retained.seed_pairs.size() != prev.pairs.size()) {
      for (uint32_t i = 0; i < candidates.size(); ++i) {
        const Candidate& c = candidates[i];
        const std::pair<NodeId, NodeId> pair(std::min(c.e1, c.e2),
                                             std::max(c.e1, c.e2));
        if (std::binary_search(prev.pairs.begin(), prev.pairs.end(), pair) &&
            !std::binary_search(retained.seed_pairs.begin(),
                                retained.seed_pairs.end(), pair)) {
          active.push_back(i);
        }
      }
      std::sort(active.begin(), active.end());
      active.erase(std::unique(active.begin(), active.end()), active.end());
    }
  }
  seed.active = active;

  StatusOr<MatchResult> r = Dispatch(plan, sink, &seed);
  if (!r.ok()) return r;
  r->stats.rematch_seeded = 1;
  r->stats.derivations_retracted = retained.retracted;
  if (delta.has_removals()) {
    r->stats.pairs_retracted = ReportRetractedPairs(prev.pairs, r->pairs, sink);
  }
  return r;
}

}  // namespace gkeys
