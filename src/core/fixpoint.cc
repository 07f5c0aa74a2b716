#include "core/fixpoint.h"

#include <cstdio>
#include <string>

#include "isomorph/pairing.h"

namespace gkeys {
namespace internal {

namespace {

/// Merge and derivation log shards: one per processor, clamped to 64
/// (beyond 64 workers the padding cost outweighs the last contention
/// percent).
int LogShards(const EmOptions& opts) {
  return std::clamp(opts.processors, 1, 64);
}

}  // namespace

void PairStreamer::EmitPair(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  if (!emitted_.insert(PackPair(a, b)).second) return;
  sink_->OnPair(a, b);
}

void PairStreamer::Join(NodeId a, NodeId b, bool emit) {
  NodeId ra = mirror_.Find(a);
  NodeId rb = mirror_.Find(b);
  if (ra == rb) return;
  auto take = [&](NodeId root) {
    auto it = members_.find(root);
    if (it == members_.end()) return std::vector<NodeId>{root};
    std::vector<NodeId> m = std::move(it->second);
    members_.erase(it);
    return m;
  };
  std::vector<NodeId> ca = take(ra);
  std::vector<NodeId> cb = take(rb);
  if (emit) {
    for (NodeId x : ca) {
      for (NodeId y : cb) EmitPair(x, y);
    }
  }
  mirror_.Union(ra, rb);
  ca.insert(ca.end(), cb.begin(), cb.end());
  members_[mirror_.Find(ra)] = std::move(ca);
}

size_t PairStreamer::EmitMerges(
    std::span<const std::pair<NodeId, NodeId>> merges) {
  if (sink_ == nullptr) return 0;
  for (const auto& [a, b] : merges) Join(a, b, /*emit=*/true);
  return emitted_.size();
}

void PairStreamer::SeedClasses(
    std::span<const std::pair<NodeId, NodeId>> pairs) {
  if (sink_ == nullptr) return;
  for (const auto& [a, b] : pairs) {
    // Pre-mark as emitted (a < b, checked by Matcher::Rematch) so later
    // merges skip everything the previous run already streamed.
    emitted_.insert(PackPair(a, b));
    Join(a, b, /*emit=*/false);
  }
}

Status PairStreamer::Finish(
    const std::vector<std::pair<NodeId, NodeId>>& final_pairs) {
  if (sink_ == nullptr) return Status::OK();
  for (const auto& [a, b] : final_pairs) {
    if (!emitted_.insert(PackPair(a, b)).second) continue;
    sink_->OnPair(a, b);
  }
  if (emitted_.size() != final_pairs.size()) {
    return Status::Internal("streamed pair count diverged from result");
  }
  return Status::OK();
}

FixpointRun::FixpointRun(const EmContext& ctx, const EmOptions& opts,
                         MatchSink* sink, const RematchSeed* seed)
    : ctx_(ctx),
      opts_(opts),
      sink_(sink),
      seed_(seed),
      eq_(ctx.graph().NumNodes()),
      merge_log_(LogShards(opts)),
      deriv_log_(LogShards(opts)),
      streamer_(sink, ctx.graph().NumNodes()),
      done_(ctx.candidates().size()),
      ghost_done_(ctx.ghosts().size(), 0) {
  stats_.candidates_initial = ctx.candidates_initial();
  stats_.candidates_blocked = ctx.candidates_blocked();
  stats_.candidates = ctx.candidates().size();
  stats_.neighbor_nodes = ctx.neighbor_nodes();
  stats_.neighbor_nodes_reduced = ctx.neighbor_nodes_reduced();
  for (auto& d : done_) d.store(0, std::memory_order_relaxed);
  if (seed != nullptr) {
    merged_.reserve(seed->prev_pairs.size());
    for (const auto& [a, b] : seed->prev_pairs) {
      if (eq_.Union(a, b)) merged_.emplace_back(a, b);
    }
    streamer_.SeedClasses(seed->prev_pairs);
    const auto& candidates = ctx.candidates();
    for (uint32_t i = 0; i < candidates.size(); ++i) {
      if (eq_.Same(candidates[i].e1, candidates[i].e2)) MarkDone(i);
    }
    const auto ghosts = ctx.ghosts();
    for (uint32_t gi = 0; gi < ghosts.size(); ++gi) {
      if (eq_.Same(ghosts[gi].e1, ghosts[gi].e2)) ghost_done_[gi] = 1;
    }
  }
  swept_merges_ = eq_.num_merges();
}

Status FixpointRun::BeginRound() {
  const double budget = opts_.time_budget_seconds;
  if (budget > 0 && timer_.Seconds() >= budget) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g s budget", budget);
    return Status::DeadlineExceeded("entity matching exceeded its " +
                                    std::string(buf) + " after round " +
                                    std::to_string(stats_.rounds));
  }
  ++stats_.rounds;
  return Status::OK();
}

Status FixpointRun::EndRound() {
  if (sink_ == nullptr) return Status::OK();
  const size_t from = merged_.size();
  std::vector<std::pair<NodeId, NodeId>> merges = merge_log_.Drain();
  merged_.insert(merged_.end(), merges.begin(), merges.end());
  stats_.confirmed =
      streamer_.EmitMerges(std::span(merged_).subspan(from));
  sink_->OnProgress(stats_);
  if (sink_->cancelled()) {
    return Status::Cancelled("entity matching cancelled after round " +
                             std::to_string(stats_.rounds));
  }
  return Status::OK();
}

StatusOr<MatchResult> FixpointRun::Finish() {
  stats_.run_seconds = timer_.Seconds();
  MatchResult result;
  const ProvenanceIndex none;
  const ProvenanceIndex& carried =
      seed_ != nullptr && opts_.record_provenance && seed_->carried != nullptr
          ? *seed_->carried
          : none;
  const std::vector<Derivation> recorded = deriv_log_.Take();
  // Sized exactly up front: the carried prefix is copied once.
  size_t premises = carried.premises.values.size();
  size_t triples = carried.triples.values.size();
  for (const Derivation& d : recorded) {
    premises += d.premises.size();
    triples += d.triples.size();
  }
  result.derivations.Reserve(carried.size() + recorded.size(), premises,
                             triples);
  result.derivations.Append(carried);
  for (const Derivation& d : recorded) result.derivations.Append(d);

  std::vector<std::pair<NodeId, NodeId>> rest = merge_log_.Drain();
  merged_.insert(merged_.end(), rest.begin(), rest.end());
  result.pairs = PairsOfMergedClasses(eq_, merged_);
  result.stats = stats_;
  result.stats.confirmed = result.pairs.size();
  GKEYS_RETURN_IF_ERROR(streamer_.Finish(result.pairs));
  return result;
}

}  // namespace internal
}  // namespace gkeys
