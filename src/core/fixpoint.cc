#include "core/fixpoint.h"

#include <cstdio>
#include <string>

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

FixpointRun::FixpointRun(const EmContext& ctx, const EmOptions& opts,
                         MatchSink* sink, const RematchSeed* seed)
    : ctx_(ctx),
      opts_(opts),
      sink_(sink),
      seed_(seed),
      eq_(ctx.graph().NumNodes()),
      merge_log_(LogShards(opts)),
      deriv_log_(LogShards(opts)),
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
    if (sink_ != nullptr) {
      // The seed's classes count as streamed: later merges stream only
      // the pairs beyond them.
      streamed_.reserve(2 * merged_.size());
      for (const auto& [a, b] : merged_) {
        streamed_.push_back(ClassEntry(eq_.Find(a), a));
        streamed_.push_back(ClassEntry(eq_.Find(b), b));
      }
      stats_.confirmed = seed->prev_pairs.size();
      // Each seed pair lies in one class, so the list is closed exactly
      // when it holds as many pairs as the seed's classes do.
      const size_t class_pairs = ClassPairs(streamed_).size();
      if (class_pairs != seed->prev_pairs.size()) {
        seed_status_ = Status::InvalidArgument(
            "previous result's " + std::to_string(seed->prev_pairs.size()) +
            " pairs are not closed under transitivity: their classes hold " +
            std::to_string(class_pairs) + " pairs");
      }
    }
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
  GKEYS_RETURN_IF_ERROR(seed_status_);
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

void FixpointRun::StreamMerges(
    std::span<const std::pair<NodeId, NodeId>> merges) {
  if (merges.empty()) return;
  std::vector<NodeId> roots;
  roots.reserve(merges.size());
  for (const auto& [a, b] : merges) roots.push_back(eq_.Find(a));
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  // A joined class's members: before under their old labels, after (and
  // from now on) under the new root, plus the merges' own endpoints.
  std::vector<uint64_t> before;
  std::vector<uint64_t> after;
  for (uint64_t& entry : streamed_) {
    const NodeId member = static_cast<NodeId>(entry);
    const NodeId root = eq_.Find(member);
    if (!std::binary_search(roots.begin(), roots.end(), root)) continue;
    before.push_back(entry);
    entry = ClassEntry(root, member);
    after.push_back(entry);
  }
  for (const auto& [a, b] : merges) {
    streamed_.push_back(ClassEntry(eq_.Find(a), a));
    after.push_back(streamed_.back());
    streamed_.push_back(ClassEntry(eq_.Find(b), b));
    after.push_back(streamed_.back());
  }
  const auto old_pairs = ClassPairs(std::move(before));
  const auto new_pairs = ClassPairs(std::move(after));
  // Classes only grow, so old_pairs ⊆ new_pairs; both are sorted.
  auto old_it = old_pairs.begin();
  for (const auto& pair : new_pairs) {
    if (old_it != old_pairs.end() && *old_it == pair) {
      ++old_it;
    } else {
      sink_->OnPair(pair.first, pair.second);
    }
  }
  stats_.confirmed += new_pairs.size() - old_pairs.size();
}

Status FixpointRun::EndRound() {
  if (sink_ == nullptr) return Status::OK();
  const size_t from = merged_.size();
  std::vector<std::pair<NodeId, NodeId>> merges = merge_log_.Drain();
  merged_.insert(merged_.end(), merges.begin(), merges.end());
  StreamMerges(std::span(merged_).subspan(from));
  sink_->OnProgress(stats_);
  if (sink_->cancelled()) {
    return Status::Cancelled("entity matching cancelled after round " +
                             std::to_string(stats_.rounds));
  }
  return Status::OK();
}

StatusOr<MatchResult> FixpointRun::Finish() {
  GKEYS_RETURN_IF_ERROR(seed_status_);
  stats_.run_seconds = timer_.Seconds();
  MatchResult result;
  const ProvenanceIndex none;
  const ProvenanceIndex& carried =
      seed_ != nullptr && seed_->carried != nullptr ? *seed_->carried : none;
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

  const size_t from = merged_.size();
  std::vector<std::pair<NodeId, NodeId>> rest = merge_log_.Drain();
  merged_.insert(merged_.end(), rest.begin(), rest.end());
  result.pairs = PairsOfMergedClasses(eq_, merged_);
  if (sink_ != nullptr) {
    StreamMerges(std::span(merged_).subspan(from));
    if (stats_.confirmed != result.pairs.size()) {
      return Status::Internal("streamed pair count diverged from result");
    }
  }
  result.stats = stats_;
  result.stats.confirmed = result.pairs.size();
  return result;
}

}  // namespace internal
}  // namespace gkeys
