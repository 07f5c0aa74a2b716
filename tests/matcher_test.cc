// The plan-based session API: compile-once/run-many, streaming sinks,
// Status-based error paths, and the EmOptions::For preset contract
// (Proposition 1 oracle check through the new Matcher surface).

#include "core/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/entity_matcher.h"
#include "gen/synthetic.h"
#include "graph/delta.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::Pairs;

// A sink that records everything it receives.
class RecordingSink : public MatchSink {
 public:
  void OnPair(NodeId a, NodeId b) override { pairs.emplace_back(a, b); }
  void OnProgress(const EmStats& progress) override {
    progress_calls.push_back(progress);
  }
  bool cancelled() override { return cancel_after > 0 &&
      progress_calls.size() >= static_cast<size_t>(cancel_after); }

  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<EmStats> progress_calls;
  int cancel_after = 0;  // cancel once this many progress calls were seen
};

SyntheticDataset SmallWorkload() {
  SyntheticConfig cfg;
  cfg.seed = 7;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.radius = 2;
  cfg.entities_per_type = 25;
  return GenerateSynthetic(cfg);
}

// ---- Compile-once / run-many ----------------------------------------------

TEST(Matcher, OnePlanServesManyAlgorithms) {
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();

  auto plan = Matcher::Compile(m.g, sigma1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->valid());
  EXPECT_TRUE(plan->has_product_graph());
  EXPECT_EQ(&plan->graph(), &m.g);
  EXPECT_EQ(&plan->keys(), &sigma1);

  const auto expected = Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}});
  // The acceptance pair (kEmOptMr, kEmVc) plus the rest of the family —
  // all from the SAME compiled plan, no recompilation.
  for (Algorithm a : {Algorithm::kEmOptMr, Algorithm::kEmVc,
                      Algorithm::kEmMr, Algorithm::kEmVf2Mr,
                      Algorithm::kEmOptVc, Algorithm::kNaiveChase}) {
    auto r = Matcher(a).processors(2).Run(*plan);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a) << ": " << r.status().ToString();
    EXPECT_EQ(r->pairs, expected) << AlgorithmName(a);
    // Every run reports the amortized compile cost, not a fresh prep.
    EXPECT_DOUBLE_EQ(r->stats.prep_seconds, plan->compile_seconds());
  }
}

TEST(Matcher, PlanReuseOnGeneratedWorkload) {
  SyntheticDataset ds = SmallWorkload();
  auto plan = Matcher::Compile(ds.graph, ds.keys, PlanOptions{.processors = 2});
  ASSERT_TRUE(plan.ok());
  for (Algorithm a : {Algorithm::kEmOptMr, Algorithm::kEmVc}) {
    auto r = Matcher(a).processors(2).Run(*plan);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->pairs, ds.planted) << AlgorithmName(a);
  }
}

TEST(Matcher, PlanIsACheapSharedHandle) {
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();
  auto plan = Matcher::Compile(m.g, sigma1);
  ASSERT_TRUE(plan.ok());
  MatchPlan copy = *plan;  // shares the compiled representation
  EXPECT_EQ(&copy.context(), &plan->context());
  auto r = Matcher(Algorithm::kEmOptVc).Run(copy);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->pairs, Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}}));
}

// ---- Preset contract (§6 algorithm table) ---------------------------------

TEST(Matcher, PresetsMatchThePaperFlagCombinations) {
  // kNaiveChase / kEmMr: everything off.
  for (Algorithm a : {Algorithm::kNaiveChase, Algorithm::kEmMr}) {
    EmOptions o = EmOptions::For(a, 3);
    EXPECT_EQ(o.processors, 3);
    EXPECT_FALSE(o.use_vf2);
    EXPECT_FALSE(PlanOptions::For(a, 3).use_pairing);
    EXPECT_FALSE(o.use_dependency);
    EXPECT_FALSE(o.use_incremental);
    EXPECT_EQ(o.bounded_messages, 0);
    EXPECT_FALSE(o.prioritized);
  }
  // kEmVf2Mr: full enumeration only.
  EmOptions vf2 = EmOptions::For(Algorithm::kEmVf2Mr, 3);
  EXPECT_TRUE(vf2.use_vf2);
  EXPECT_FALSE(PlanOptions::For(Algorithm::kEmVf2Mr, 3).use_pairing);
  // kEmOptMr: the three §4.2 optimizations.
  EmOptions opt_mr = EmOptions::For(Algorithm::kEmOptMr, 3);
  EXPECT_TRUE(PlanOptions::For(Algorithm::kEmOptMr, 3).use_pairing);
  EXPECT_TRUE(opt_mr.use_dependency);
  EXPECT_TRUE(opt_mr.use_incremental);
  EXPECT_FALSE(opt_mr.use_vf2);
  // kEmVc: product graph from pairing, no §5.2 extras.
  EmOptions vc = EmOptions::For(Algorithm::kEmVc, 3);
  EXPECT_TRUE(PlanOptions::For(Algorithm::kEmVc, 3).use_pairing);
  EXPECT_EQ(vc.bounded_messages, 0);
  EXPECT_FALSE(vc.prioritized);
  // kEmOptVc: bounded messages (the paper's k = 4) + prioritization.
  EmOptions opt_vc = EmOptions::For(Algorithm::kEmOptVc, 3);
  EXPECT_TRUE(PlanOptions::For(Algorithm::kEmOptVc, 3).use_pairing);
  EXPECT_EQ(opt_vc.bounded_messages, 4);
  EXPECT_TRUE(opt_vc.prioritized);

  // Matcher(a) loads exactly the preset.
  EXPECT_EQ(Matcher(Algorithm::kEmOptVc).options().bounded_messages, 4);
  EXPECT_TRUE(Matcher(Algorithm::kEmOptMr).options().use_incremental);
}

TEST(Matcher, AllPresetsAgreeWithTheOracleOnMutualRecursion) {
  // Proposition 1 through the new surface: every algorithm preset (each
  // with its own PlanOptions::For compilation) returns the oracle's pairs
  // on the paper's mutually recursive music fixture.
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();
  const auto expected = Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}});
  for (Algorithm a : {Algorithm::kNaiveChase, Algorithm::kEmMr,
                      Algorithm::kEmVf2Mr, Algorithm::kEmOptMr,
                      Algorithm::kEmVc, Algorithm::kEmOptVc}) {
    auto plan = Matcher::Compile(m.g, sigma1, PlanOptions::For(a, 2));
    ASSERT_TRUE(plan.ok()) << AlgorithmName(a);
    auto r = Matcher(a).processors(2).Run(*plan);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a) << ": " << r.status().ToString();
    EXPECT_EQ(r->pairs, expected) << AlgorithmName(a);
  }
}

// ---- Streaming -------------------------------------------------------------

TEST(Matcher, StreamingSinkReceivesEveryPairExactlyOnce) {
  SyntheticDataset ds = SmallWorkload();
  for (Algorithm a : {Algorithm::kEmOptMr, Algorithm::kEmVc,
                      Algorithm::kEmOptVc, Algorithm::kNaiveChase}) {
    auto plan = Matcher::Compile(ds.graph, ds.keys, PlanOptions::For(a, 2));
    ASSERT_TRUE(plan.ok());
    RecordingSink sink;
    auto r = Matcher(a).processors(2).Run(*plan, sink);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a) << ": " << r.status().ToString();

    // Exactly once: no duplicates, and the streamed set equals the result.
    std::set<std::pair<NodeId, NodeId>> unique(sink.pairs.begin(),
                                               sink.pairs.end());
    EXPECT_EQ(unique.size(), sink.pairs.size()) << AlgorithmName(a);
    std::vector<std::pair<NodeId, NodeId>> sorted(unique.begin(),
                                                  unique.end());
    EXPECT_EQ(sorted, r->pairs) << AlgorithmName(a);
    EXPECT_EQ(r->pairs, ds.planted) << AlgorithmName(a);

    // At least one progress callback per round.
    EXPECT_GE(sink.progress_calls.size(), r->stats.rounds)
        << AlgorithmName(a);
    EXPECT_GT(sink.progress_calls.size(), 0u) << AlgorithmName(a);
    // Progress is cumulative and monotone in confirmed pairs.
    size_t last = 0;
    for (const EmStats& s : sink.progress_calls) {
      EXPECT_GE(s.confirmed, last) << AlgorithmName(a);
      last = s.confirmed;
    }
  }
}

TEST(Matcher, StreamingMutualRecursionSeesBothPairs) {
  // The artist pair is only identifiable after the album pair merges
  // (recursive key Q3): streaming must still deliver both, each once.
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();
  auto plan = Matcher::Compile(m.g, sigma1);
  ASSERT_TRUE(plan.ok());
  RecordingSink sink;
  auto r = Matcher(Algorithm::kEmOptVc).processors(2).Run(*plan, sink);
  ASSERT_TRUE(r.ok());
  std::vector<std::pair<NodeId, NodeId>> sorted = sink.pairs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}}));
}

TEST(Matcher, CooperativeCancellationSurfacesAsCancelled) {
  // Every engine stops at the first round boundary, on a full run and on
  // a seeded rematch that has dirty candidates to re-check.
  SyntheticDataset ds = SmallWorkload();
  for (Algorithm a : {Algorithm::kNaiveChase, Algorithm::kEmMr,
                      Algorithm::kEmVf2Mr, Algorithm::kEmOptMr,
                      Algorithm::kEmVc, Algorithm::kEmOptVc}) {
    SCOPED_TRACE(AlgorithmName(a));
    Graph g = ds.graph;
    auto plan = Matcher::Compile(g, ds.keys, PlanOptions::For(a, 2));
    ASSERT_TRUE(plan.ok());
    Matcher matcher(a);
    matcher.processors(2);
    RecordingSink sink;
    sink.cancel_after = 1;  // stop at the first round boundary
    auto r = matcher.Run(*plan, sink);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(sink.progress_calls.size(), 1u);

    auto prev = matcher.Run(*plan);
    ASSERT_TRUE(prev.ok()) << prev.status().ToString();
    // A new triple on the first candidate's entity makes it dirty.
    GraphDelta delta(g);
    const NodeId e = plan->context().candidates().front().e1;
    ASSERT_TRUE(delta.AddTriple(e, "tag", delta.AddValue("probe")).ok());
    ASSERT_TRUE(g.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    ASSERT_FALSE(patched->dirty_candidates().empty());
    RecordingSink rematch_sink;
    rematch_sink.cancel_after = 1;
    auto inc = matcher.Rematch(*patched, *prev, delta, rematch_sink);
    ASSERT_FALSE(inc.ok());
    EXPECT_EQ(inc.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(rematch_sink.progress_calls.size(), 1u);
  }
}

/// Checks the per-round stream contract at every progress call: the sink
/// has seen exactly `confirmed` minus the seed's pairs, none twice.
class RoundCheckingSink : public MatchSink {
 public:
  explicit RoundCheckingSink(size_t seed_pairs) : seed_pairs_(seed_pairs) {}

  void OnPair(NodeId a, NodeId b) override {
    EXPECT_LT(a, b);
    EXPECT_TRUE(seen_.emplace(a, b).second)
        << "(" << a << ", " << b << ") streamed twice";
  }
  void OnProgress(const EmStats& progress) override {
    EXPECT_EQ(seen_.size() + seed_pairs_, progress.confirmed)
        << "round " << progress.rounds;
    confirmed.push_back(progress.confirmed);
  }

  /// Every streamed pair is in `result` and not in `seed`, and the
  /// stream plus the seed make up all of the result.
  void ExpectPartOf(const MatchResult& result,
                    const std::vector<std::pair<NodeId, NodeId>>& seed) const {
    for (const auto& pair : seen_) {
      EXPECT_TRUE(std::binary_search(result.pairs.begin(), result.pairs.end(),
                                     pair))
          << "(" << pair.first << ", " << pair.second << ") not in result";
      EXPECT_FALSE(std::binary_search(seed.begin(), seed.end(), pair))
          << "(" << pair.first << ", " << pair.second << ") is a seed pair";
    }
    EXPECT_EQ(seen_.size() + seed_pairs_, result.pairs.size());
  }

  std::vector<size_t> confirmed;  // one entry per OnProgress

 private:
  const size_t seed_pairs_;
  std::set<std::pair<NodeId, NodeId>> seen_;
};

TEST(Matcher, EveryRoundStreamsExactlyItsConfirmedPairs) {
  // Pairs stream round by round, not at the end: at each progress call
  // the sink holds exactly the confirmed pairs beyond the seed, on a
  // cold run and on a seeded rematch, with classes dense in the node ids
  // and padded apart.
  const SyntheticDataset ds = SmallWorkload();
  for (bool padded : {false, true}) {
    SCOPED_TRACE(padded ? "padded" : "plain");
    const Graph full =
        padded ? testing::PadWithIsolatedValues(ds.graph) : ds.graph;
    // The seeded run's graph holds out every 7th triple, and its delta
    // adds them back.
    std::vector<Triple> triples;
    full.ForEachTriple([&](const Triple& t) { triples.push_back(t); });
    std::vector<uint8_t> keep(triples.size(), 1);
    for (size_t i = 0; i < keep.size(); i += 7) keep[i] = 0;
    for (Algorithm a : {Algorithm::kNaiveChase, Algorithm::kEmMr,
                        Algorithm::kEmVf2Mr, Algorithm::kEmOptMr,
                        Algorithm::kEmVc, Algorithm::kEmOptVc}) {
      SCOPED_TRACE(AlgorithmName(a));
      Matcher matcher(a);
      matcher.processors(2);

      auto plan = Matcher::Compile(full, ds.keys, PlanOptions::For(a, 2));
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      RoundCheckingSink cold_sink(0);
      auto cold = matcher.Run(*plan, cold_sink);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      cold_sink.ExpectPartOf(*cold, {});
      ASSERT_FALSE(cold_sink.confirmed.empty());
      EXPECT_GT(cold_sink.confirmed.front(), 0u)
          << "the first round streamed no pair";

      Graph g = testing::RebuildWithout(full, triples, keep);
      auto held_plan = Matcher::Compile(g, ds.keys, PlanOptions::For(a, 2));
      ASSERT_TRUE(held_plan.ok()) << held_plan.status().ToString();
      auto prev = matcher.Run(*held_plan);
      ASSERT_TRUE(prev.ok()) << prev.status().ToString();
      GraphDelta delta(g);
      for (size_t i = 0; i < keep.size(); i += 7) {
        ASSERT_TRUE(delta
                        .AddTriple(triples[i].subject,
                                   full.interner().Resolve(triples[i].pred),
                                   triples[i].object)
                        .ok());
      }
      ASSERT_TRUE(g.Apply(delta).ok());
      auto patched = held_plan->Patch(delta);
      ASSERT_TRUE(patched.ok()) << patched.status().ToString();
      RoundCheckingSink seeded_sink(prev->pairs.size());
      auto seeded = matcher.Rematch(*patched, *prev, delta, seeded_sink);
      ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
      EXPECT_EQ(seeded->stats.rematch_seeded, 1u);
      EXPECT_EQ(seeded->pairs, cold->pairs);
      ASSERT_GT(seeded->pairs.size(), prev->pairs.size())
          << "the held-out triples lost no pair";
      seeded_sink.ExpectPartOf(*seeded, prev->pairs);
      EXPECT_FALSE(seeded_sink.confirmed.empty());
    }
  }
}

// ---- Error paths -----------------------------------------------------------

TEST(Matcher, UnfinalizedGraphIsAStatusNotAnAssert) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  g.AddTriple(a, "p", g.AddValue("v")).IgnoreError();
  g.AddTriple(b, "p", g.AddValue("v")).IgnoreError();
  // No Finalize().
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl("key K for t { x -[p]-> v* }").ok());
  auto plan = Matcher::Compile(g, keys);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Matcher, EmptyKeySetIsInvalidArgument) {
  auto m = testing::MakeG1();
  KeySet empty;
  auto plan = Matcher::Compile(m.g, empty);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(Matcher, InvalidOptionsAreInvalidArgument) {
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();

  // Bad compile options.
  auto bad_plan =
      Matcher::Compile(m.g, sigma1, PlanOptions{.processors = 0});
  ASSERT_FALSE(bad_plan.ok());
  EXPECT_EQ(bad_plan.status().code(), StatusCode::kInvalidArgument);

  auto plan = Matcher::Compile(m.g, sigma1);
  ASSERT_TRUE(plan.ok());

  // Bad run options.
  auto r1 = Matcher(Algorithm::kEmOptVc).processors(0).Run(*plan);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  EmOptions negative_budget = EmOptions::For(Algorithm::kEmOptVc, 1);
  negative_budget.bounded_messages = -1;
  auto r2 = Matcher(Algorithm::kEmOptVc).options(negative_budget).Run(*plan);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  // Empty (default-constructed) plan.
  MatchPlan empty;
  auto r3 = Matcher(Algorithm::kEmOptVc).Run(empty);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
}

TEST(Matcher, ProcessorsAboveTheCapAreInvalidArgument) {
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();
  auto over = Matcher::Compile(
      m.g, sigma1, PlanOptions{.processors = kMaxProcessors + 1});
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);

  auto plan = Matcher::Compile(m.g, sigma1);
  ASSERT_TRUE(plan.ok());
  for (Algorithm a : {Algorithm::kEmMr, Algorithm::kEmOptVc}) {
    auto r = Matcher(a).processors(kMaxProcessors + 1).Run(*plan);
    ASSERT_FALSE(r.ok()) << AlgorithmName(a);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  auto at_cap = Matcher(Algorithm::kEmMr).processors(kMaxProcessors).Run(*plan);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->pairs.size(), 2u);
}

TEST(Matcher, VcOnPlanWithoutProductGraphIsFailedPrecondition) {
  auto m = testing::MakeG1();
  KeySet sigma1 = testing::MakeSigma1();
  PlanOptions popts;
  popts.build_product_graph = false;
  auto plan = Matcher::Compile(m.g, sigma1, popts);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->has_product_graph());

  auto vc = Matcher(Algorithm::kEmVc).Run(*plan);
  ASSERT_FALSE(vc.ok());
  EXPECT_EQ(vc.status().code(), StatusCode::kFailedPrecondition);

  // The MapReduce family does not need the skeleton.
  auto mr = Matcher(Algorithm::kEmOptMr).Run(*plan);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mr->pairs, Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}}));
}

}  // namespace
}  // namespace gkeys
