// Incremental re-matching tests: MatchPlan::Patch + Matcher::Rematch over
// random delta streams must be byte-identical to a from-scratch
// Compile + Run on the post-delta graph — for every algorithm, for
// additive, deletion-heavy, and mixed streams, across a chain of deltas
// (each step patches the previous step's patched plan).

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/matcher.h"
#include "core/provenance.h"
#include "gen/synthetic.h"
#include "graph/delta.h"
#include "test_util.h"

namespace gkeys {
namespace {

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm> algos = {
      Algorithm::kNaiveChase, Algorithm::kEmMr,  Algorithm::kEmVf2Mr,
      Algorithm::kEmOptMr,    Algorithm::kEmVc,  Algorithm::kEmOptVc};
  return algos;
}

struct Workload {
  Graph graph;
  KeySet keys;
  std::vector<Triple> all_triples;  // of the FULL generated graph
};

using testing::RebuildWithout;

Workload MakeWorkload(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.radius = 2;
  cfg.entities_per_type = 18;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  Workload w;
  w.keys = std::move(ds.keys);
  ds.graph.ForEachTriple(
      [&](const Triple& t) { w.all_triples.push_back(t); });
  w.graph = std::move(ds.graph);
  return w;
}

/// MakeWorkload padded with isolated value nodes (PadWithIsolatedValues):
/// the same keys, triples and classes, at least 20 node ids per paired
/// entity. `all_triples` keeps the dense order, so a seeded Rng picks the
/// same triples in both layouts.
Workload MakeSparseWorkload(uint64_t seed) {
  Workload dense = MakeWorkload(seed);
  Workload w;
  w.keys = std::move(dense.keys);
  w.graph = testing::PadWithIsolatedValues(dense.graph);
  for (const Triple& t : dense.all_triples) {
    w.all_triples.push_back(
        Triple{testing::PaddedId(t.subject),
               w.graph.Intern(dense.graph.interner().Resolve(t.pred)),
               testing::PaddedId(t.object)});
  }
  return w;
}

enum class Layout { kDense, kSparse };

Workload MakeWorkload(uint64_t seed, Layout layout) {
  return layout == Layout::kSparse ? MakeSparseWorkload(seed)
                                   : MakeWorkload(seed);
}

/// The result's provenance index replays on the graph it was computed on
/// without retracting anything, and closes to exactly its pairs.
void ExpectIndexClosesToPairs(const Graph& g, const MatchResult& r) {
  RetractionResult retr = RetractDerivations(g, r.derivations);
  EXPECT_EQ(retr.retracted, 0u);
  EXPECT_EQ(retr.seed_pairs, r.pairs);
}

std::vector<std::pair<NodeId, NodeId>> FromScratch(const Graph& g,
                                                   const KeySet& keys,
                                                   Algorithm algo) {
  auto plan = Matcher::Compile(g, keys, PlanOptions::For(algo, 2));
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto r = Matcher(algo).processors(2).Run(*plan);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->pairs;
}

/// Drives one delta stream for one algorithm: starting graph = the full
/// graph minus `held_out`; each chunk re-adds some held-out triples
/// and/or removes some present ones. After every chunk the seeded
/// rematch must agree byte-for-byte with a from-scratch compile + run
/// and, with `run_patched`, with a full Run of the patched plan. After
/// every step the result's provenance index closes to its pairs.
void RunStream(uint64_t seed, Algorithm algo, size_t hold_out,
               size_t chunks, size_t removals_per_chunk,
               Layout layout = Layout::kDense, bool run_patched = false) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " algo=" + AlgorithmName(algo) +
               " hold_out=" + std::to_string(hold_out) +
               " removals=" + std::to_string(removals_per_chunk) +
               (layout == Layout::kSparse ? " sparse" : ""));
  Workload w = MakeWorkload(seed, layout);
  Rng rng(seed * 7919 + 13);

  std::vector<uint8_t> keep(w.all_triples.size(), 1);
  std::vector<size_t> held;
  while (held.size() < hold_out) {
    size_t pick = rng.Below(w.all_triples.size());
    if (keep[pick]) {
      keep[pick] = 0;
      held.push_back(pick);
    }
  }
  Graph g = RebuildWithout(w.graph, w.all_triples, keep);

  auto plan_or = Matcher::Compile(g, w.keys, PlanOptions::For(algo, 2));
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  MatchPlan plan = *plan_or;
  Matcher matcher(algo);
  matcher.processors(2);
  auto result_or = matcher.Run(plan);
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  MatchResult result = *std::move(result_or);
  ASSERT_EQ(result.pairs, FromScratch(g, w.keys, algo)) << "base run";
  ExpectIndexClosesToPairs(g, result);

  // Current triple membership, for sampling removals.
  std::vector<Triple> present;
  for (size_t i = 0; i < w.all_triples.size(); ++i) {
    if (keep[i]) present.push_back(w.all_triples[i]);
  }

  size_t next_held = 0;
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    GraphDelta delta(g);
    size_t additions = held.size() / chunks + 1;
    for (size_t i = 0; i < additions && next_held < held.size();
         ++i, ++next_held) {
      const Triple& t = w.all_triples[held[next_held]];
      ASSERT_TRUE(delta
                      .AddTriple(t.subject,
                                 w.graph.interner().Resolve(t.pred),
                                 t.object)
                      .ok());
      present.push_back(t);
    }
    for (size_t i = 0; i < removals_per_chunk && !present.empty(); ++i) {
      size_t pick = rng.Below(present.size());
      const Triple t = present[pick];
      ASSERT_TRUE(delta
                      .RemoveTriple(t.subject,
                                    w.graph.interner().Resolve(t.pred),
                                    t.object)
                      .ok());
      present.erase(present.begin() + pick);
    }
    if (delta.empty()) continue;

    auto dirty = g.Apply(delta);
    ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
    auto patched = plan.Patch(delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    auto rematched = matcher.Rematch(*patched, result, delta);
    ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
    EXPECT_EQ(rematched->stats.rematch_seeded, 1u);
    if (run_patched) {
      auto full = matcher.Run(*patched);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      EXPECT_EQ(full->pairs, rematched->pairs);
    }
    plan = *std::move(patched);
    result = *std::move(rematched);

    ASSERT_EQ(result.pairs, FromScratch(g, w.keys, algo));
    ExpectIndexClosesToPairs(g, result);
  }
}

TEST(Rematch, AdditiveStreamsMatchFromScratchAllAlgorithms) {
  // Delta sizes: small chunks (4 triples ≈ 0.5% of edges) and large ones
  // (15 triples ≈ 2%), per seed, per algorithm.
  // The sparse layout repeats the first stream with its classes spread
  // over 21 times the node ids.
  for (Algorithm algo : AllAlgorithms()) {
    for (uint64_t seed : {1u, 2u}) {
      RunStream(seed, algo, /*hold_out=*/12, /*chunks=*/3,
                /*removals_per_chunk=*/0);
      RunStream(seed, algo, /*hold_out=*/30, /*chunks=*/2,
                /*removals_per_chunk=*/0);
    }
    RunStream(/*seed=*/1, algo, /*hold_out=*/12, /*chunks=*/3,
              /*removals_per_chunk=*/0, Layout::kSparse);
  }
}

TEST(Rematch, DeletionHeavyStreamsMatchFromScratchAllAlgorithms) {
  for (Algorithm algo : AllAlgorithms()) {
    for (Layout layout : {Layout::kDense, Layout::kSparse}) {
      RunStream(/*seed=*/3, algo, /*hold_out=*/0, /*chunks=*/3,
                /*removals_per_chunk=*/10, layout);
    }
  }
}

TEST(Rematch, MixedStreamsMatchFromScratchAllAlgorithms) {
  for (Algorithm algo : AllAlgorithms()) {
    for (Layout layout : {Layout::kDense, Layout::kSparse}) {
      RunStream(/*seed=*/4, algo, /*hold_out=*/9, /*chunks=*/3,
                /*removals_per_chunk=*/4, layout);
    }
  }
}

TEST(Rematch, RemovalOnlyStreamsRunSeededAllAlgorithms) {
  // The provenance-retraction path: every chunk runs seeded (asserted
  // inside RunStream) and is byte-identical to from-scratch.
  for (Algorithm algo : AllAlgorithms()) {
    for (uint64_t seed : {7u, 8u}) {
      RunStream(seed, algo, /*hold_out=*/0, /*chunks=*/3,
                /*removals_per_chunk=*/6);
    }
  }
}

TEST(Rematch, RemovalHeavyStreamsRunSeededAllAlgorithms) {
  // Removal-heavy mixed streams (few re-additions, many removals):
  // retraction plus the dirty re-check must stay exact even when most of
  // each delta is destructive.
  for (Algorithm algo : AllAlgorithms()) {
    RunStream(/*seed=*/9, algo, /*hold_out=*/4, /*chunks=*/3,
              /*removals_per_chunk=*/12);
  }
}

TEST(Rematch, FullRunsOfPatchedPlansStayExact) {
  // A patched plan also runs unseeded: a full Run of it equals the
  // seeded rematch after every chunk.
  RunStream(/*seed=*/10, Algorithm::kEmOptVc, /*hold_out=*/8, /*chunks=*/2,
            /*removals_per_chunk=*/5, Layout::kDense, /*run_patched=*/true);
}

TEST(Rematch, DerivationClosureEqualsPairsAllAlgorithms) {
  // The provenance index every engine records must be complete: the
  // Eq-closure of the recorded derivations equals the result's pairs, and
  // replaying it against the unchanged graph retracts nothing.
  Workload w = MakeWorkload(11);
  for (Algorithm algo : AllAlgorithms()) {
    SCOPED_TRACE(AlgorithmName(algo));
    auto plan = Matcher::Compile(w.graph, w.keys, PlanOptions::For(algo, 2));
    ASSERT_TRUE(plan.ok());
    auto r = Matcher(algo).processors(2).Run(*plan);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->pairs.empty()) << "workload too boring";
    EXPECT_FALSE(r->derivations.empty());
    RetractionResult retr =
        RetractDerivations(w.graph, r->derivations);
    EXPECT_EQ(retr.retracted, 0u);
    EXPECT_EQ(retr.seed_pairs, r->pairs);
    for (size_t i = 0; i < r->derivations.size(); ++i) {
      EXPECT_LT(r->derivations.heads[i].e1, r->derivations.heads[i].e2);
      EXPECT_GE(r->derivations.heads[i].key, 0);
      EXPECT_FALSE(r->derivations.triples[i].empty());
    }
  }
}

TEST(Rematch, RemovalWithoutProvenanceSeedsAndStaysExact) {
  // A previous result stripped of its derivations retains an empty seed
  // under a removal: every candidate whose pair it held is re-checked,
  // and the seeded result still matches from-scratch.
  Workload w = MakeWorkload(12);
  Graph& g = w.graph;
  Algorithm algo = Algorithm::kEmOptVc;
  auto plan = Matcher::Compile(g, w.keys, PlanOptions::For(algo, 1));
  ASSERT_TRUE(plan.ok());
  Matcher matcher(algo);
  auto prev = matcher.Run(*plan);
  ASSERT_TRUE(prev.ok());
  ASSERT_FALSE(prev->pairs.empty());
  prev->derivations = {};  // only a hand-built result lacks them

  Triple victim;
  bool have = false;
  g.ForEachTriple([&](const Triple& t) {
    if (!have) {
      victim = t;
      have = true;
    }
  });
  ASSERT_TRUE(have);
  GraphDelta delta(g);
  ASSERT_TRUE(delta
                  .RemoveTriple(victim.subject,
                                g.interner().Resolve(victim.pred),
                                victim.object)
                  .ok());
  ASSERT_TRUE(g.Apply(delta).ok());
  auto patched = plan->Patch(delta);
  ASSERT_TRUE(patched.ok());

  auto rematched = matcher.Rematch(*patched, *prev, delta);
  ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
  EXPECT_EQ(rematched->stats.rematch_seeded, 1u);
  EXPECT_EQ(rematched->stats.derivations_retracted, 0u);
  EXPECT_EQ(rematched->pairs, FromScratch(g, w.keys, algo));
  // Every pair was re-derived, so the next rematch has a full index.
  ExpectIndexClosesToPairs(g, *rematched);
}

TEST(Rematch, SmallRemovalSeedsAndReportsRetractions) {
  // A delta removing one triple a derivation's witness realized: the
  // retraction counter must reflect the over-deleted derivations.
  Workload w = MakeWorkload(13);
  Graph& g = w.graph;
  Algorithm algo = Algorithm::kEmOptVc;
  auto plan = Matcher::Compile(g, w.keys, PlanOptions::For(algo, 1));
  ASSERT_TRUE(plan.ok());
  Matcher matcher(algo);
  auto prev = matcher.Run(*plan);
  ASSERT_TRUE(prev.ok());
  ASSERT_FALSE(prev->derivations.empty());

  // Remove one triple some derivation's witness realized, so at least
  // one retraction provably happens.
  WitnessTriple victim = prev->derivations.triples[0].front();
  GraphDelta delta(g);
  ASSERT_TRUE(delta
                  .RemoveTriple(victim.s, g.interner().Resolve(victim.p),
                                victim.o)
                  .ok());
  ASSERT_TRUE(g.Apply(delta).ok());
  auto patched = plan->Patch(delta);
  ASSERT_TRUE(patched.ok());

  auto rematched = matcher.Rematch(*patched, *prev, delta);
  ASSERT_TRUE(rematched.ok());
  EXPECT_EQ(rematched->stats.rematch_seeded, 1u);
  EXPECT_GE(rematched->stats.derivations_retracted, 1u);
  EXPECT_EQ(rematched->pairs, FromScratch(g, w.keys, algo));
}

TEST(Rematch, NewEntitiesArriveViaDeltaAndGetIdentified) {
  // G1 without alb2/art2: no duplicates yet. The delta then introduces
  // alb2 + art2 with their edges — the patched plan must find the same
  // pairs a from-scratch compile does (exercises new-node staging, new
  // keyed entities, and new candidate enumeration).
  testing::MusicGraph m = testing::MakeG1();
  std::vector<Triple> triples;
  m.g.ForEachTriple([&](const Triple& t) { triples.push_back(t); });
  std::vector<uint8_t> keep(triples.size(), 1);
  // Drop every triple touching alb2 or art2 — then rebuild WITHOUT those
  // nodes at the tail (they are isolated, but ids must stay dense for the
  // rebuild, so keep the nodes and only drop their edges).
  for (size_t i = 0; i < triples.size(); ++i) {
    if (triples[i].subject == m.alb2 || triples[i].object == m.alb2 ||
        triples[i].subject == m.art2 || triples[i].object == m.art2) {
      keep[i] = 0;
    }
  }
  KeySet keys = testing::MakeSigma1();

  for (Algorithm algo : AllAlgorithms()) {
    SCOPED_TRACE(AlgorithmName(algo));
    Matcher matcher(algo);
    // Patch requires the delta applied to the SAME graph object the plan
    // references, so every algorithm gets its own live graph.
    Graph live = RebuildWithout(m.g, triples, keep);
    auto live_plan = Matcher::Compile(live, keys, PlanOptions::For(algo, 1));
    ASSERT_TRUE(live_plan.ok());
    auto live_base = matcher.Run(*live_plan);
    ASSERT_TRUE(live_base.ok());
    EXPECT_TRUE(live_base->pairs.empty());
    GraphDelta live_delta(live);
    for (size_t i = 0; i < triples.size(); ++i) {
      if (keep[i]) continue;
      ASSERT_TRUE(live_delta
                      .AddTriple(triples[i].subject,
                                 m.g.interner().Resolve(triples[i].pred),
                                 triples[i].object)
                      .ok());
    }
    ASSERT_TRUE(live.Apply(live_delta).ok());
    auto patched = live_plan->Patch(live_delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    auto rematched = matcher.Rematch(*patched, *live_base, live_delta);
    ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
    EXPECT_EQ(rematched->pairs, FromScratch(live, keys, algo));
    EXPECT_FALSE(rematched->pairs.empty());
  }
}

/// Records every pair a run streams.
struct RecordingSink : MatchSink {
  void OnPair(NodeId a, NodeId b) override { pairs.emplace_back(a, b); }
  std::vector<std::pair<NodeId, NodeId>> pairs;
};

/// `sink` saw exactly the pairs of `result` not in `base`, each once.
void ExpectStreamedResultMinusBase(RecordingSink sink, const MatchResult& base,
                                   const MatchResult& result) {
  std::vector<std::pair<NodeId, NodeId>> expected;
  std::set_difference(result.pairs.begin(), result.pairs.end(),
                      base.pairs.begin(), base.pairs.end(),
                      std::back_inserter(expected));
  std::sort(sink.pairs.begin(), sink.pairs.end());
  EXPECT_EQ(sink.pairs, expected);
}

/// Holds out 10 triples of `w`, runs, re-adds them and rematches seeded
/// under a sink: the sink must see exactly the new pairs, each once.
void ExpectStreamSeesExactlyTheDelta(Workload w) {
  Rng rng(99);
  std::vector<uint8_t> keep(w.all_triples.size(), 1);
  std::vector<size_t> held;
  while (held.size() < 10) {
    size_t pick = rng.Below(w.all_triples.size());
    if (keep[pick]) {
      keep[pick] = 0;
      held.push_back(pick);
    }
  }
  Graph g = RebuildWithout(w.graph, w.all_triples, keep);
  Algorithm algo = Algorithm::kEmOptVc;
  auto plan = Matcher::Compile(g, w.keys, PlanOptions::For(algo, 2));
  ASSERT_TRUE(plan.ok());
  Matcher matcher(algo);
  matcher.processors(2);
  auto base = matcher.Run(*plan);
  ASSERT_TRUE(base.ok());

  GraphDelta delta(g);
  for (size_t idx : held) {
    const Triple& t = w.all_triples[idx];
    ASSERT_TRUE(delta
                    .AddTriple(t.subject,
                               w.graph.interner().Resolve(t.pred), t.object)
                    .ok());
  }
  ASSERT_TRUE(g.Apply(delta).ok());
  auto patched = plan->Patch(delta);
  ASSERT_TRUE(patched.ok());

  RecordingSink sink;
  auto rematched = matcher.Rematch(*patched, *base, delta, sink);
  ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
  ExpectStreamedResultMinusBase(sink, *base, *rematched);
  EXPECT_GT(rematched->pairs.size(), base->pairs.size())
      << "the held-out triples were chosen too boringly";
}

TEST(Rematch, StreamingSinkSeesExactlyTheDelta) {
  for (Layout layout : {Layout::kDense, Layout::kSparse}) {
    SCOPED_TRACE(layout == Layout::kSparse ? "sparse" : "dense");
    ExpectStreamSeesExactlyTheDelta(MakeWorkload(5, layout));
  }
}

TEST(Rematch, LargeDeltasSeedSilentAndStreaming) {
  // Re-adding a third of all edges dirties more than half of L. Every
  // algorithm still seeds, silent and under a sink, in both layouts: the
  // pairs equal a fresh Compile + Run, and the sink sees exactly the
  // result minus the base.
  for (Layout layout : {Layout::kDense, Layout::kSparse}) {
    SCOPED_TRACE(layout == Layout::kSparse ? "sparse" : "dense");
    const Workload w = MakeWorkload(5, layout);
    std::vector<uint8_t> keep(w.all_triples.size(), 1);
    Rng rng(7);
    for (size_t chosen = 0; chosen < w.all_triples.size() / 3;) {
      size_t pick = rng.Below(w.all_triples.size());
      if (keep[pick]) {
        keep[pick] = 0;
        ++chosen;
      }
    }
    for (Algorithm algo : AllAlgorithms()) {
      SCOPED_TRACE(AlgorithmName(algo));
      Graph g = RebuildWithout(w.graph, w.all_triples, keep);
      auto plan = Matcher::Compile(g, w.keys, PlanOptions::For(algo, 2));
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      Matcher matcher(algo);
      matcher.processors(2);
      auto base = matcher.Run(*plan);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      GraphDelta delta(g);
      for (size_t i = 0; i < w.all_triples.size(); ++i) {
        if (keep[i]) continue;
        const Triple& t = w.all_triples[i];
        ASSERT_TRUE(delta
                        .AddTriple(t.subject,
                                   w.graph.interner().Resolve(t.pred),
                                   t.object)
                        .ok());
      }
      ASSERT_TRUE(g.Apply(delta).ok());
      auto patched = plan->Patch(delta);
      ASSERT_TRUE(patched.ok()) << patched.status().ToString();
      ASSERT_GT(2 * patched->dirty_candidates().size(),
                patched->num_candidates())
          << "delta too small to test";
      const auto expected = FromScratch(g, w.keys, algo);

      auto silent = matcher.Rematch(*patched, *base, delta);
      ASSERT_TRUE(silent.ok()) << silent.status().ToString();
      EXPECT_EQ(silent->stats.rematch_seeded, 1u);
      EXPECT_EQ(silent->pairs, expected);

      RecordingSink sink;
      auto streamed = matcher.Rematch(*patched, *base, delta, sink);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(streamed->stats.rematch_seeded, 1u);
      EXPECT_EQ(streamed->pairs, expected);
      ExpectStreamedResultMinusBase(sink, *base, *streamed);
    }
  }
}

TEST(Rematch, UnclosedPrevUnderASinkIsInvalidArgumentBeforeAnyCallback) {
  // Q2 identifies three albums, and a hand-built previous result lists
  // (a, b) and (b, c) without (a, c). The silent rematch returns the
  // closed result. Under a sink the stream would count (a, c) as already
  // emitted, so the rematch is InvalidArgument before any callback.
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    }
  )").ok());
  class CountingSink : public MatchSink {
   public:
    void OnPair(NodeId, NodeId) override { ++callbacks; }
    void OnPairRetracted(NodeId, NodeId) override { ++callbacks; }
    void OnProgress(const EmStats&) override { ++callbacks; }
    int callbacks = 0;
  };
  for (Algorithm algo : AllAlgorithms()) {
    SCOPED_TRACE(AlgorithmName(algo));
    Graph g;
    NodeId album[3];
    for (NodeId& a : album) {
      a = g.AddEntity("album");
      g.AddTriple(a, "name_of", g.AddValue("Anthology 2")).IgnoreError();
      g.AddTriple(a, "release_year", g.AddValue("1996")).IgnoreError();
    }
    g.Finalize();
    auto plan = Matcher::Compile(g, keys, PlanOptions::For(algo, 2));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Matcher matcher(algo);
    matcher.processors(2);
    auto prev = matcher.Run(*plan);
    ASSERT_TRUE(prev.ok()) << prev.status().ToString();
    const auto closed = testing::Pairs(
        {{album[0], album[1]}, {album[0], album[2]}, {album[1], album[2]}});
    ASSERT_EQ(prev->pairs, closed);
    prev->pairs = testing::Pairs({{album[0], album[1]}, {album[1], album[2]}});

    GraphDelta delta(g);
    ASSERT_TRUE(
        delta.AddTriple(album[0], "unread_pred", delta.AddValue("x")).ok());
    ASSERT_TRUE(g.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();

    auto silent = matcher.Rematch(*patched, *prev, delta);
    ASSERT_TRUE(silent.ok()) << silent.status().ToString();
    EXPECT_EQ(silent->pairs, closed);

    CountingSink sink;
    auto streamed = matcher.Rematch(*patched, *prev, delta, sink);
    ASSERT_FALSE(streamed.ok());
    EXPECT_EQ(streamed.status().code(), StatusCode::kInvalidArgument)
        << streamed.status().ToString();
    EXPECT_NE(streamed.status().message().find("not closed"),
              std::string::npos)
        << streamed.status().message();
    EXPECT_EQ(sink.callbacks, 0);
  }
}

TEST(Rematch, PatchBeforeApplyIsFailedPrecondition) {
  testing::MusicGraph m = testing::MakeG1();
  KeySet keys = testing::MakeSigma1();
  auto plan = Matcher::Compile(m.g, keys);
  ASSERT_TRUE(plan.ok());
  GraphDelta delta(m.g);
  NodeId e = delta.AddEntity("album");
  (void)e;
  auto patched = plan->Patch(delta);
  ASSERT_FALSE(patched.ok());
  EXPECT_EQ(patched.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Rematch, PatchedPlanRecordsDirtyCandidatesAndReuse) {
  Workload w = MakeWorkload(6);
  Graph& g = w.graph;  // full graph, already finalized
  auto plan = Matcher::Compile(g, w.keys,
                               PlanOptions::For(Algorithm::kEmOptVc, 2));
  ASSERT_TRUE(plan.ok());
  size_t before = plan->context().candidates().size();

  // A delta touching one entity: one fresh attribute value.
  NodeId victim = kNoNode;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.IsEntity(n)) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);
  GraphDelta delta(g);
  NodeId v = delta.AddValue("a brand new value, unseen anywhere");
  ASSERT_TRUE(delta.AddTriple(victim, "freshly_minted_pred", v).ok());
  ASSERT_TRUE(g.Apply(delta).ok());
  auto patched = plan->Patch(delta);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_TRUE(patched->patched());
  EXPECT_FALSE(plan->patched());
  // A one-entity delta dirties at most the candidates touching its
  // d-ball — far fewer than |L|.
  EXPECT_LT(patched->dirty_candidates().size(), before);
}

TEST(Rematch, SparseClassesJoinAndSplitExactly) {
  // A hand-built chain the generator does not produce: persons {a1, a2}
  // share a name, as do {b1, b2}. Commit 1 adds an unrelated triple (no
  // merge); commit 2 gives b1 a2's email, so one merge joins the two
  // 2-member classes; commit 3 removes it again, which splits the class.
  // Padding spreads the four paired entities over more than 20 times as
  // many node ids.
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key ByName for person {
      x -[name_of]-> n*
    }
    key ByEmail for person {
      x -[email]-> e*
    }
  )").ok());
  Graph dense;
  auto person = [&dense](const char* name, const char* email) {
    NodeId p = dense.AddEntity("person");
    dense.AddTriple(p, "name_of", dense.AddValue(name)).IgnoreError();
    dense.AddTriple(p, "email", dense.AddValue(email)).IgnoreError();
    return p;
  };
  const NodeId a1 = person("Ann", "a1@x");
  const NodeId a2 = person("Ann", "a2@x");
  const NodeId b1 = person("Bob", "b1@x");
  const NodeId b2 = person("Bob", "b2@x");
  const NodeId c1 = person("Cy", "c1@x");
  const NodeId a2_email = dense.FindValue("a2@x");
  dense.Finalize();
  using testing::PaddedId;

  for (Algorithm algo : AllAlgorithms()) {
    SCOPED_TRACE(AlgorithmName(algo));
    Graph g = testing::PadWithIsolatedValues(dense);
    auto plan = Matcher::Compile(g, keys, PlanOptions::For(algo, 2));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Matcher matcher(algo);
    matcher.processors(2);
    auto base = matcher.Run(*plan);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    MatchResult result = *std::move(base);
    ASSERT_EQ(result.pairs, testing::Pairs({{PaddedId(a1), PaddedId(a2)},
                                            {PaddedId(b1), PaddedId(b2)}}));
    EXPECT_GE(g.NumNodes(), 20u * 4u);

    struct Step {
      const char* name;
      bool add;
      NodeId s;
      const char* pred;
      NodeId o;
      size_t pairs;
    };
    const Step steps[] = {
        {"no merge", true, PaddedId(c1), "nickname", PaddedId(a2_email), 2},
        {"join", true, PaddedId(b1), "email", PaddedId(a2_email), 6},
        {"split", false, PaddedId(b1), "email", PaddedId(a2_email), 2},
    };
    for (const Step& step : steps) {
      SCOPED_TRACE(step.name);
      GraphDelta delta(g);
      Status st = step.add ? delta.AddTriple(step.s, step.pred, step.o)
                           : delta.RemoveTriple(step.s, step.pred, step.o);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_TRUE(g.Apply(delta).ok());
      auto patched = plan->Patch(delta);
      ASSERT_TRUE(patched.ok()) << patched.status().ToString();
      auto rematched = matcher.Rematch(*patched, result, delta);
      ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
      EXPECT_EQ(rematched->stats.rematch_seeded, 1u);
      *plan = *std::move(patched);
      result = *std::move(rematched);
      EXPECT_EQ(result.pairs.size(), step.pairs);
      EXPECT_EQ(result.pairs, FromScratch(g, keys, algo));
      ExpectIndexClosesToPairs(g, result);
    }
  }
}

TEST(Rematch, RejectsAPrevResultNotFromThisGraph) {
  // A previous result must come from this graph: its pairs name nodes
  // of it, each (a, b) with a < b, strictly ascending, and under a
  // removal its derivations name nodes of it too. Anything else is
  // InvalidArgument naming the first bad item, before any seeding.
  Workload w = MakeWorkload(14);
  Graph& g = w.graph;
  const Algorithm algo = Algorithm::kEmOptVc;
  auto plan = Matcher::Compile(g, w.keys, PlanOptions::For(algo, 1));
  ASSERT_TRUE(plan.ok());
  Matcher matcher(algo);
  auto prev = matcher.Run(*plan);
  ASSERT_TRUE(prev.ok());
  ASSERT_GE(prev->pairs.size(), 2u) << "workload too boring";
  ASSERT_FALSE(prev->derivations.empty());

  GraphDelta add(g);
  NodeId fresh = add.AddValue("a value no key reads");
  ASSERT_TRUE(add.AddTriple(prev->pairs[0].first, "unread_pred", fresh).ok());
  ASSERT_TRUE(g.Apply(add).ok());
  auto added = plan->Patch(add);
  ASSERT_TRUE(added.ok());

  auto expect_rejected = [](const StatusOr<MatchResult>& r,
                            const std::string& item) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(item), std::string::npos)
        << r.status().message();
  };
  const size_t last = prev->pairs.size() - 1;
  {
    SCOPED_TRACE("a pair past the graph");
    MatchResult bad = *prev;
    bad.pairs[last].second = 0xFFFFFF00;
    expect_rejected(matcher.Rematch(*added, bad, add),
                    "pair " + std::to_string(last) + " ");
  }
  {
    SCOPED_TRACE("unsorted pairs");
    MatchResult bad = *prev;
    std::swap(bad.pairs[0], bad.pairs[1]);
    expect_rejected(matcher.Rematch(*added, bad, add), "pair 1 ");
  }
  {
    SCOPED_TRACE("a reflexive pair");
    MatchResult bad = *prev;
    bad.pairs[0].second = bad.pairs[0].first;
    expect_rejected(matcher.Rematch(*added, bad, add), "pair 0 ");
  }
  auto mid = matcher.Rematch(*added, *prev, add);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  {
    SCOPED_TRACE("a derivation past the graph, under a removal");
    const WitnessTriple victim = mid->derivations.triples[0].front();
    GraphDelta remove(g);
    ASSERT_TRUE(remove
                    .RemoveTriple(victim.s, g.interner().Resolve(victim.p),
                                  victim.o)
                    .ok());
    ASSERT_TRUE(g.Apply(remove).ok());
    auto removed = added->Patch(remove);
    ASSERT_TRUE(removed.ok());
    MatchResult bad = *mid;
    const size_t k = bad.derivations.size() - 1;
    bad.derivations.heads[k].e2 = g.NumNodes();
    expect_rejected(matcher.Rematch(*removed, bad, remove),
                    "derivation " + std::to_string(k) + " ");
    // The untampered result still rematches.
    auto good = matcher.Rematch(*removed, *mid, remove);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_EQ(good->pairs, FromScratch(g, w.keys, algo));
  }
}

}  // namespace
}  // namespace gkeys
