// Concurrency stress scenarios for the session API, written to run under
// ThreadSanitizer (the CI `tsan` job builds with GKEYS_TSAN=ON): many
// threads sharing one COW plan, concurrent streaming sinks, and the
// Patch-while-Run misuse that must surface as a Status instead of a data
// race. Scales are deliberately small — TSan multiplies runtime ~10x and
// the point is interleaving coverage, not throughput.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/matcher.h"
#include "gen/synthetic.h"
#include "graph/delta.h"
#include "test_util.h"

namespace gkeys {
namespace {

SyntheticConfig StressConfig() {
  SyntheticConfig cfg;
  cfg.seed = 7;
  cfg.num_groups = 2;
  cfg.chain_length = 2;  // recursive keys => dependency/ghost wake-ups
  cfg.radius = 2;
  cfg.entities_per_type = 30;
  cfg.duplicate_fraction = 0.2;
  return cfg;
}

/// Collects streamed pairs and verifies per-sink exactly-once delivery.
/// Callbacks are serialized per run (driver thread), so no locking.
class CollectingSink : public MatchSink {
 public:
  void OnPair(NodeId a, NodeId b) override {
    pairs.emplace_back(a, b);
  }
  void OnProgress(const EmStats& progress) override {
    rounds_seen = std::max(rounds_seen, progress.rounds);
  }

  std::vector<std::pair<NodeId, NodeId>> Sorted() const {
    auto v = pairs;
    std::sort(v.begin(), v.end());
    return v;
  }
  bool ExactlyOnce() const {
    auto v = Sorted();
    return std::adjacent_find(v.begin(), v.end()) == v.end();
  }

  std::vector<std::pair<NodeId, NodeId>> pairs;
  size_t rounds_seen = 0;
};

// Many threads run every parallel engine over ONE shared plan; each run
// itself uses multiple workers, so the MergeLog / DerivationLog /
// ConcurrentEquivalence / engine-queue internals are all exercised from
// many threads at once. Every run must land on the planted ground truth.
TEST(RaceStress, ConcurrentRunsOverSharedPlan) {
  SyntheticDataset data = GenerateSynthetic(StressConfig());
  auto plan = Matcher::Compile(data.graph, data.keys,
                               PlanOptions::For(Algorithm::kEmOptVc, 2));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const Algorithm algos[] = {Algorithm::kEmOptMr, Algorithm::kEmMr,
                             Algorithm::kEmOptVc, Algorithm::kEmVc};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Matcher matcher(algos[t % 4]);
      matcher.processors(3);
      auto r = matcher.Run(*plan);
      if (!r.ok() || r->pairs != data.planted) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Concurrent STREAMING runs: one sink per thread over the shared plan.
// Each stream must deliver the full result exactly once — the per-run
// stream state (each FixpointRun's carried class entries) must not bleed
// into another run's.
TEST(RaceStress, ConcurrentStreamingSinks) {
  SyntheticDataset data = GenerateSynthetic(StressConfig());
  auto plan = Matcher::Compile(data.graph, data.keys,
                               PlanOptions::For(Algorithm::kEmOptVc, 2));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  constexpr int kThreads = 6;
  std::vector<CollectingSink> sinks(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Matcher matcher(t % 2 == 0 ? Algorithm::kEmOptVc
                                 : Algorithm::kEmOptMr);
      matcher.processors(2);
      auto r = matcher.Run(*plan, sinks[t]);
      if (!r.ok()) failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  for (const CollectingSink& sink : sinks) {
    EXPECT_TRUE(sink.ExactlyOnce());
    EXPECT_EQ(sink.Sorted(), data.planted);
    EXPECT_GE(sink.rounds_seen, 1u);
  }
}

// A patched plan shares untouched sections with its source copy-on-write;
// running both concurrently must read the shared NodeSet payloads without
// writes racing in. (The source plan's GRAPH changed under it, so only the
// patched plan is run — the source serves concurrent accessor reads, which
// the API documents as safe.)
TEST(RaceStress, ConcurrentRunsOverPatchedCowPlan) {
  testing::CompanyGraph c = testing::MakeG2();
  KeySet keys = testing::MakeSigma2();
  auto base = Matcher::Compile(c.g, keys);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  GraphDelta delta(c.g);
  NodeId c6 = delta.AddEntity("company");
  NodeId att = delta.AddValue("AT&T");
  ASSERT_TRUE(delta.AddTriple(c6, "name_of", att).ok());
  ASSERT_TRUE(delta.AddTriple(c.com2, "parent_of", c6).ok());
  ASSERT_TRUE(delta.AddTriple(c.com3, "parent_of", c6).ok());
  ASSERT_TRUE(c.g.Apply(delta).ok());
  auto patched = base->Patch(delta);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        Matcher matcher(Algorithm::kEmOptMr);
        matcher.processors(2);
        auto r = matcher.Run(*patched);
        // The post-delta G2 identifies 4 pairs (paper Fig. 2).
        if (!r.ok() || r->pairs.size() != 4) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        // Concurrent reads of the COW-shared source plan's accessors.
        if (base->num_candidates() == 0 || base->memory_bytes() == 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Many patches of ONE plan at once: each thread patches the shared parent
// with the same applied delta, runs its patched plan and drops it, while
// other threads read the parent. Patched plans share the parent's
// d-neighbor chunks and NodeSets, and clone only the chunks that hold an
// affected entity, so the threads copy, read and release the same
// refcounted chunks concurrently. EMMR's candidates point at the
// d-neighbor sets themselves, EMOptVC's at pairing-reduced sets.
TEST(RaceStress, ConcurrentPatchesOfOneSharedPlan) {
  for (Algorithm algo : {Algorithm::kEmMr, Algorithm::kEmOptVc}) {
    SCOPED_TRACE(AlgorithmName(algo));
    SyntheticConfig cfg = StressConfig();
    cfg.entities_per_type = 60;
    SyntheticDataset data = GenerateSynthetic(cfg);
    Graph& g = data.graph;
    // Several hundred nodes: the d-neighbor table spans many chunks, and
    // the delta below leaves most of them shared.
    ASSERT_GE(g.NumNodes(), 512u);
    auto parent = Matcher::Compile(g, data.keys, PlanOptions::For(algo, 2));
    ASSERT_TRUE(parent.ok()) << parent.status().ToString();
    auto sizes = [](const MatchPlan& plan) {
      size_t total = 0;
      for (const Candidate& c : plan.context().candidates()) {
        total += c.nbr1->size() + c.nbr2->size();
      }
      return total;
    };
    const size_t parent_sizes = sizes(*parent);
    const size_t parent_entities = parent->context().neighbor_entities();

    // Remove one out-edge at four points spread over the id space.
    std::vector<NodeId> sources;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (!g.Out(n).empty()) sources.push_back(n);
    }
    GraphDelta delta(g);
    for (size_t k = 0; k < 4; ++k) {
      const NodeId s = sources[k * sources.size() / 4];
      const Edge& e = g.Out(s)[0];
      const std::string pred(g.interner().Resolve(e.pred));
      ASSERT_TRUE(delta.RemoveTriple(s, pred, e.dst).ok());
    }
    ASSERT_TRUE(g.Apply(delta).ok());
    {
      auto probe = parent->Patch(delta);
      ASSERT_TRUE(probe.ok()) << probe.status().ToString();
      const size_t affected = probe->patch_info()->affected_entities.size();
      EXPECT_GT(affected, 0u);
      EXPECT_LT(2 * affected, parent_entities);
    }
    auto fresh = Matcher::Compile(g, data.keys, PlanOptions::For(algo, 2));
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    auto want = Matcher(algo).processors(2).Run(*fresh);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    constexpr int kThreads = 6;
    constexpr int kPatchesPerThread = 3;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        if (t % 3 == 2) {
          // Reader: walks the parent's sets while the others release
          // their shares of them.
          for (int rep = 0; rep < 20; ++rep) {
            if (sizes(*parent) != parent_sizes ||
                parent->context().neighbor_entities() != parent_entities) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
          return;
        }
        std::vector<MatchPlan> plans;
        for (int k = 0; k < kPatchesPerThread; ++k) {
          auto patched = parent->Patch(delta);
          if (!patched.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          auto r = Matcher(algo).processors(2).Run(*patched);
          if (!r.ok() || r->pairs != want->pairs) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          plans.push_back(*std::move(patched));
        }
        // Threads release their plans in different orders.
        if (t % 2 == 0) std::reverse(plans.begin(), plans.end());
        while (!plans.empty()) plans.erase(plans.begin());
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
  }
}

// Misuse: Patch with a delta that was never applied to the graph must
// return FailedPrecondition — from any thread, even while runs are in
// flight on the same plan — not mutate shared state or race.
TEST(RaceStress, PatchWhileRunMisuseReturnsStatus) {
  SyntheticDataset data = GenerateSynthetic(StressConfig());
  auto plan = Matcher::Compile(data.graph, data.keys,
                               PlanOptions::For(Algorithm::kEmOptMr, 2));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  GraphDelta unapplied(data.graph);
  NodeId fresh = unapplied.AddEntity("T_0_0");
  NodeId v = unapplied.AddValue("race-stress-value");
  ASSERT_TRUE(unapplied.AddTriple(fresh, "a_0_0_1", v).ok());
  // NOT applied: Graph::Apply(unapplied) is deliberately missing.

  constexpr int kRunners = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kRunners + 2);
  for (int t = 0; t < kRunners; ++t) {
    threads.emplace_back([&] {
      Matcher matcher(Algorithm::kEmOptMr);
      matcher.processors(2);
      auto r = matcher.Run(*plan);
      if (!r.ok() || r->pairs != data.planted) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      auto misuse = plan->Patch(unapplied);
      if (misuse.ok() ||
          misuse.status().code() != StatusCode::kFailedPrecondition) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace gkeys
