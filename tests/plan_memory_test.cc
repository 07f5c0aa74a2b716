// Plan memory accounting: MatchPlan::memory_bytes() must stay within a
// stated factor of the heap bytes a compile leaves allocated, and the
// allocations of a patch and of an Apply must not grow with the
// session's node count. This
// executable replaces the global operator new and delete with the
// allocation ledger (tests/alloc_ledger.h), so it checks the plan against
// what the heap really holds and hands out, not against the plan's own
// view of itself.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_ledger.h"
#include "common/rng.h"
#include "core/matcher.h"
#include "gen/datasets.h"
#include "graph/delta.h"
#include "test_util.h"
#include "workload/workload.h"

#ifndef GKEYS_WORKLOADS_DIR
#error "plan_memory_test needs GKEYS_WORKLOADS_DIR (set by CMakeLists.txt)"
#endif

namespace gkeys {
namespace {

/// The heap a compiled plan holds may exceed memory_bytes() by at most
/// this factor. memory_bytes() sums array capacities and leaves out
/// allocator headers, control blocks and the small fixed parts of the
/// structures, so the true heap is always somewhat larger; a hash map
/// counted at its payload alone puts it far larger. Heap over
/// memory_bytes() on paper_dbpedia_hub's base graph (Release, glibc):
/// 1.32 (EMOptMR) and 1.24 (EMOptVC) with the signature index in flat
/// tables; 2.41 and 1.93 when its base rows sat in hash maps.
constexpr double kMaxHeapOverReported = 1.5;

/// Heap bytes a compile of `g` under `algo` leaves allocated (the plan is
/// alive), and the plan's memory_bytes().
std::pair<int64_t, size_t> CompiledPlanHeap(const Graph& g,
                                            const KeySet& keys,
                                            Algorithm algo) {
  testing::AllocScope scope;
  auto plan = Matcher::Compile(g, keys, PlanOptions::For(algo, 1));
  const int64_t heap = scope.live();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return {heap, plan.ok() ? plan->memory_bytes() : 0};
}

TEST(PlanMemory, ReportedBytesTrackTheHeapACompileHolds) {
  auto spec = LoadWorkloadSpec(std::string(GKEYS_WORKLOADS_DIR) +
                               "/paper_dbpedia_hub.json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto ds = BuildWorkloadDataset(*spec);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  for (Algorithm algo : {Algorithm::kEmOptMr, Algorithm::kEmOptVc}) {
    SCOPED_TRACE(AlgorithmName(algo));
    // A first compile pays any one-time allocation (lazy statics), so
    // the second one measures the plan alone.
    CompiledPlanHeap(ds->graph, ds->keys, algo);
    const auto [heap, reported] = CompiledPlanHeap(ds->graph, ds->keys, algo);
    ASSERT_GT(reported, 0u);
    const double ratio = static_cast<double>(heap) / reported;
    std::printf("%s: heap %lld B, memory_bytes() %zu B, ratio %.2f\n",
                AlgorithmName(algo).c_str(), static_cast<long long>(heap),
                reported, ratio);
    EXPECT_GE(ratio, 1.0) << "memory_bytes() counts more than the heap holds";
    EXPECT_LE(ratio, kMaxHeapOverReported);
  }
}

/// Bytes a Patch may allocate beyond the plain session's in a session
/// padded with isolated values, besides the d-neighbor chunk table's
/// growth: the padded layout spreads the affected entities over more
/// d-neighbor chunks, and each clone allocates a chunk (0.5 KiB).
constexpr int64_t kPatchSlackBytes = 32 << 10;

/// The bytes `Patch` allocates for the second of two 4-triple additive
/// commits re-adding `held` (ids of `g`'s layout) after compiling `g`
/// under `algo`: the first commit sizes every per-thread scratch.
int64_t SecondPatchBytes(Graph g, const KeySet& keys, Algorithm algo,
                         const std::vector<Triple>& held,
                         const StringInterner& names) {
  auto plan = Matcher::Compile(g, keys, PlanOptions::For(algo, 1));
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return 0;
  MatchPlan current = *std::move(plan);
  int64_t bytes = 0;
  for (size_t commit = 0; commit < 2; ++commit) {
    GraphDelta delta(g);
    for (size_t k = 4 * commit; k < 4 * commit + 4; ++k) {
      EXPECT_TRUE(delta
                      .AddTriple(held[k].subject, names.Resolve(held[k].pred),
                                 held[k].object)
                      .ok());
    }
    EXPECT_TRUE(g.Apply(delta).ok());
    testing::AllocScope scope;
    auto next = current.Patch(delta);
    bytes = scope.bytes();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok()) return 0;
    current = *std::move(next);
  }
  return bytes;
}

/// The same session twice: as generated, and padded with isolated values
/// (20 node ids per node, no new edge, candidate or d-ball), each with 8
/// held-out triples to stage as commits (ids of its own layout).
struct SparserSession {
  SyntheticDataset ds;
  Graph plain, padded;
  std::vector<Triple> held, held_padded;
};

SparserSession MakeSparserSession() {
  DBpediaSimConfig cfg;
  cfg.seed = 3;
  cfg.scale = 4;
  SparserSession s;
  s.ds = GenerateDBpediaSim(cfg);
  std::vector<Triple> all;
  s.ds.graph.ForEachTriple([&](const Triple& t) { all.push_back(t); });
  std::vector<uint8_t> keep(all.size(), 1);
  Rng rng(11);
  while (s.held.size() < 8) {
    const size_t pick = rng.Below(all.size());
    if (!keep[pick]) continue;
    keep[pick] = 0;
    s.held.push_back(all[pick]);
  }
  s.plain = testing::RebuildWithout(s.ds.graph, all, keep);
  s.padded = testing::PadWithIsolatedValues(s.plain);
  for (const Triple& t : s.held) {
    s.held_padded.push_back(Triple{testing::PaddedId(t.subject), t.pred,
                                   testing::PaddedId(t.object)});
  }
  return s;
}

TEST(PlanMemory, APatchAllocatesNoMoreInASparserSession) {
  // Beyond the d-neighbor chunk table (16 B per 32 node ids) and a small
  // slack, a small commit's patch must not allocate more in the padded
  // session: nothing it builds is sized by the node count.
  const SparserSession s = MakeSparserSession();
  const int64_t table_growth =
      static_cast<int64_t>(s.padded.NumNodes() - s.plain.NumNodes()) / 32 *
      16;
  for (Algorithm algo : {Algorithm::kEmOptVc, Algorithm::kEmOptMr}) {
    SCOPED_TRACE(AlgorithmName(algo));
    const int64_t plain_bytes = SecondPatchBytes(
        s.plain, s.ds.keys, algo, s.held, s.ds.graph.interner());
    const int64_t padded_bytes = SecondPatchBytes(
        s.padded, s.ds.keys, algo, s.held_padded, s.ds.graph.interner());
    std::printf("%s: %zu → %zu nodes, patch allocates %lld → %lld B "
                "(table growth %lld B)\n",
                AlgorithmName(algo).c_str(), s.plain.NumNodes(),
                s.padded.NumNodes(), static_cast<long long>(plain_bytes),
                static_cast<long long>(padded_bytes),
                static_cast<long long>(table_growth));
    ASSERT_GT(plain_bytes, 0);
    EXPECT_LE(padded_bytes, plain_bytes + table_growth + kPatchSlackBytes);
  }
}

/// Bytes an Apply may allocate beyond the plain session's in the padded
/// one: four chunks' offsets. The padded layout spreads the touched nodes
/// over more CSR chunks, but a chunk is rewritten inside its own arrays
/// and allocates only when it outgrows them, and a padded chunk holds
/// fewer edges to regrow.
constexpr int64_t kApplySlackBytes = 4 * (Graph::kChunkNodes + 1) * 4;

/// The bytes `Graph::Apply` allocates for a 4-triple commit adding
/// `held[0, 4)` to a copy of `g`, then for one removing them again.
std::pair<int64_t, int64_t> ApplyBytes(const Graph& g,
                                       const std::vector<Triple>& held,
                                       const StringInterner& names) {
  Graph copy = g;
  int64_t bytes[2] = {0, 0};
  for (bool add : {true, false}) {
    GraphDelta delta(copy);
    for (size_t k = 0; k < 4; ++k) {
      const std::string& pred = names.Resolve(held[k].pred);
      EXPECT_TRUE((add ? delta.AddTriple(held[k].subject, pred, held[k].object)
                       : delta.RemoveTriple(held[k].subject, pred,
                                            held[k].object))
                      .ok());
    }
    testing::AllocScope scope;
    const auto dirty = copy.Apply(delta);
    bytes[add ? 0 : 1] = scope.bytes();
    EXPECT_TRUE(dirty.ok()) << dirty.status().ToString();
  }
  return {bytes[0], bytes[1]};
}

TEST(PlanMemory, AnApplyAllocatesNoMoreInASparserSession) {
  // A re-finalize rewrites only the CSR chunks holding a touched node, so
  // beyond a few chunks' offsets a small commit's Apply must not allocate
  // more in the padded session than in the plain one.
  const SparserSession s = MakeSparserSession();
  const auto [plain_add, plain_remove] =
      ApplyBytes(s.plain, s.held, s.ds.graph.interner());
  const auto [padded_add, padded_remove] =
      ApplyBytes(s.padded, s.held_padded, s.ds.graph.interner());
  std::printf("%zu → %zu nodes: an additive Apply allocates %lld → %lld B, "
              "a removal %lld → %lld B\n",
              s.plain.NumNodes(), s.padded.NumNodes(),
              static_cast<long long>(plain_add),
              static_cast<long long>(padded_add),
              static_cast<long long>(plain_remove),
              static_cast<long long>(padded_remove));
  ASSERT_GT(plain_add, 0);
  ASSERT_GT(plain_remove, 0);
  EXPECT_LE(padded_add, plain_add + kApplySlackBytes);
  EXPECT_LE(padded_remove, plain_remove + kApplySlackBytes);
}

}  // namespace
}  // namespace gkeys
