// Plan memory accounting: MatchPlan::memory_bytes() must stay within a
// stated factor of the heap bytes a compile leaves allocated. This
// executable replaces the global operator new and delete and counts the
// live bytes the allocator hands out (malloc_usable_size, relaxed
// atomics), so it checks the estimate against what the heap really holds
// for a plan, not against the plan's own view of itself.

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/matcher.h"
#include "workload/workload.h"

#ifndef GKEYS_WORKLOADS_DIR
#error "plan_memory_test needs GKEYS_WORKLOADS_DIR (set by CMakeLists.txt)"
#endif

namespace {

std::atomic<int64_t> live_bytes{0};

/// Frees a block operator new took from malloc. Out of line, so that
/// GCC does not read the free() as the mismatched release of an
/// operator new block (-Wmismatched-new-delete).
[[gnu::noinline]] void Release(void* p) {
  live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p != nullptr) Release(p);
}

void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

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
  const int64_t before = live_bytes.load(std::memory_order_relaxed);
  auto plan = Matcher::Compile(g, keys, PlanOptions::For(algo, 1));
  const int64_t after = live_bytes.load(std::memory_order_relaxed);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return {after - before, plan.ok() ? plan->memory_bytes() : 0};
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

}  // namespace
}  // namespace gkeys
