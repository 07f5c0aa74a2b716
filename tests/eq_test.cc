#include "eq/equivalence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <utility>
#include <vector>

namespace gkeys {
namespace {

TEST(Equivalence, StartsAsIdentity) {
  EquivalenceRelation eq(5);
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = 0; j < 5; ++j) {
      EXPECT_EQ(eq.Same(i, j), i == j);
    }
  }
  EXPECT_TRUE(eq.IdentifiedPairs().empty());
}

TEST(Equivalence, UnionReportsGrowth) {
  EquivalenceRelation eq(4);
  EXPECT_TRUE(eq.Union(0, 1));
  EXPECT_FALSE(eq.Union(0, 1));  // already same
  EXPECT_FALSE(eq.Union(1, 0));
  EXPECT_EQ(eq.num_merges(), 1u);
}

TEST(Equivalence, TransitivityIsImplicit) {
  EquivalenceRelation eq(5);
  eq.Union(0, 1);
  eq.Union(1, 2);
  EXPECT_TRUE(eq.Same(0, 2));  // the chase's TC rule
  EXPECT_FALSE(eq.Same(0, 3));
}

TEST(Equivalence, SymmetricAndReflexive) {
  EquivalenceRelation eq(3);
  eq.Union(2, 0);
  EXPECT_TRUE(eq.Same(0, 2));
  EXPECT_TRUE(eq.Same(2, 0));
  EXPECT_TRUE(eq.Same(1, 1));
}

TEST(Equivalence, NontrivialClasses) {
  EquivalenceRelation eq(6);
  eq.Union(0, 1);
  eq.Union(1, 2);
  eq.Union(4, 5);
  auto classes = eq.NontrivialClasses();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(classes[1], (std::vector<NodeId>{4, 5}));
}

TEST(Equivalence, IdentifiedPairsEnumeratesWithinClasses) {
  EquivalenceRelation eq(5);
  eq.Union(0, 1);
  eq.Union(1, 2);
  auto pairs = eq.IdentifiedPairs();
  // {0,1,2} yields 3 pairs.
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(pairs[1], (std::pair<NodeId, NodeId>{0, 2}));
  EXPECT_EQ(pairs[2], (std::pair<NodeId, NodeId>{1, 2}));
}

TEST(Equivalence, EqualityComparesPairSets) {
  EquivalenceRelation a(4), b(4);
  a.Union(0, 1);
  b.Union(1, 0);
  EXPECT_TRUE(a == b);
  b.Union(2, 3);
  EXPECT_FALSE(a == b);
}

TEST(ConcurrentEquivalence, BasicSemantics) {
  ConcurrentEquivalence eq(5);
  EXPECT_FALSE(eq.Same(0, 1));
  EXPECT_TRUE(eq.Union(0, 1));
  EXPECT_FALSE(eq.Union(1, 0));
  EXPECT_TRUE(eq.Same(0, 1));
  eq.Union(1, 2);
  EXPECT_TRUE(eq.Same(0, 2));
  EXPECT_EQ(eq.num_merges(), 2u);
}

/// Whether the two relations agree on Same over every pair of nodes.
bool SameOverAllPairs(const ConcurrentEquivalence& a,
                      const EquivalenceRelation& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (NodeId x = 0; x < a.num_nodes(); ++x) {
    for (NodeId y = x + 1; y < a.num_nodes(); ++y) {
      if (a.Same(x, y) != b.Same(x, y)) return false;
    }
  }
  return true;
}

TEST(ConcurrentEquivalence, MatchesSequentialUnions) {
  ConcurrentEquivalence eq(6);
  eq.Union(0, 3);
  eq.Union(3, 5);
  eq.Union(1, 2);
  EquivalenceRelation expected(6);
  expected.Union(0, 3);
  expected.Union(3, 5);
  expected.Union(1, 2);
  EXPECT_TRUE(SameOverAllPairs(eq, expected));
  EXPECT_TRUE(eq.Same(0, 5));
  EXPECT_FALSE(eq.Same(0, 1));
  // {0,3,5}:3 + {1,2}:1, listed from the unions that merged.
  const std::vector<std::pair<NodeId, NodeId>> merges = {{0, 3}, {3, 5},
                                                         {1, 2}};
  EXPECT_EQ(PairsOfMergedClasses(eq, merges), expected.IdentifiedPairs());
}

TEST(Equivalence, PairsOfMergedClassesListsIdentifiedPairs) {
  // Random unions over few nodes make large, interleaving classes; both
  // relation flavors must list exactly IdentifiedPairs() from the unions
  // that merged, whatever order those arrive in.
  std::mt19937 rng(17);
  for (int round = 0; round < 20; ++round) {
    const NodeId n = 60;
    EquivalenceRelation seq(n);
    ConcurrentEquivalence conc(n);
    std::vector<std::pair<NodeId, NodeId>> merges;
    for (int k = 0; k < 4 * round; ++k) {
      const NodeId a = rng() % n, b = rng() % n;
      conc.Union(a, b);
      if (seq.Union(a, b)) merges.emplace_back(a, b);
    }
    std::shuffle(merges.begin(), merges.end(), rng);
    EXPECT_EQ(PairsOfMergedClasses(seq, merges), seq.IdentifiedPairs());
    EXPECT_EQ(PairsOfMergedClasses(conc, merges), seq.IdentifiedPairs());
  }
}

TEST(ConcurrentEquivalence, ParallelUnionsConverge) {
  // Many threads union random overlapping chains; the final structure
  // must equal the sequential result regardless of interleaving.
  constexpr int kNodes = 2000;
  constexpr int kThreads = 8;
  ConcurrentEquivalence eq(kNodes);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&eq, t] {
      // Thread t unions i with i+t+1 for i in its stripe: heavy overlap.
      for (int i = t; i + t + 1 < kNodes; i += 2) {
        eq.Union(i, i + t + 1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EquivalenceRelation expected(kNodes);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = t; i + t + 1 < kNodes; i += 2) {
      expected.Union(i, i + t + 1);
    }
  }
  EXPECT_TRUE(SameOverAllPairs(eq, expected));
}

TEST(ConcurrentEquivalence, ParallelSameDuringUnions) {
  // Smoke test: concurrent Same() calls must not crash or livelock and
  // must be monotone (once true, stays true).
  constexpr int kNodes = 512;
  ConcurrentEquivalence eq(kNodes);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    bool seen = false;
    while (!stop.load()) {
      bool now = eq.Same(0, kNodes - 1);
      EXPECT_TRUE(!seen || now);  // monotone
      seen = now;
    }
  });
  for (int i = 0; i + 1 < kNodes; ++i) eq.Union(i, i + 1);
  stop.store(true);
  reader.join();
  EXPECT_TRUE(eq.Same(0, kNodes - 1));
}

}  // namespace
}  // namespace gkeys
