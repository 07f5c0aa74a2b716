#include "eq/equivalence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <utility>
#include <vector>

namespace gkeys {
namespace {

using Pairs = std::vector<std::pair<NodeId, NodeId>>;

/// Brute-force Eq: every node carries its class label, and a union
/// relabels one whole class. Quadratic, and obviously right.
class ClosureReference {
 public:
  explicit ClosureReference(NodeId n) : label_(n) {
    for (NodeId i = 0; i < n; ++i) label_[i] = i;
  }
  bool Union(NodeId a, NodeId b) {
    const NodeId from = label_[b], to = label_[a];
    if (from == to) return false;
    for (NodeId& l : label_) {
      if (l == from) l = to;
    }
    return true;
  }
  bool Same(NodeId a, NodeId b) const { return label_[a] == label_[b]; }
  /// Every identified pair (a, b), a < b, ascending.
  Pairs AllPairs() const {
    Pairs pairs;
    for (NodeId a = 0; a < label_.size(); ++a) {
      for (NodeId b = a + 1; b < label_.size(); ++b) {
        if (Same(a, b)) pairs.emplace_back(a, b);
      }
    }
    return pairs;
  }

 private:
  std::vector<NodeId> label_;
};

/// Unions `unions` in order; returns the ones that merged two classes.
Pairs UnionAll(ConcurrentEquivalence& eq, const Pairs& unions) {
  Pairs merges;
  for (const auto& [a, b] : unions) {
    if (eq.Union(a, b)) merges.emplace_back(a, b);
  }
  return merges;
}

/// Whether the relation agrees with the reference on Same over every pair
/// of nodes.
bool SameOverAllPairs(const ConcurrentEquivalence& eq,
                      const ClosureReference& ref, NodeId n) {
  if (eq.num_nodes() != n) return false;
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId y = 0; y < n; ++y) {
      if (eq.Same(x, y) != ref.Same(x, y)) return false;
    }
  }
  return true;
}

TEST(ConcurrentEquivalence, StartsAsIdentity) {
  ConcurrentEquivalence eq(5);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(eq.Find(i), i);
    for (NodeId j = 0; j < 5; ++j) {
      EXPECT_EQ(eq.Same(i, j), i == j);
    }
  }
  EXPECT_EQ(eq.num_merges(), 0u);
  EXPECT_TRUE(PairsOfMergedClasses(eq, {}).empty());
}

TEST(ConcurrentEquivalence, UnionReportsGrowth) {
  ConcurrentEquivalence eq(4);
  EXPECT_TRUE(eq.Union(0, 1));
  EXPECT_FALSE(eq.Union(0, 1));  // already same
  EXPECT_FALSE(eq.Union(1, 0));
  EXPECT_EQ(eq.num_merges(), 1u);
  EXPECT_TRUE(eq.Union(3, 1));
  EXPECT_FALSE(eq.Union(0, 3));  // already same through 1
  EXPECT_EQ(eq.num_merges(), 2u);
}

TEST(ConcurrentEquivalence, TransitivityIsImplicit) {
  ConcurrentEquivalence eq(5);
  eq.Union(0, 1);
  eq.Union(1, 2);
  EXPECT_TRUE(eq.Same(0, 2));  // the chase's TC rule
  EXPECT_FALSE(eq.Same(0, 3));
}

TEST(ConcurrentEquivalence, SymmetricAndReflexive) {
  ConcurrentEquivalence eq(3);
  eq.Union(2, 0);
  EXPECT_TRUE(eq.Same(0, 2));
  EXPECT_TRUE(eq.Same(2, 0));
  EXPECT_TRUE(eq.Same(1, 1));
  EXPECT_FALSE(eq.Same(1, 2));
}

TEST(ConcurrentEquivalence, RootIsTheSmallestMember) {
  ConcurrentEquivalence eq(6);
  eq.Union(5, 4);
  eq.Union(4, 2);
  eq.Union(3, 1);
  for (NodeId n : {2, 4, 5}) EXPECT_EQ(eq.Find(n), 2u);
  for (NodeId n : {1, 3}) EXPECT_EQ(eq.Find(n), 1u);
  EXPECT_EQ(eq.Find(0), 0u);
}

TEST(ConcurrentEquivalence, PairsAreListedWithinClasses) {
  ConcurrentEquivalence eq(6);
  const Pairs merges = UnionAll(eq, {{0, 1}, {1, 2}, {2, 0}, {5, 4}});
  EXPECT_EQ(merges, (Pairs{{0, 1}, {1, 2}, {5, 4}}));
  // {0,1,2} yields 3 pairs, {4,5} one; 3 stays alone.
  EXPECT_EQ(PairsOfMergedClasses(eq, merges),
            (Pairs{{0, 1}, {0, 2}, {1, 2}, {4, 5}}));
}

TEST(ConcurrentEquivalence, SameClassesListTheSamePairs) {
  // Union order and direction do not change the pairs a relation lists;
  // one more union does.
  ConcurrentEquivalence a(4), b(4);
  const Pairs merges_a = UnionAll(a, {{0, 1}});
  Pairs merges_b = UnionAll(b, {{1, 0}});
  EXPECT_EQ(PairsOfMergedClasses(a, merges_a),
            PairsOfMergedClasses(b, merges_b));
  const Pairs more = UnionAll(b, {{2, 3}});
  merges_b.insert(merges_b.end(), more.begin(), more.end());
  EXPECT_NE(PairsOfMergedClasses(a, merges_a),
            PairsOfMergedClasses(b, merges_b));
}

TEST(ConcurrentEquivalence, MatchesSequentialUnions) {
  const Pairs unions = {{0, 3}, {3, 5}, {1, 2}, {5, 0}};
  ConcurrentEquivalence eq(6);
  ClosureReference ref(6);
  for (const auto& [a, b] : unions) {
    EXPECT_EQ(eq.Union(a, b), ref.Union(a, b));
  }
  EXPECT_EQ(eq.num_merges(), 3u);
  EXPECT_TRUE(SameOverAllPairs(eq, ref, 6));
  EXPECT_TRUE(eq.Same(0, 5));
  EXPECT_FALSE(eq.Same(0, 1));
  // {0,3,5}:3 + {1,2}:1, listed from the unions that merged.
  const Pairs merges = {{0, 3}, {3, 5}, {1, 2}};
  EXPECT_EQ(PairsOfMergedClasses(eq, merges), ref.AllPairs());
}

TEST(ConcurrentEquivalence, PairsOfMergedClassesListsEveryPair) {
  // Random unions over few nodes make large, interleaving classes; the
  // unions that merged, in any order, must list exactly the closure.
  std::mt19937 rng(17);
  for (int round = 0; round < 20; ++round) {
    const NodeId n = 60;
    ConcurrentEquivalence eq(n);
    ClosureReference ref(n);
    Pairs merges;
    for (int k = 0; k < 4 * round; ++k) {
      const NodeId a = rng() % n, b = rng() % n;
      const bool merged = eq.Union(a, b);
      EXPECT_EQ(merged, ref.Union(a, b));
      if (merged) merges.emplace_back(a, b);
    }
    EXPECT_EQ(eq.num_merges(), merges.size());
    std::shuffle(merges.begin(), merges.end(), rng);
    EXPECT_EQ(PairsOfMergedClasses(eq, merges), ref.AllPairs());
  }
}

TEST(ClassPairs, ListsInterleavingClassesAscending) {
  // Classes {1,5,9} and {3,4} interleave: (5,9) sorts after (3,4).
  EXPECT_EQ(ClassPairs({ClassEntry(1, 9), ClassEntry(3, 4), ClassEntry(1, 5),
                        ClassEntry(3, 3), ClassEntry(1, 1), ClassEntry(1, 9)}),
            (Pairs{{1, 5}, {1, 9}, {3, 4}, {5, 9}}));
  EXPECT_TRUE(ClassPairs({ClassEntry(7, 7)}).empty());
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

  ClosureReference expected(kNodes);
  size_t merges = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = t; i + t + 1 < kNodes; i += 2) {
      merges += expected.Union(i, i + t + 1) ? 1 : 0;
    }
  }
  EXPECT_TRUE(SameOverAllPairs(eq, expected, kNodes));
  EXPECT_EQ(eq.num_merges(), merges);
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
