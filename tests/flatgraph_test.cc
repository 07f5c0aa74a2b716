// Property tests for the flat hot-path data structures: the sorted-vector
// NodeSet against reference std::set semantics, the CSR graph storage
// against the triples it was built from, and DNeighbor against a naive
// reference BFS — all on randomized inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/neighborhood.h"

namespace gkeys {
namespace {

// ---- NodeSet vs reference std::set -----------------------------------------

std::vector<NodeId> ToVec(const std::set<NodeId>& s) {
  return std::vector<NodeId>(s.begin(), s.end());
}

TEST(NodeSetProperty, RandomInsertUnionIntersectContains) {
  Rng rng(2026);
  for (int iter = 0; iter < 60; ++iter) {
    NodeSet a, b;
    std::set<NodeId> ra, rb;
    const NodeId universe = 1 + static_cast<NodeId>(rng.Below(150));
    const size_t ops = rng.Below(120);
    for (size_t i = 0; i < ops; ++i) {
      NodeId v = static_cast<NodeId>(rng.Below(universe));
      if (rng.Below(2) == 0) {
        a.Insert(v);
        ra.insert(v);
      } else {
        b.Insert(v);
        rb.insert(v);
      }
    }
    ASSERT_EQ(a.size(), ra.size());
    ASSERT_EQ(b.size(), rb.size());
    for (NodeId v = 0; v < universe; ++v) {
      ASSERT_EQ(a.Contains(v), ra.count(v) > 0) << "v=" << v;
    }
    // Iteration is sorted ascending (consumers rely on it).
    ASSERT_EQ(a.ToVector(), ToVec(ra));

    NodeSet u = a;
    u.UnionWith(b);
    std::set<NodeId> ru = ra;
    ru.insert(rb.begin(), rb.end());
    ASSERT_EQ(u.ToVector(), ToVec(ru));

    NodeSet i = a;
    i.IntersectWith(b);
    std::set<NodeId> ri;
    for (NodeId v : ra) {
      if (rb.count(v) > 0) ri.insert(v);
    }
    ASSERT_EQ(i.ToVector(), ToVec(ri));
  }
}

TEST(NodeSetProperty, ConstructorSortsAndDeduplicates) {
  NodeSet s(std::vector<NodeId>{9, 3, 3, 7, 1, 9, 1});
  EXPECT_EQ(s.ToVector(), (std::vector<NodeId>{1, 3, 7, 9}));
  EXPECT_TRUE(s.Contains(7));
  EXPECT_FALSE(s.Contains(2));
}

// ---- Random graphs ----------------------------------------------------------

/// A random graph; `added` (optional) receives every AddTriple call's
/// triple, duplicates included.
Graph RandomGraph(Rng& rng, size_t entities, size_t values, size_t triples,
                  std::vector<Triple>* added = nullptr) {
  Graph g;
  for (size_t i = 0; i < entities; ++i) {
    g.AddEntity("t" + std::to_string(rng.Below(3)));
  }
  std::vector<NodeId> vals;
  for (size_t i = 0; i < values; ++i) {
    vals.push_back(g.AddValue("v" + std::to_string(i)));
  }
  for (size_t i = 0; i < triples; ++i) {
    NodeId s = static_cast<NodeId>(rng.Below(entities));
    NodeId o = rng.Below(4) == 0 && !vals.empty()
                   ? vals[rng.Below(vals.size())]
                   : static_cast<NodeId>(rng.Below(entities));
    Symbol p = g.Intern("p" + std::to_string(rng.Below(5)));
    g.AddTriple(s, p, o).IgnoreError();
    if (added != nullptr) added->push_back(Triple{s, p, o});
  }
  return g;
}

/// Reference d-neighbor: plain set-based BFS, no scratch buffers.
std::vector<NodeId> ReferenceDNeighbor(const Graph& g, NodeId center,
                                       int d) {
  std::set<NodeId> seen{center};
  std::vector<NodeId> frontier{center};
  for (int dist = 0; dist < d && !frontier.empty(); ++dist) {
    std::vector<NodeId> next;
    for (NodeId n : frontier) {
      for (const Edge& e : g.Out(n)) {
        if (seen.insert(e.dst).second) next.push_back(e.dst);
      }
      for (const Edge& e : g.In(n)) {
        if (seen.insert(e.dst).second) next.push_back(e.dst);
      }
    }
    frontier = std::move(next);
  }
  return std::vector<NodeId>(seen.begin(), seen.end());
}

TEST(DNeighborProperty, MatchesReferenceBfsOnRandomGraphs) {
  Rng rng(41);
  for (int iter = 0; iter < 25; ++iter) {
    Graph g = RandomGraph(rng, 20 + rng.Below(40), 10, 60 + rng.Below(120));
    g.Finalize();
    for (int d = 0; d <= 3; ++d) {
      for (int probe = 0; probe < 5; ++probe) {
        NodeId center = static_cast<NodeId>(rng.Below(g.NumEntities()));
        NodeSet got = DNeighbor(g, center, d);
        ASSERT_EQ(got.ToVector(), ReferenceDNeighbor(g, center, d))
            << "center=" << center << " d=" << d;
      }
    }
  }
}

TEST(DNeighborScratch, ShrinksAfterBigGraphThenSmallGraph) {
  // Regression: the thread-local visited scratch grew to the largest
  // graph ever seen on the thread and was never released. A much smaller
  // graph must shrink it back (and results must stay correct throughout).
  constexpr size_t kBigNodes = 300000;
  Graph big;
  NodeId first = big.AddEntity("t");
  NodeId prev = first;
  for (size_t i = 1; i < kBigNodes; ++i) {
    NodeId n = big.AddEntity("t");
    ASSERT_TRUE(big.AddTriple(prev, "p", n).ok());
    prev = n;
  }
  big.Finalize();
  NodeSet chain = DNeighbor(big, first, 3);
  EXPECT_EQ(chain.size(), 4u);  // a chain: center + 3 hops
  const size_t grown = internal::DNeighborScratchBytes();
  EXPECT_GE(grown, kBigNodes);

  Graph small;
  NodeId a = small.AddEntity("t");
  NodeId b = small.AddEntity("t");
  ASSERT_TRUE(small.AddTriple(a, "p", b).ok());
  small.Finalize();
  NodeSet got = DNeighbor(small, a, 1);
  EXPECT_EQ(got.ToVector(), (std::vector<NodeId>{a, b}));
  EXPECT_LT(internal::DNeighborScratchBytes(), grown / 4);

  // Growing again afterwards still works (the zero-fill invariant held).
  NodeSet again = DNeighbor(big, first, 2);
  EXPECT_EQ(again.size(), 3u);
}

// ---- CSR storage ------------------------------------------------------------

TEST(CsrGraph, FinalizePreservesAdjacencyAndDeduplicates) {
  Rng rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Triple> added;
    Graph g = RandomGraph(rng, 15, 8, 80, &added);
    // Expected runs from the triples added (sorted + deduplicated, the
    // finalized contract).
    std::vector<std::vector<Edge>> out_before(g.NumNodes());
    std::vector<std::vector<Edge>> in_before(g.NumNodes());
    for (const Triple& t : added) {
      out_before[t.subject].push_back(Edge{t.pred, t.object});
      in_before[t.object].push_back(Edge{t.pred, t.subject});
    }
    for (auto* runs : {&out_before, &in_before}) {
      for (std::vector<Edge>& run : *runs) {
        std::sort(run.begin(), run.end());
        run.erase(std::unique(run.begin(), run.end()), run.end());
      }
    }
    g.Finalize();
    size_t total = 0;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      auto out = g.Out(n);
      ASSERT_EQ(std::vector<Edge>(out.begin(), out.end()), out_before[n]);
      auto in = g.In(n);
      ASSERT_EQ(std::vector<Edge>(in.begin(), in.end()), in_before[n]);
      total += out.size();
      for (const Edge& e : out) {
        ASSERT_TRUE(g.HasTriple(n, e.pred, e.dst));
      }
    }
    ASSERT_EQ(g.NumTriples(), total);
  }
}

TEST(CsrGraph, MutatingAfterFinalizeThawsTransparently) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  NodeId v = g.AddValue("x");
  ASSERT_TRUE(g.AddTriple(a, "p", b).ok());
  g.Finalize();
  ASSERT_TRUE(g.finalized());
  ASSERT_EQ(g.NumTriples(), 1u);

  // Mutations on a finalized graph thaw it and keep every existing edge.
  ASSERT_TRUE(g.AddTriple(b, "q", v).ok());
  EXPECT_FALSE(g.finalized());
  EXPECT_TRUE(g.HasTriple(a, g.Intern("p"), b));
  EXPECT_TRUE(g.HasTriple(b, g.Intern("q"), v));
  NodeId c = g.AddEntity("t");
  ASSERT_TRUE(g.AddTriple(c, "p", b).ok());

  g.Finalize();
  EXPECT_EQ(g.NumTriples(), 3u);
  EXPECT_TRUE(g.HasTriple(a, g.Intern("p"), b));
  EXPECT_TRUE(g.HasTriple(b, g.Intern("q"), v));
  EXPECT_TRUE(g.HasTriple(c, g.Intern("p"), b));
  EXPECT_EQ(g.InDegree(b), 2u);
}

TEST(CsrGraph, ForEachTripleCoversBothRepresentations) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId v = g.AddValue("x");
  g.AddTriple(a, "p", v).IgnoreError();
  g.AddTriple(a, "p", v).IgnoreError();  // duplicate, removed by Finalize
  size_t before = 0;
  g.ForEachTriple([&](const Triple&) { ++before; });
  EXPECT_EQ(before, 2u);
  g.Finalize();
  size_t after = 0;
  g.ForEachTriple([&](const Triple&) { ++after; });
  EXPECT_EQ(after, 1u);
}

}  // namespace
}  // namespace gkeys
