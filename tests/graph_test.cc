#include "graph/graph.h"

#include <gtest/gtest.h>

#include "graph/neighborhood.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::InducedTripleCount;

TEST(Graph, EntitiesAreDistinctNodes) {
  Graph g;
  NodeId a = g.AddEntity("artist");
  NodeId b = g.AddEntity("artist");
  EXPECT_NE(a, b);
  EXPECT_TRUE(g.IsEntity(a));
  EXPECT_EQ(g.entity_type(a), g.entity_type(b));
  EXPECT_EQ(g.NumEntities(), 2u);
}

TEST(Graph, EqualValuesShareOneNode) {
  Graph g;
  NodeId v1 = g.AddValue("1996");
  NodeId v2 = g.AddValue("1996");
  NodeId v3 = g.AddValue("1997");
  EXPECT_EQ(v1, v2);  // value equality => same node (paper §2.1)
  EXPECT_NE(v1, v3);
  EXPECT_TRUE(g.IsValue(v1));
  EXPECT_EQ(g.value_str(v1), "1996");
  EXPECT_EQ(g.NumValues(), 2u);
}

TEST(Graph, AddTripleRejectsValueSubject) {
  Graph g;
  NodeId v = g.AddValue("x");
  NodeId e = g.AddEntity("t");
  EXPECT_FALSE(g.AddTriple(v, "p", e).ok());
}

TEST(Graph, AddTripleRejectsOutOfRange) {
  Graph g;
  NodeId e = g.AddEntity("t");
  EXPECT_FALSE(g.AddTriple(e, "p", 999).ok());
  EXPECT_FALSE(g.AddTriple(999, "p", e).ok());
}

TEST(Graph, AdjacencyBothDirections) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  ASSERT_TRUE(g.AddTriple(a, "p", b).ok());
  g.Finalize();
  ASSERT_EQ(g.Out(a).size(), 1u);
  EXPECT_EQ(g.Out(a)[0].dst, b);
  ASSERT_EQ(g.In(b).size(), 1u);
  EXPECT_EQ(g.In(b)[0].dst, a);
  EXPECT_EQ(g.OutDegree(b), 0u);
}

TEST(Graph, FinalizeDeduplicatesParallelEdges) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  ASSERT_TRUE(g.AddTriple(a, "p", b).ok());
  ASSERT_TRUE(g.AddTriple(a, "p", b).ok());
  ASSERT_TRUE(g.AddTriple(a, "q", b).ok());
  g.Finalize();
  EXPECT_EQ(g.NumTriples(), 2u);  // (a,p,b) deduped; (a,q,b) kept
}

TEST(Graph, HasTripleBeforeAndAfterFinalize) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  Symbol p = g.Intern("p");
  ASSERT_TRUE(g.AddTriple(a, p, b).ok());
  EXPECT_TRUE(g.HasTriple(a, p, b));  // linear scan pre-finalize
  g.Finalize();
  EXPECT_TRUE(g.HasTriple(a, p, b));  // binary search post-finalize
  EXPECT_FALSE(g.HasTriple(b, p, a));
  EXPECT_FALSE(g.HasTriple(a, g.Intern("q"), b));
}

TEST(Graph, EntitiesOfTypeTracksInsertionOrder) {
  Graph g;
  NodeId a = g.AddEntity("album");
  g.AddEntity("artist");
  NodeId c = g.AddEntity("album");
  auto albums = g.EntitiesOfType(g.Intern("album"));
  ASSERT_EQ(albums.size(), 2u);
  EXPECT_EQ(albums[0], a);
  EXPECT_EQ(albums[1], c);
  EXPECT_TRUE(g.EntitiesOfType(g.Intern("ghost")).empty());
}

TEST(Graph, FindValue) {
  Graph g;
  NodeId v = g.AddValue("hello");
  EXPECT_EQ(g.FindValue("hello"), v);
  EXPECT_EQ(g.FindValue("nope"), kNoNode);
}

TEST(Graph, EntityTypesSortedUnique) {
  Graph g;
  g.AddEntity("b");
  g.AddEntity("a");
  g.AddEntity("b");
  auto types = g.EntityTypes();
  ASSERT_EQ(types.size(), 2u);
  EXPECT_LT(types[0], types[1]);
}

TEST(Graph, ForEachTripleVisitsAll) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  NodeId v = g.AddValue("1");
  ASSERT_TRUE(g.AddTriple(a, "p", b).ok());
  ASSERT_TRUE(g.AddTriple(b, "q", v).ok());
  g.Finalize();
  size_t count = 0;
  g.ForEachTriple([&](const Triple&) { ++count; });
  EXPECT_EQ(count, g.NumTriples());
  EXPECT_EQ(count, 2u);
}

TEST(Graph, DescribeNode) {
  Graph g;
  NodeId e = g.AddEntity("album");
  NodeId v = g.AddValue("xyz");
  EXPECT_EQ(g.DescribeNode(e), "album#0");
  EXPECT_EQ(g.DescribeNode(v), "\"xyz\"");
}

// ---- d-neighbors ----

// Path a -p-> b -p-> c -p-> d; neighbors measured from b.
struct PathGraph {
  Graph g;
  NodeId a, b, c, d;
};

PathGraph MakePath() {
  PathGraph p;
  p.a = p.g.AddEntity("t");
  p.b = p.g.AddEntity("t");
  p.c = p.g.AddEntity("t");
  p.d = p.g.AddEntity("t");
  p.g.AddTriple(p.a, "p", p.b).IgnoreError();
  p.g.AddTriple(p.b, "p", p.c).IgnoreError();
  p.g.AddTriple(p.c, "p", p.d).IgnoreError();
  p.g.Finalize();
  return p;
}

TEST(DNeighbor, ZeroHopsIsJustTheCenter) {
  PathGraph p = MakePath();
  NodeSet n = DNeighbor(p.g, p.b, 0);
  EXPECT_EQ(n.size(), 1u);
  EXPECT_TRUE(n.Contains(p.b));
}

TEST(DNeighbor, CountsHopsIgnoringDirection) {
  PathGraph p = MakePath();
  NodeSet n1 = DNeighbor(p.g, p.b, 1);
  // b's 1-neighborhood: a (incoming) + c (outgoing) + b itself.
  EXPECT_EQ(n1.size(), 3u);
  EXPECT_TRUE(n1.Contains(p.a));
  EXPECT_TRUE(n1.Contains(p.c));
  EXPECT_FALSE(n1.Contains(p.d));
  NodeSet n2 = DNeighbor(p.g, p.b, 2);
  EXPECT_EQ(n2.size(), 4u);
  EXPECT_TRUE(n2.Contains(p.d));
}

TEST(DNeighbor, LargeDCoversComponentOnly) {
  PathGraph p = MakePath();
  NodeId isolated = p.g.AddEntity("t");
  p.g.Finalize();
  NodeSet n = DNeighbor(p.g, p.b, 100);
  EXPECT_EQ(n.size(), 4u);
  EXPECT_FALSE(n.Contains(isolated));
}

TEST(NodeSet, SetOperations) {
  NodeSet a(std::vector<NodeId>{1, 2, 3});
  NodeSet b(std::vector<NodeId>{2, 3, 4});
  NodeSet u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.size(), 4u);
  NodeSet i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.size(), 2u);
  EXPECT_TRUE(i.Contains(2));
  EXPECT_FALSE(i.Contains(1));
}

TEST(InducedTripleCount, CountsOnlyInsideTriples) {
  PathGraph p = MakePath();
  NodeSet inside(std::vector<NodeId>{p.a, p.b, p.c});
  // Induced: (a,p,b), (b,p,c) — (c,p,d) leaves the set.
  EXPECT_EQ(InducedTripleCount(p.g, inside), 2u);
}

}  // namespace
}  // namespace gkeys
