#include "pattern/tour.h"

#include <gtest/gtest.h>

#include "pattern/parser.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::ParseKey;

/// Builds a small graph whose interner covers the pattern's vocabulary so
/// Compile() produces a matchable pattern.
Graph VocabGraph(const Pattern& p) {
  Graph g;
  for (const auto& t : p.triples()) g.Intern(t.pred);
  NodeId e = kNoNode;
  for (const auto& n : p.nodes()) {
    if (!n.type.empty()) e = g.AddEntity(n.type);
    if (n.kind == VarKind::kConstant) g.AddValue(n.name);
  }
  if (e == kNoNode) g.AddEntity("pad");
  g.Finalize();
  return g;
}

void CheckTourInvariants(const Pattern& p) {
  Graph g = VocabGraph(p);
  CompiledPattern cp = Compile(p, g);
  ASSERT_TRUE(cp.matchable);
  auto tour = ComputeTour(cp);

  // Lemma 11: 2|Q| hops.
  EXPECT_EQ(tour.size(), 2 * p.size());

  // Every triple appears exactly twice.
  std::vector<int> uses(p.size(), 0);
  for (const auto& s : tour) ++uses[s.triple];
  for (int u : uses) EXPECT_EQ(u, 2);

  // It is a closed walk from x: consecutive steps chain, last ends at x.
  int at = cp.designated;
  for (const auto& s : tour) {
    const CompiledTriple& t = cp.triples[s.triple];
    int from = s.forward ? t.subject : t.object;
    int to = s.forward ? t.object : t.subject;
    EXPECT_EQ(from, at) << "walk must be contiguous";
    EXPECT_EQ(to, s.to_node);
    at = to;
  }
  EXPECT_EQ(at, cp.designated) << "walk must return to x";

  // Every pattern node is visited.
  std::vector<bool> visited(p.nodes().size(), false);
  visited[cp.designated] = true;
  for (const auto& s : tour) visited[s.to_node] = true;
  for (bool v : visited) EXPECT_TRUE(v);
}

TEST(Tour, StarPattern) {
  auto key = ParseKey(R"(
    key K for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
      x -[recorded_by]-> y:artist
    }
  )");
  ASSERT_TRUE(key.ok());
  CheckTourInvariants(key->pattern);
}

TEST(Tour, PathPattern) {
  auto key = ParseKey(R"(
    key K for t {
      x -[p]-> _w1:a
      _w1 -[q]-> _w2:b
      _w2 -[r]-> v*
    }
  )");
  ASSERT_TRUE(key.ok());
  CheckTourInvariants(key->pattern);
}

TEST(Tour, DagPatternQ4) {
  auto key = ParseKey(R"(
    key Q4 for company {
      x -[name_of]-> n*
      _p:company -[name_of]-> n*
      _p -[parent_of]-> x
      y:company -[parent_of]-> x
    }
  )");
  ASSERT_TRUE(key.ok());
  CheckTourInvariants(key->pattern);
}

TEST(Tour, CyclePattern) {
  auto key = ParseKey(R"(
    key K for t {
      x -[p]-> a:t2
      a -[q]-> b:t3
      b -[r]-> x
    }
  )");
  ASSERT_TRUE(key.ok());
  CheckTourInvariants(key->pattern);
}

TEST(Tour, IncomingEdgeAtX) {
  auto key = ParseKey(R"(
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
  )");
  ASSERT_TRUE(key.ok());
  CheckTourInvariants(key->pattern);
}

TEST(Tour, SingleTriple) {
  auto key = ParseKey("key K for t {\n x -[p]-> v*\n}");
  ASSERT_TRUE(key.ok());
  CheckTourInvariants(key->pattern);
}

}  // namespace
}  // namespace gkeys
