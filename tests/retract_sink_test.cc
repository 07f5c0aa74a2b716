#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/matcher.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "keys/key.h"

namespace gkeys {
namespace {

constexpr Algorithm kAll[] = {
    Algorithm::kNaiveChase, Algorithm::kEmMr,  Algorithm::kEmVf2Mr,
    Algorithm::kEmOptMr,    Algorithm::kEmVc,  Algorithm::kEmOptVc,
};

using Pair = std::pair<NodeId, NodeId>;

struct RecordingSink : MatchSink {
  std::vector<Pair> pairs;
  std::vector<Pair> retracted;
  void OnPair(NodeId a, NodeId b) override { pairs.emplace_back(a, b); }
  void OnPairRetracted(NodeId a, NodeId b) override {
    retracted.emplace_back(a, b);
  }
};

/// Two independent value-identified pairs: (p0, p1) via "dup1" and
/// (p2, p3) via "dup2", plus a singleton.
struct TwoPairFixture {
  Graph g;
  KeySet keys;
  NodeId p[5];
  NodeId dup1_value;

  TwoPairFixture() {
    EXPECT_TRUE(keys.AddFromDsl("key K_p for p {\n  x -[a]-> v0*\n}\n").ok());
    dup1_value = kNoNode;
    for (int i = 0; i < 5; ++i) p[i] = g.AddEntity("p");
    dup1_value = g.AddValue("dup1");
    NodeId dup2 = g.AddValue("dup2");
    g.AddTriple(p[0], "a", dup1_value).IgnoreError();
    g.AddTriple(p[1], "a", dup1_value).IgnoreError();
    g.AddTriple(p[2], "a", dup2).IgnoreError();
    g.AddTriple(p[3], "a", dup2).IgnoreError();
    g.AddTriple(p[4], "a", g.AddValue("solo")).IgnoreError();
    g.Finalize();
  }
};

TEST(RetractSink, RemovalRetractsAcrossAllAlgorithms) {
  for (Algorithm a : kAll) {
    TwoPairFixture f;
    auto plan = Matcher::Compile(f.g, f.keys, PlanOptions::For(a, 2));
    ASSERT_TRUE(plan.ok()) << AlgorithmName(a);
    Matcher m(a);
    m.processors(2);
    auto prev = m.Run(*plan);
    ASSERT_TRUE(prev.ok()) << AlgorithmName(a);
    ASSERT_EQ(prev->pairs,
              (std::vector<Pair>{{f.p[0], f.p[1]}, {f.p[2], f.p[3]}}));

    GraphDelta delta(f.g);
    ASSERT_TRUE(delta.RemoveTriple(f.p[1], "a", f.dup1_value).ok());
    ASSERT_TRUE(f.g.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok()) << AlgorithmName(a);

    RecordingSink sink;
    auto r = m.Rematch(*patched, *prev, delta, sink);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a) << ": " << r.status().message();
    // (p0, p1) lost its only witness; (p2, p3) is untouched.
    EXPECT_EQ(r->pairs, (std::vector<Pair>{{f.p[2], f.p[3]}}))
        << AlgorithmName(a);
    EXPECT_EQ(sink.retracted, (std::vector<Pair>{{f.p[0], f.p[1]}}))
        << AlgorithmName(a);
    EXPECT_EQ(r->stats.pairs_retracted, 1u) << AlgorithmName(a);
  }
}

TEST(RetractSink, AdditiveDeltaNeverRetracts) {
  for (Algorithm a : kAll) {
    TwoPairFixture f;
    auto plan = Matcher::Compile(f.g, f.keys, PlanOptions::For(a, 2));
    ASSERT_TRUE(plan.ok());
    Matcher m(a);
    m.processors(2);
    auto prev = m.Run(*plan);
    ASSERT_TRUE(prev.ok());

    // The new entity joins the dup1 bucket: a NEW pair appears, nothing
    // disappears (identification is monotone under additions).
    GraphDelta delta(f.g);
    NodeId e = delta.AddEntity("p");
    ASSERT_TRUE(delta.AddTriple(e, "a", f.dup1_value).ok());
    ASSERT_TRUE(f.g.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok());

    RecordingSink sink;
    auto r = m.Rematch(*patched, *prev, delta, sink);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a);
    EXPECT_TRUE(sink.retracted.empty()) << AlgorithmName(a);
    EXPECT_EQ(r->stats.pairs_retracted, 0u) << AlgorithmName(a);
    EXPECT_GT(r->pairs.size(), prev->pairs.size()) << AlgorithmName(a);
  }
}

TEST(RetractSink, PairReDerivableThroughSecondKeyIsNotRetracted) {
  for (Algorithm a : kAll) {
    // (e0, e1) is identified by BOTH K_a (shared "va") and K_b (shared
    // "vb"). Removing the K_a witness must not report a retraction: the
    // pair is still in chase(G, Σ) through K_b.
    Graph g;
    KeySet keys;
    ASSERT_TRUE(keys.AddFromDsl("key K_a for p {\n  x -[a]-> v0*\n}\n"
                                "key K_b for p {\n  x -[b]-> v0*\n}\n")
                    .ok());
    NodeId e0 = g.AddEntity("p");
    NodeId e1 = g.AddEntity("p");
    NodeId va = g.AddValue("va");
    NodeId vb = g.AddValue("vb");
    g.AddTriple(e0, "a", va).IgnoreError();
    g.AddTriple(e1, "a", va).IgnoreError();
    g.AddTriple(e0, "b", vb).IgnoreError();
    g.AddTriple(e1, "b", vb).IgnoreError();
    g.Finalize();

    auto plan = Matcher::Compile(g, keys, PlanOptions::For(a, 2));
    ASSERT_TRUE(plan.ok());
    Matcher m(a);
    m.processors(2);
    auto prev = m.Run(*plan);
    ASSERT_TRUE(prev.ok());
    ASSERT_EQ(prev->pairs, (std::vector<Pair>{{e0, e1}}));

    GraphDelta delta(g);
    ASSERT_TRUE(delta.RemoveTriple(e1, "a", va).ok());
    ASSERT_TRUE(g.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok());

    RecordingSink sink;
    auto r = m.Rematch(*patched, *prev, delta, sink);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a);
    EXPECT_EQ(r->pairs, (std::vector<Pair>{{e0, e1}})) << AlgorithmName(a);
    EXPECT_TRUE(sink.retracted.empty()) << AlgorithmName(a);
    EXPECT_EQ(r->stats.pairs_retracted, 0u) << AlgorithmName(a);
  }
}

TEST(RetractSink, DependentPairsRetractTransitively) {
  for (Algorithm a : kAll) {
    // leaf pair (l0, l1) depends on hub pair (h0, h1): losing the hub
    // witness cascades — both pairs must be reported retracted.
    Graph g;
    KeySet keys;
    ASSERT_TRUE(
        keys.AddFromDsl("key K_hub for hub {\n  x -[hv]-> v0*\n}\n"
                        "key K_leaf for leaf {\n"
                        "  x -[la]-> v0*\n"
                        "  x -[link]-> y:hub\n"
                        "}\n")
            .ok());
    NodeId h0 = g.AddEntity("hub");
    NodeId h1 = g.AddEntity("hub");
    NodeId hv = g.AddValue("hv_shared");
    g.AddTriple(h0, "hv", hv).IgnoreError();
    g.AddTriple(h1, "hv", hv).IgnoreError();
    NodeId l0 = g.AddEntity("leaf");
    NodeId l1 = g.AddEntity("leaf");
    NodeId la = g.AddValue("la_shared");
    g.AddTriple(l0, "la", la).IgnoreError();
    g.AddTriple(l1, "la", la).IgnoreError();
    g.AddTriple(l0, "link", h0).IgnoreError();
    g.AddTriple(l1, "link", h1).IgnoreError();
    g.Finalize();

    auto plan = Matcher::Compile(g, keys, PlanOptions::For(a, 2));
    ASSERT_TRUE(plan.ok());
    Matcher m(a);
    m.processors(2);
    auto prev = m.Run(*plan);
    ASSERT_TRUE(prev.ok());
    ASSERT_EQ(prev->pairs, (std::vector<Pair>{{h0, h1}, {l0, l1}}));

    GraphDelta delta(g);
    ASSERT_TRUE(delta.RemoveTriple(h1, "hv", hv).ok());
    ASSERT_TRUE(g.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok());

    RecordingSink sink;
    auto r = m.Rematch(*patched, *prev, delta, sink);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a);
    EXPECT_TRUE(r->pairs.empty()) << AlgorithmName(a);
    EXPECT_EQ(sink.retracted, (std::vector<Pair>{{h0, h1}, {l0, l1}}))
        << AlgorithmName(a);
    EXPECT_EQ(r->stats.pairs_retracted, 2u) << AlgorithmName(a);
  }
}

TEST(RetractSink, StatsReportedWithoutASinkToo) {
  TwoPairFixture f;
  auto plan =
      Matcher::Compile(f.g, f.keys, PlanOptions::For(Algorithm::kEmOptVc, 2));
  ASSERT_TRUE(plan.ok());
  Matcher m(Algorithm::kEmOptVc);
  m.processors(2);
  auto prev = m.Run(*plan);
  ASSERT_TRUE(prev.ok());

  GraphDelta delta(f.g);
  ASSERT_TRUE(delta.RemoveTriple(f.p[1], "a", f.dup1_value).ok());
  ASSERT_TRUE(f.g.Apply(delta).ok());
  auto patched = plan->Patch(delta);
  ASSERT_TRUE(patched.ok());

  auto r = m.Rematch(*patched, *prev, delta);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.pairs_retracted, 1u);
}

}  // namespace
}  // namespace gkeys
