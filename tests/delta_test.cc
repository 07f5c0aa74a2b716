// Graph-layer tests for the incremental mutation path: GraphDelta
// staging, Graph::Apply, per-node thaw (overlay) semantics, and the
// re-Finalize that rebuilds only the CSR chunks holding a dirty node.

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "io/fast_triples.h"

namespace gkeys {
namespace {

TEST(GraphDelta, StagedIdsMatchApply) {
  Graph g;
  NodeId a = g.AddEntity("person");
  NodeId name = g.AddValue("alice");
  ASSERT_TRUE(g.AddTriple(a, "name", name).ok());
  g.Finalize();

  GraphDelta delta(g);
  NodeId b = delta.AddEntity("person");
  EXPECT_EQ(b, g.NumNodes());  // next id the graph will assign
  NodeId alice = delta.AddValue("alice");
  EXPECT_EQ(alice, name);  // dedups against the base graph
  NodeId bob = delta.AddValue("bob");
  EXPECT_EQ(bob, g.NumNodes() + 1);
  EXPECT_EQ(delta.AddValue("bob"), bob);  // and against staged values
  ASSERT_TRUE(delta.AddTriple(b, "name", alice).ok());
  ASSERT_TRUE(delta.AddTriple(b, "nick", bob).ok());

  auto dirty = g.Apply(delta);
  ASSERT_TRUE(dirty.ok());
  EXPECT_TRUE(g.finalized());
  EXPECT_TRUE(g.IsEntity(b));
  EXPECT_EQ(g.entity_type(b), g.interner().Lookup("person"));
  EXPECT_TRUE(g.IsValue(bob));
  EXPECT_EQ(g.value_str(bob), "bob");
  EXPECT_TRUE(g.HasTriple(b, g.interner().Lookup("name"), alice));
  EXPECT_TRUE(g.HasTriple(b, g.interner().Lookup("nick"), bob));
  // Dirty set: the new nodes plus every touched endpoint.
  std::vector<NodeId> expect = {name, b, bob};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(*dirty, expect);
}

TEST(GraphDelta, ApplyRejectsStaleDelta) {
  Graph g;
  NodeId a = g.AddEntity("t");
  (void)a;
  g.Finalize();
  GraphDelta delta(g);
  NodeId b = delta.AddEntity("t");
  (void)b;
  ASSERT_TRUE(g.Apply(delta).ok());
  // The graph grew; the same delta no longer lines up.
  auto again = g.Apply(delta);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphDelta, RemovingAMissingTripleIsNotFound) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId v = g.AddValue("x");
  ASSERT_TRUE(g.AddTriple(a, "p", v).ok());
  g.Finalize();
  GraphDelta delta(g);
  ASSERT_TRUE(delta.RemoveTriple(a, "q", v).ok());  // staged fine...
  auto r = g.Apply(delta);                          // ...rejected on apply
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GraphDelta, FailingApplyLeavesTheGraphUnchanged) {
  // A valid add next to a removal of a missing triple: Apply must reject
  // the delta before materializing the add's new nodes or triples.
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  NodeId x = g.AddValue("x");
  NodeId y = g.AddValue("y");
  ASSERT_TRUE(g.AddTriple(a, "p", x).ok());
  ASSERT_TRUE(g.AddTriple(b, "p", x).ok());
  ASSERT_TRUE(g.AddTriple(a, "q", b).ok());
  ASSERT_TRUE(g.AddTriple(b, "q", a).ok());
  g.Finalize();
  const std::string before = SerializeGraph(g);
  const size_t nodes = g.NumNodes();
  const size_t triples = g.NumTriples();

  GraphDelta delta(g);
  NodeId c = delta.AddEntity("t");
  ASSERT_TRUE(delta.AddTriple(c, "p", delta.AddValue("z")).ok());
  ASSERT_TRUE(delta.AddTriple(a, "p", y).ok());
  ASSERT_TRUE(delta.RemoveTriple(a, "p", x).ok());  // present
  ASSERT_TRUE(delta.RemoveTriple(b, "p", y).ok());  // missing
  auto r = g.Apply(delta);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(),
            "RemoveTriple: (t#1, p, \"y\") is not in the graph");
  EXPECT_EQ(g.NumNodes(), nodes);
  EXPECT_EQ(g.NumTriples(), triples);
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(SerializeGraph(g), before);

  // The graph still takes a valid delta afterwards.
  GraphDelta ok(g);
  ASSERT_TRUE(ok.RemoveTriple(a, "p", x).ok());
  ASSERT_TRUE(g.Apply(ok).ok());
  EXPECT_EQ(g.NumTriples(), triples - 1);
}

TEST(GraphDelta, ApplyChecksRemovalsAgainstTheDeltasOwnAdds) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  NodeId x = g.AddValue("x");
  ASSERT_TRUE(g.AddTriple(a, "p", x).ok());
  g.Finalize();
  const std::string before = SerializeGraph(g);

  // Adds run first, so removing a triple the same delta adds is valid,
  // even under a predicate the graph has never seen.
  {
    Graph h = g;
    GraphDelta delta(h);
    ASSERT_TRUE(delta.AddTriple(b, "fresh", x).ok());
    ASSERT_TRUE(delta.RemoveTriple(b, "fresh", x).ok());
    auto r = h.Apply(delta);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(h.NumTriples(), 1u);
  }
  // The same triple removed twice fails, and the message names it.
  {
    Graph h = g;
    GraphDelta delta(h);
    ASSERT_TRUE(delta.RemoveTriple(a, "p", x).ok());
    ASSERT_TRUE(delta.RemoveTriple(a, "p", x).ok());
    auto r = h.Apply(delta);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().message(),
              "RemoveTriple: (t#0, p, \"x\") is not in the graph");
    EXPECT_EQ(SerializeGraph(h), before);
  }
  // A predicate neither the graph nor the delta's adds use.
  {
    Graph h = g;
    GraphDelta delta(h);
    ASSERT_TRUE(delta.AddTriple(b, "p", x).ok());
    ASSERT_TRUE(delta.RemoveTriple(a, "never", x).ok());
    auto r = h.Apply(delta);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().message(),
              "Graph::Apply: removed predicate 'never' never occurs in the "
              "graph");
    EXPECT_EQ(SerializeGraph(h), before);
    EXPECT_EQ(h.NumNodes(), 3u);
  }
}

TEST(GraphDelta, StagingValidatesNodeIds) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId v = g.AddValue("x");
  g.Finalize();
  GraphDelta delta(g);
  EXPECT_EQ(delta.AddTriple(999, "p", v).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(delta.AddTriple(v, "p", a).code(),
            StatusCode::kInvalidArgument);  // value subject
  EXPECT_EQ(delta.RemoveTriple(a, "p", 999).code(),
            StatusCode::kInvalidArgument);
}

TEST(CsrGraph, PerNodeThawServesOverlayAndCsrSideBySide) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId b = g.AddEntity("t");
  NodeId v = g.AddValue("x");
  ASSERT_TRUE(g.AddTriple(a, "p", v).ok());
  ASSERT_TRUE(g.AddTriple(b, "p", v).ok());
  g.Finalize();

  // Mutate only a: b keeps serving from the CSR, a from its overlay.
  NodeId w = g.AddValue("y");
  ASSERT_TRUE(g.AddTriple(a, "q", w).ok());
  EXPECT_FALSE(g.finalized());
  EXPECT_EQ(g.Out(a).size(), 2u);
  EXPECT_EQ(g.Out(b).size(), 1u);
  EXPECT_TRUE(g.HasTriple(a, g.interner().Lookup("q"), w));

  g.Finalize();
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(g.NumTriples(), 3u);
  // a's thaw does not leak into the next commit: an Apply that touches
  // only b reports exactly b's ids.
  GraphDelta delta(g);
  ASSERT_TRUE(delta.AddTriple(b, "q", w).ok());
  auto dirty = g.Apply(delta);
  ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
  EXPECT_EQ(*dirty, (std::vector<NodeId>{b, w}));
  EXPECT_EQ(g.Out(a).size(), 2u);
  EXPECT_EQ(g.Out(b).size(), 2u);
}

TEST(CsrGraph, RemoveTripleSubtractsEveryDuplicateCopy) {
  Graph g;
  NodeId a = g.AddEntity("t");
  NodeId v = g.AddValue("x");
  ASSERT_TRUE(g.AddTriple(a, "p", v).ok());
  ASSERT_TRUE(g.AddTriple(a, "p", v).ok());  // duplicate, pre-Finalize
  EXPECT_EQ(g.NumTriples(), 2u);
  ASSERT_TRUE(g.RemoveTriple(a, "p", v).ok());
  EXPECT_EQ(g.NumTriples(), 0u);  // both copies gone, count agrees
  EXPECT_FALSE(g.HasTriple(a, g.interner().Lookup("p"), v));
  g.Finalize();
  EXPECT_EQ(g.NumTriples(), 0u);
}

TEST(CsrGraph, RemoveTripleWorksInBothRepresentations) {
  for (bool finalize_first : {false, true}) {
    Graph g;
    NodeId a = g.AddEntity("t");
    NodeId v = g.AddValue("x");
    NodeId w = g.AddValue("y");
    ASSERT_TRUE(g.AddTriple(a, "p", v).ok());
    ASSERT_TRUE(g.AddTriple(a, "p", w).ok());
    if (finalize_first) g.Finalize();
    ASSERT_TRUE(g.RemoveTriple(a, "p", v).ok());
    EXPECT_FALSE(g.HasTriple(a, g.interner().Lookup("p"), v));
    EXPECT_TRUE(g.HasTriple(a, g.interner().Lookup("p"), w));
    g.Finalize();
    EXPECT_EQ(g.NumTriples(), 1u);
    EXPECT_EQ(g.In(v).size(), 0u);
    EXPECT_EQ(g.In(w).size(), 1u);
  }
}

/// Property: after every delta of a Graph::Apply chain, each re-finalized
/// by rebuilding only the CSR chunks that hold a dirty node, the graph is
/// indistinguishable from one built from scratch with the same triples.
/// The deltas cover the rebuild's edge cases: new nodes past the old CSR
/// (some left without edges, so their runs are empty), a node stripped of
/// every edge, and node 0 and the last node touched every time. Besides a
/// graph inside one chunk, the seeds run at node counts around chunk
/// boundaries: there the stripped node sits on either side of one, and
/// new nodes fill the last partial chunk and open the next.
TEST(CsrGraph, MergeRefinalizeEqualsFromScratchBuild) {
  constexpr int kPreds = 5;
  constexpr size_t kChunk = Graph::kChunkNodes;
  auto pred = [](int p) { return "p" + std::to_string(p); };
  for (size_t num_nodes :
       {size_t{40}, kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 5}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::to_string(num_nodes) + " nodes, seed " +
                   std::to_string(seed));
      Rng rng(seed);
      // Every node in id order: (is entity, type or literal).
      std::vector<std::pair<bool, std::string>> nodes;
      std::set<std::tuple<NodeId, int, NodeId>> triples;
      // Predicates are interned first, so their symbols line up with the
      // from-scratch graph's (Edge compares by Symbol).
      auto make_graph = [&]() {
        Graph g;
        for (int p = 0; p < kPreds; ++p) (void)g.Intern(pred(p));
        for (const auto& [entity, label] : nodes) {
          if (entity) {
            g.AddEntity(label);
          } else {
            g.AddValue(label);
          }
        }
        for (const auto& [s, p, o] : triples) {
          EXPECT_TRUE(g.AddTriple(s, pred(p), o).ok());
        }
        g.Finalize();
        return g;
      };
      const size_t num_values = num_nodes / 4;
      for (size_t i = 0; i < num_nodes - num_values; ++i) {
        nodes.emplace_back(true, "t" + std::to_string(i % 3));
      }
      for (size_t i = 0; i < num_values; ++i) {
        nodes.emplace_back(false, "v" + std::to_string(i));
      }
      auto random_entity = [&]() {
        NodeId e;
        do {
          e = static_cast<NodeId>(rng.Below(nodes.size()));
        } while (!nodes[e].first);
        return e;
      };
      for (size_t i = 0; i < 3 * num_nodes; ++i) {
        triples.emplace(random_entity(), static_cast<int>(rng.Below(kPreds)),
                        static_cast<NodeId>(rng.Below(nodes.size())));
      }
      Graph g = make_graph();

      for (int step = 0; step < 12; ++step) {
        SCOPED_TRACE("delta " + std::to_string(step));
        GraphDelta delta(g);
        std::set<std::tuple<NodeId, int, NodeId>> adds, removes;
        // One old node other than node 0 and the last one loses every edge:
        // the last id of a chunk on even steps and the first id of the next
        // on odd ones, once the graph spans a boundary; anywhere before.
        const size_t boundaries = (g.NumNodes() - 2) / kChunk;
        const NodeId strip =
            boundaries == 0
                ? 1 + static_cast<NodeId>(rng.Below(g.NumNodes() - 2))
                : static_cast<NodeId>((1 + rng.Below(boundaries)) * kChunk -
                                      (step % 2 == 0 ? 1 : 0));
        auto other_entity = [&]() {
          NodeId e;
          do {
            e = random_entity();
          } while (e == strip);
          return e;
        };
        const size_t old_nodes = g.NumNodes();
        auto other_old_node = [&]() {
          NodeId n;
          do {
            n = static_cast<NodeId>(rng.Below(old_nodes));
          } while (n == strip);
          return n;
        };
        for (const auto& t : triples) {
          if (std::get<0>(t) == strip || std::get<2>(t) == strip) {
            removes.insert(t);
          }
        }
        // New entities and values past the old CSR; every other one gets
        // no edge of its own.
        const int new_nodes = static_cast<int>(rng.Below(4));
        for (int i = 0; i < new_nodes; ++i) {
          NodeId id;
          if (rng.Chance(0.5)) {
            nodes.emplace_back(true, "t" + std::to_string(i % 3));
            id = delta.AddEntity(nodes.back().second);
          } else {
            nodes.emplace_back(false, "n" + std::to_string(step) + "_" +
                                          std::to_string(i));
            id = delta.AddValue(nodes.back().second);
          }
          ASSERT_EQ(id, nodes.size() - 1);
          if (i % 2 != 0) continue;
          const int p = static_cast<int>(rng.Below(kPreds));
          if (nodes[id].first) {
            adds.emplace(id, p, other_old_node());
          } else {
            adds.emplace(other_entity(), p, id);
          }
        }
        // Random churn among the old nodes.
        std::vector<std::tuple<NodeId, int, NodeId>> present(triples.begin(),
                                                             triples.end());
        for (int i = 0; i < 4 && !present.empty(); ++i) {
          removes.insert(present[rng.Below(present.size())]);
        }
        for (int i = 0; i < 6; ++i) {
          adds.emplace(other_entity(), static_cast<int>(rng.Below(kPreds)),
                       other_old_node());
        }
        // Node 0 and the last node (new or old) are touched every time: the
        // triple between them is added if absent, removed if present.
        const NodeId last = static_cast<NodeId>(nodes.size() - 1);
        const auto link = std::make_tuple(NodeId{0}, step % kPreds, last);
        if (triples.count(link) != 0) {
          removes.insert(link);
        } else {
          adds.insert(link);
        }
        for (const auto& t : removes) adds.erase(t);
        for (const auto& [s, p, o] : adds) {
          ASSERT_TRUE(delta.AddTriple(s, pred(p), o).ok());
          triples.emplace(s, p, o);
        }
        for (const auto& [s, p, o] : removes) {
          ASSERT_TRUE(delta.RemoveTriple(s, pred(p), o).ok());
          triples.erase({s, p, o});
        }
        auto dirty = g.Apply(delta);
        ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
        ASSERT_TRUE(
            std::binary_search(dirty->begin(), dirty->end(), NodeId{0}));
        ASSERT_TRUE(std::binary_search(dirty->begin(), dirty->end(), last));

        const Graph fresh_build = make_graph();
        ASSERT_EQ(g.NumNodes(), fresh_build.NumNodes());
        ASSERT_EQ(g.NumTriples(), fresh_build.NumTriples());
        EXPECT_TRUE(g.Out(strip).empty());
        EXPECT_TRUE(g.In(strip).empty());
        for (NodeId node = 0; node < g.NumNodes(); ++node) {
          auto out_g = g.Out(node);
          auto out_f = fresh_build.Out(node);
          ASSERT_EQ(std::vector<Edge>(out_g.begin(), out_g.end()),
                    std::vector<Edge>(out_f.begin(), out_f.end()))
              << "node " << node;
          auto in_g = g.In(node);
          auto in_f = fresh_build.In(node);
          ASSERT_EQ(std::vector<Edge>(in_g.begin(), in_g.end()),
                    std::vector<Edge>(in_f.begin(), in_f.end()))
              << "node " << node;
        }
      }
    }
  }
}

TEST(ParseDelta, ResolvesTokensByIdentityAndStagesNewEntities) {
  auto loaded = FastDeserializeGraphWithNames(
      "ent:person:0 name val:\"alice\"\n"
      "ent:person:1 name val:\"alice\"\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Graph& g = loaded->graph;
  NodeId p0 = loaded->entities.at("ent:person:0");
  NodeId p1 = loaded->entities.at("ent:person:1");
  NodeId alice = g.FindValue("alice");

  auto delta = FastParseDelta(
      "# a comment\n"
      "\n"
      "+ ent:person:2 name val:\"alice\"\n"      // unseen token: new entity
      "+ ent:person:2 knows ent:person:0\n"      // referenced again
      "- ent:person:1 name val:\"alice\"\n",
      loaded->graph, loaded->entities);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->num_added_triples(), 2u);
  EXPECT_EQ(delta->num_removed_triples(), 1u);
  EXPECT_EQ(delta->num_new_nodes(), 1u);  // person:2 staged once

  auto dirty = g.Apply(*delta);
  ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
  NodeId p2 = g.NumNodes() - 1;
  EXPECT_TRUE(g.IsEntity(p2));
  EXPECT_TRUE(g.HasTriple(p2, g.interner().Lookup("name"), alice));
  EXPECT_TRUE(g.HasTriple(p2, g.interner().Lookup("knows"), p0));
  EXPECT_FALSE(g.HasTriple(p1, g.interner().Lookup("name"), alice));
}

TEST(ParseDelta, TokensBindLikeTheGraphFileNotByNodeIdRank) {
  // The file mentions person:1 BEFORE person:0, so NodeId order disagrees
  // with the labels. A delta addressed to ent:person:0 must land on the
  // entity the FILE calls person:0 (the object of the first line).
  auto loaded = FastDeserializeGraphWithNames(
      "ent:person:1 knows ent:person:0\n"
      "ent:person:0 name val:\"zero\"\n");
  ASSERT_TRUE(loaded.ok());
  NodeId file_p0 = loaded->entities.at("ent:person:0");
  auto delta = FastParseDelta("+ ent:person:0 age val:\"30\"\n",
                              loaded->graph, loaded->entities);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  Graph& g = loaded->graph;
  ASSERT_TRUE(g.Apply(*delta).ok());
  EXPECT_TRUE(
      g.HasTriple(file_p0, g.interner().Lookup("age"), g.FindValue("30")));
}

TEST(ParseDelta, NonNumericEntityIdsWork) {
  auto loaded =
      FastDeserializeGraphWithNames("ent:person:alice knows ent:person:bob\n");
  ASSERT_TRUE(loaded.ok());
  auto delta = FastParseDelta(
      "+ ent:person:alice nick val:\"al\"\n"
      "+ ent:person:carol knows ent:person:alice\n",
      loaded->graph, loaded->entities);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->num_new_nodes(), 2u);  // "al" value + carol
}

TEST(ParseDelta, MalformedLinesAreInvalidArgumentWithLineNumber) {
  auto loaded = FastDeserializeGraphWithNames("ent:t:0 p val:\"x\"\n");
  ASSERT_TRUE(loaded.ok());

  struct Case {
    const char* text;
    const char* needle;
  };
  const Case cases[] = {
      {"+ ent:t:0 p val:\"x\"\nbogus line\n", "line 2"},
      {"* ent:t:0 p val:\"x\"\n", "line 1"},
      {"+ ent:t:0 p\n", "line 1"},                       // 2 fields
      {"+ zzz:t:0 p val:\"x\"\n", "ent: or val:"},
      {"+ ent:t: p val:\"x\"\n", "type and an id"},      // empty id
      {"+ ent:t:0 p val:\"x\n", "malformed value"},      // unterminated
      {"- ent:t:0 p val:\"nope\"\n", "unknown value"},
      {"- ent:t:9 p val:\"x\"\n", "unknown entity"},
      {"+ val:\"x\" p ent:t:0\n", "subject must be an entity"},
  };
  for (const Case& c : cases) {
    auto delta = FastParseDelta(c.text, loaded->graph, loaded->entities);
    ASSERT_FALSE(delta.ok()) << c.text;
    EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument) << c.text;
    EXPECT_NE(delta.status().message().find(c.needle), std::string::npos)
        << "message '" << delta.status().message() << "' should mention '"
        << c.needle << "'";
  }
}

}  // namespace
}  // namespace gkeys
