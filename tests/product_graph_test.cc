#include "core/product_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/matcher.h"
#include "gen/datasets.h"
#include "gen/hostile.h"
#include "gen/synthetic.h"
#include "graph/delta.h"
#include "storage/plan_codec.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::MakeG1;
using testing::MakeSigma1;

/// Compiles `keys` against `g` under `popts`; a failure fails the calling
/// test and yields an empty plan.
MatchPlan CompilePlan(const Graph& g, const KeySet& keys,
                      const PlanOptions& popts) {
  auto plan = Matcher::Compile(g, keys, popts);
  if (!plan.ok()) {
    ADD_FAILURE() << plan.status().ToString();
    return MatchPlan();
  }
  return *std::move(plan);
}

/// The EMVC plan of `g`: Gp is built only by a plan.
MatchPlan CompileVc(const Graph& g, const KeySet& keys) {
  return CompilePlan(g, keys, PlanOptions::For(Algorithm::kEmVc, 1));
}

TEST(ProductGraph, ContainsCandidateAndValueNodes) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchPlan plan = CompileVc(m.g, sigma1);
  ASSERT_TRUE(plan.has_product_graph());
  const ProductGraph& pg = plan.product_graph();
  // The identifiable candidate (alb1, alb2) is a node...
  EXPECT_NE(pg.Find(m.alb1, m.alb2), kNoPNode);
  // ...and its shared name value appears as a diagonal value pair.
  NodeId anthology = m.g.FindValue("Anthology 2");
  ASSERT_NE(anthology, kNoNode);
  EXPECT_NE(pg.Find(anthology, anthology), kNoPNode);
}

TEST(ProductGraph, EdgesMirrorSharedTriples) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchPlan plan = CompileVc(m.g, sigma1);
  ASSERT_TRUE(plan.has_product_graph());
  const ProductGraph& pg = plan.product_graph();
  uint32_t v = pg.Find(m.alb1, m.alb2);
  ASSERT_NE(v, kNoPNode);
  // (alb1, name_of, "Anthology 2") and (alb2, name_of, "Anthology 2")
  // => an out edge labeled name_of to the value pair.
  NodeId anthology = m.g.FindValue("Anthology 2");
  uint32_t val_node = pg.Find(anthology, anthology);
  ASSERT_NE(val_node, kNoPNode);
  Symbol name_of = m.g.interner().Lookup("name_of");
  bool found = false;
  for (const auto& e : pg.Out(v)) {
    if (e.pred == name_of && e.dst == val_node) found = true;
  }
  EXPECT_TRUE(found);
  // Edge counts feed prioritized propagation.
  EXPECT_GE(pg.OutCount(v, name_of), 1u);
  // The reverse direction is indexed as an in-edge.
  found = false;
  for (const auto& e : pg.In(val_node)) {
    if (e.pred == name_of && e.dst == v) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ProductGraph, CandidateNodeLookup) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchPlan plan = CompileVc(m.g, sigma1);
  ASSERT_TRUE(plan.has_product_graph());
  const ProductGraph& pg = plan.product_graph();
  const EmContext& ctx = plan.context();
  for (uint32_t i = 0; i < ctx.candidates().size(); ++i) {
    const Candidate& c = ctx.candidates()[i];
    uint32_t v = pg.CandidateNode(i);
    if (v != kNoPNode) {
      EXPECT_EQ(pg.pair(v).first, c.e1);
      EXPECT_EQ(pg.pair(v).second, c.e2);
    }
  }
}

TEST(ProductGraph, FindMissingPair) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchPlan plan = CompileVc(m.g, sigma1);
  ASSERT_TRUE(plan.has_product_graph());
  // art1 and a value never pair.
  NodeId anthology = m.g.FindValue("Anthology 2");
  EXPECT_EQ(plan.product_graph().Find(m.art1, anthology), kNoPNode);
}

TEST(ProductGraph, SizeScalesLinearlyWithGraph) {
  // The paper reports |Gp| ≈ 2.7·|G| on average — i.e., linear, not
  // quadratic. Verify the ratio stays bounded as the graph grows.
  double prev_ratio = 0;
  for (double scale : {1.0, 2.0, 4.0}) {
    SyntheticConfig cfg;
    cfg.num_groups = 2;
    cfg.chain_length = 2;
    cfg.entities_per_type = 20;
    cfg.scale = scale;
    SyntheticDataset ds = GenerateSynthetic(cfg);
    MatchPlan plan = CompileVc(ds.graph, ds.keys);
    ASSERT_TRUE(plan.has_product_graph());
    const ProductGraph& pg = plan.product_graph();
    double ratio = static_cast<double>(pg.NumNodes() + pg.NumEdges()) /
                   static_cast<double>(ds.graph.NumTriples());
    EXPECT_LT(ratio, 10.0) << "scale " << scale;
    if (prev_ratio > 0) {
      EXPECT_LT(ratio, prev_ratio * 2.0)
          << "|Gp|/|G| must not blow up with graph size";
    }
    prev_ratio = ratio;
  }
}

using PairKey = std::pair<NodeId, NodeId>;
using LabeledPair = std::pair<Symbol, PairKey>;

/// One product node seen through graph-node pairs instead of product-node
/// ids: its out- and in-edges as sorted (pred, pair(dst)) multisets.
struct CanonNode {
  std::vector<LabeledPair> out, in;
};

std::map<PairKey, CanonNode> CanonGp(const ProductGraph& pg) {
  std::map<PairKey, CanonNode> nodes;
  for (uint32_t v = 0; v < pg.NumNodes(); ++v) {
    CanonNode& n = nodes[pg.pair(v)];
    for (const auto& e : pg.Out(v)) n.out.emplace_back(e.pred, pg.pair(e.dst));
    for (const auto& e : pg.In(v)) n.in.emplace_back(e.pred, pg.pair(e.dst));
    std::sort(n.out.begin(), n.out.end());
    std::sort(n.in.begin(), n.in.end());
  }
  return nodes;
}

/// A patched Gp and the from-scratch replay of its saved relations agree
/// on everything the engine reads, up to product-node ids.
void ExpectSameGp(const MatchPlan& patched, const MatchPlan& loaded) {
  const ProductGraph& a = patched.product_graph();
  const ProductGraph& b = loaded.product_graph();
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  std::map<PairKey, CanonNode> ca = CanonGp(a), cb = CanonGp(b);
  std::vector<PairKey> pairs_a, pairs_b;
  for (const auto& [p, n] : ca) pairs_a.push_back(p);
  for (const auto& [p, n] : cb) pairs_b.push_back(p);
  ASSERT_EQ(pairs_a, pairs_b);
  for (uint32_t v = 0; v < a.NumNodes(); ++v) {
    const PairKey p = a.pair(v);
    const uint32_t w = b.Find(p.first, p.second);
    ASSERT_NE(w, kNoPNode);
    const CanonNode& na = ca[p];
    const CanonNode& nb = cb[p];
    ASSERT_EQ(na.out, nb.out) << "out-edges of (" << p.first << ", "
                              << p.second << ")";
    ASSERT_EQ(na.in, nb.in) << "in-edges of (" << p.first << ", "
                            << p.second << ")";
    std::set<Symbol> preds;
    for (const auto& [pred, dst] : na.out) preds.insert(pred);
    for (const auto& [pred, dst] : na.in) preds.insert(pred);
    for (Symbol pred : preds) {
      const auto out_n = static_cast<uint32_t>(std::count_if(
          na.out.begin(), na.out.end(),
          [pred](const LabeledPair& e) { return e.first == pred; }));
      const auto in_n = static_cast<uint32_t>(std::count_if(
          na.in.begin(), na.in.end(),
          [pred](const LabeledPair& e) { return e.first == pred; }));
      ASSERT_EQ(a.OutCount(v, pred), out_n);
      ASSERT_EQ(b.OutCount(w, pred), out_n);
      ASSERT_EQ(a.InCount(v, pred), in_n);
      ASSERT_EQ(b.InCount(w, pred), in_n);
    }
  }
  const size_t n = patched.context().candidates().size();
  ASSERT_EQ(loaded.context().candidates().size(), n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t va = a.CandidateNode(i), vb = b.CandidateNode(i);
    ASSERT_EQ(va == kNoPNode, vb == kNoPNode) << "candidate " << i;
    if (va != kNoPNode) {
      ASSERT_EQ(a.pair(va), b.pair(vb)) << "candidate " << i;
    }
  }
}

TEST(ProductGraph, PatchedGpMatchesItsReloadedReplay) {
  // Removal batches alternate with batches that re-add exactly what was
  // just removed, so Vp shrinks (compaction) and regrows (clean → fresh
  // edges) across the lineage. After every Patch the plan is saved and
  // loaded back; the load replays Gp from scratch over the relations.
  for (const std::string_view dataset : {"dbpedia", "google"}) {
    for (int p : {1, 2}) {
      SCOPED_TRACE(std::string(dataset) + " p=" + std::to_string(p));
      SyntheticDataset ds;
      if (dataset == "dbpedia") {
        DBpediaSimConfig cfg;
        cfg.seed = 5;
        cfg.scale = 2;
        ds = GenerateDBpediaSim(cfg);
      } else {
        GoogleSimConfig cfg;
        cfg.seed = 5;
        cfg.scale = 1;
        ds = GenerateGoogleSim(cfg);
      }
      Graph& g = ds.graph;
      MatchPlan plan =
          CompilePlan(g, ds.keys, PlanOptions::For(Algorithm::kEmOptVc, p));
      ASSERT_TRUE(plan.has_product_graph());
      auto gen = MakeDeltaGenerator(
          "uniform",
          {.seed = 5, .ops_per_batch = 12, .remove_fraction = 1.0});
      ASSERT_TRUE(gen.ok());
      std::vector<GraphDelta::DeltaTriple> removed;
      bool shrank = false, regrew = false;
      for (int batch = 0; batch < 12; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        GraphDelta delta(g);
        if (batch % 2 == 0) {
          delta = (*gen)->Next(g);
          removed = delta.removed();
          ASSERT_FALSE(removed.empty());
        } else {
          for (const auto& t : removed) {
            ASSERT_TRUE(delta.AddTriple(t.subject, t.pred, t.object).ok());
          }
        }
        ASSERT_TRUE(g.Apply(delta).ok());
        const size_t before = plan.product_graph().NumNodes();
        auto next = plan.Patch(delta);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        plan = *std::move(next);
        const size_t after = plan.product_graph().NumNodes();
        shrank |= after < before;
        regrew |= after > before;

        testing::MapStore store;
        storage::SnapshotMeta meta;
        ASSERT_TRUE(storage::PlanCodec::EncodeGraph(g, store, &meta).ok());
        ASSERT_TRUE(storage::PlanCodec::EncodePlan(plan, store, &meta).ok());
        auto loaded = storage::PlanCodec::DecodePlan(store, meta, g, ds.keys);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        ASSERT_TRUE(loaded->has_product_graph());
        ASSERT_NO_FATAL_FAILURE(ExpectSameGp(plan, *loaded));
      }
      EXPECT_TRUE(shrank) << "no batch shrank Vp";
      EXPECT_TRUE(regrew) << "no batch regrew Vp";
    }
  }
}

TEST(ProductGraph, UnpairedPlanKeepsItsGpAndMatches) {
  // A plan compiled without the pairing filter keeps every candidate but
  // still builds Gp from the pairing relations. Its size is pinned, and
  // both EMVC variants on it reproduce the chase.
  struct Case {
    std::string name;
    SyntheticDataset ds;
    size_t nodes, edges;
  };
  std::vector<Case> cases;
  cases.push_back({"dbpedia", GenerateDBpediaSim({}), 497, 744});
  cases.push_back({"google", GenerateGoogleSim({.scale = 3}), 212, 180});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MatchPlan plan =
        CompilePlan(c.ds.graph, c.ds.keys,
                    PlanOptions{.processors = 2, .use_pairing = false});
    ASSERT_TRUE(plan.has_product_graph());
    EXPECT_EQ(plan.product_graph().NumNodes(), c.nodes);
    EXPECT_EQ(plan.product_graph().NumEdges(), c.edges);
    const MatchResult oracle = Chase(c.ds.graph, c.ds.keys);
    for (Algorithm a : {Algorithm::kEmVc, Algorithm::kEmOptVc}) {
      auto r = Matcher(a).processors(2).Run(plan);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->pairs, oracle.pairs) << AlgorithmName(a);
    }
  }
}

}  // namespace
}  // namespace gkeys
