#include "core/product_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
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
#include "dependency_reference.h"
#include "pairing_reference.h"
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

/// Gp from its §5.1 definition over `g` and the node set `vp`: an edge
/// ((s1, s2), p, (o1, o2)) for every pair of p-edges (s1, o1), (s2, o2)
/// of G whose ends are both in Vp, seen through graph-node pairs.
std::map<PairKey, CanonNode> ReferenceGp(const Graph& g,
                                         const std::set<PairKey>& vp) {
  std::map<PairKey, CanonNode> nodes;
  for (const PairKey& v : vp) nodes[v];
  for (const PairKey& v : vp) {
    for (const Edge& x : g.Out(v.first)) {
      for (const Edge& y : g.Out(v.second)) {
        const PairKey w{x.dst, y.dst};
        if (x.pred != y.pred || !vp.contains(w)) continue;
        nodes[v].out.emplace_back(x.pred, w);
        nodes[w].in.emplace_back(x.pred, v);
      }
    }
  }
  for (auto& [pair, n] : nodes) {
    std::sort(n.out.begin(), n.out.end());
    std::sort(n.in.begin(), n.in.end());
  }
  return nodes;
}

/// What a pairing pass over the current graph gives candidate `c`: its
/// reduced sides (union over the keys that pair it) and its relation.
struct ReferenceReduction {
  NodeSet n1, n2;  // the d-neighbors
  bool paired = false;
  NodeSet r1, r2;
  std::vector<uint64_t> relation;
};

ReferenceReduction ReduceFromScratch(const EmContext& ctx, const Candidate& c,
                                     bool pair) {
  const Graph& g = ctx.graph();
  // c.keys lists every key of the pair's type: the type's radius.
  int radius = 0;
  for (int ki : *c.keys) {
    radius = std::max(radius, ctx.compiled_keys()[ki].key->radius());
  }
  ReferenceReduction out;
  out.n1 = DNeighbor(g, c.e1, radius);
  out.n2 = DNeighbor(g, c.e2, radius);
  const NodeSet& n1 = out.n1;
  const NodeSet& n2 = out.n2;
  for (int ki : *c.keys) {
    if (!pair) break;
    PairingResult pr = ReferenceMaxPairing(g, ctx.compiled_keys()[ki].cp,
                                           c.e1, c.e2, n1, n2, true);
    if (!pr.paired) continue;
    out.paired = true;
    out.r1.UnionWith(pr.reduced1);
    out.r2.UnionWith(pr.reduced2);
    out.relation.insert(out.relation.end(), pr.pairs.begin(), pr.pairs.end());
    out.relation.push_back(PackPair(c.e1, c.e2));
  }
  std::sort(out.relation.begin(), out.relation.end());
  out.relation.erase(std::unique(out.relation.begin(), out.relation.end()),
                     out.relation.end());
  return out;
}

/// From-scratch references of one graph state, shared by the lineages
/// that reach it (every plan preset on one delta stream): per candidate
/// pair its reduction, and Gp over a node set.
struct ReferenceCache {
  std::map<uint64_t, ReferenceReduction> reductions;  // with pairing
  std::map<NodeId, NodeSet> dneighbors;
  // Per (pairing?, L): the reference dependency index.
  std::map<std::pair<bool, std::vector<uint64_t>>,
           testing::ReferenceDependencies>
      dependencies;
  std::set<PairKey> vp;
  std::map<PairKey, CanonNode> gp;
};

std::vector<uint64_t> CandidatePairs(const MatchPlan& plan) {
  std::vector<uint64_t> out;
  for (const Candidate& c : plan.context().candidates()) {
    out.push_back(PackPair(c.e1, c.e2));
  }
  return out;
}

/// Checks every per-candidate section of `plan` against its definition:
/// the dependency index against the whole-L inversion of the scans, each
/// candidate's neighbor sets against a pairing pass from scratch (or its
/// d-neighbors, without pairing), and Gp's nodes, edges and candidate
/// nodes against §5.1 over the graph and the candidates' relations.
void ExpectPlanMatchesItsDefinition(const MatchPlan& plan,
                                    ReferenceCache& cache) {
  const EmContext& ctx = plan.context();
  const bool pairing = plan.options().use_pairing;
  auto deps = cache.dependencies.find({pairing, CandidatePairs(plan)});
  if (deps == cache.dependencies.end()) {
    deps = cache.dependencies
               .emplace(std::pair(pairing, CandidatePairs(plan)),
                        testing::ReferenceDependencyIndex(ctx))
               .first;
  }
  ASSERT_NO_FATAL_FAILURE(
      testing::ExpectDependencyIndexEquals(ctx, deps->second));
  const bool pair = pairing || plan.has_product_graph();
  auto& reductions = cache.reductions;
  std::set<PairKey> vp;
  const std::vector<Candidate>& cands = ctx.candidates();
  for (uint32_t i = 0; i < cands.size(); ++i) {
    const Candidate& c = cands[i];
    if (!pair) {
      // Without pairing a candidate's sets are its entities' d-neighbors.
      for (const auto& [e, nbr] : {std::pair(c.e1, c.nbr1),
                                   std::pair(c.e2, c.nbr2)}) {
        auto dn = cache.dneighbors.find(e);
        if (dn == cache.dneighbors.end()) {
          int radius = 0;
          for (int ki : *c.keys) {
            radius = std::max(radius, ctx.compiled_keys()[ki].key->radius());
          }
          dn = cache.dneighbors.emplace(e, DNeighbor(ctx.graph(), e, radius))
                   .first;
        }
        ASSERT_EQ(*nbr, dn->second) << "d-neighbor of " << e;
      }
      continue;
    }
    auto cached = reductions.find(PackPair(c.e1, c.e2));
    if (cached == reductions.end()) {
      cached = reductions
                   .emplace(PackPair(c.e1, c.e2),
                            ReduceFromScratch(ctx, c, pair))
                   .first;
    }
    const ReferenceReduction& want = cached->second;
    if (pairing) {
      ASSERT_TRUE(want.paired) << "candidate " << i;
      ASSERT_EQ(*c.nbr1, want.r1) << "reduced side 1 of candidate " << i;
      ASSERT_EQ(*c.nbr2, want.r2) << "reduced side 2 of candidate " << i;
    } else {
      ASSERT_EQ(*c.nbr1, want.n1) << "d-neighbor 1 of candidate " << i;
      ASSERT_EQ(*c.nbr2, want.n2) << "d-neighbor 2 of candidate " << i;
    }
    if (plan.has_product_graph()) {
      for (uint64_t p : want.relation) {
        vp.emplace(static_cast<NodeId>(p >> 32),
                   static_cast<NodeId>(p & 0xffffffffu));
      }
      const uint32_t v = plan.product_graph().CandidateNode(i);
      ASSERT_EQ(v == kNoPNode, want.relation.empty()) << "candidate " << i;
      if (v != kNoPNode) {
        ASSERT_EQ(plan.product_graph().pair(v), PairKey(c.e1, c.e2));
      }
    }
  }
  if (!plan.has_product_graph()) return;
  const ProductGraph& pg = plan.product_graph();
  const std::map<PairKey, CanonNode> got = CanonGp(pg);
  if (cache.gp.empty() || cache.vp != vp) {
    cache.gp = ReferenceGp(ctx.graph(), vp);
    cache.vp = vp;
  }
  const std::map<PairKey, CanonNode>& want = cache.gp;
  ASSERT_EQ(got.size(), want.size()) << "|Vp|";
  for (const auto& [pair, n] : want) {
    auto it = got.find(pair);
    ASSERT_NE(it, got.end()) << "Vp lacks (" << pair.first << ", "
                             << pair.second << ")";
    ASSERT_EQ(it->second.out, n.out) << "out-edges of (" << pair.first
                                     << ", " << pair.second << ")";
    ASSERT_EQ(it->second.in, n.in) << "in-edges of (" << pair.first << ", "
                                   << pair.second << ")";
  }
}

TEST(ProductGraph, PatchedGpMatchesItsReloadedReplay) {
  // Plan lineages of every algorithm's preset, on plain and padded
  // layouts, at p = 1 and 4, along two delta streams: removal batches
  // alternating with batches that re-add exactly what was just removed
  // (so Vp shrinks, with compaction, and regrows, with clean → fresh
  // edges), and mixed uniform batches. After every Patch each section
  // is checked against its definition (ExpectPlanMatchesItsDefinition),
  // and the plan is saved and loaded back; the load replays Gp from
  // scratch over the relations. The lineages hold patches that shift L
  // (a pair enters or leaves) and patches that keep every position.
  size_t shifted = 0, unshifted = 0;
  for (const std::string_view dataset : {"dbpedia", "google"}) {
    for (const bool padded : {false, true}) {
      for (const std::string_view stream : {"alternating", "mixed"}) {
        // Per batch: every lineage of this stream sees the same graphs.
        constexpr int kBatches = 12;
        std::vector<ReferenceCache> caches(kBatches + 1);
        for (Algorithm algo :
             {Algorithm::kNaiveChase, Algorithm::kEmMr, Algorithm::kEmVf2Mr,
              Algorithm::kEmOptMr, Algorithm::kEmVc, Algorithm::kEmOptVc}) {
          for (int p : {1, 4}) {
            // The naive chase's plan pairs every two entities of a type;
            // its lineages run on the smaller graph only.
            if (algo == Algorithm::kNaiveChase && dataset == "dbpedia") {
              continue;
            }
            SCOPED_TRACE(std::string(dataset) + (padded ? " padded " : " ") +
                         std::string(stream) + " " + AlgorithmName(algo) +
                         " p=" + std::to_string(p));
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
            Graph g = padded ? testing::PadWithIsolatedValues(ds.graph)
                             : std::move(ds.graph);
            MatchPlan plan =
                CompilePlan(g, ds.keys, PlanOptions::For(algo, p));
            ASSERT_TRUE(plan.valid());
            ASSERT_NO_FATAL_FAILURE(
                ExpectPlanMatchesItsDefinition(plan, caches[0]));
            const bool alternating = stream == "alternating";
            auto gen = MakeDeltaGenerator(
                "uniform", {.seed = 5,
                            .ops_per_batch = 12,
                            .remove_fraction = alternating ? 1.0 : 0.4});
            ASSERT_TRUE(gen.ok());
            std::vector<GraphDelta::DeltaTriple> removed;
            bool shrank = false, regrew = false;
            for (int batch = 0; batch < kBatches; ++batch) {
              SCOPED_TRACE("batch " + std::to_string(batch));
              GraphDelta delta(g);
              if (!alternating || batch % 2 == 0) {
                delta = (*gen)->Next(g);
                removed = delta.removed();
                ASSERT_FALSE(removed.empty());
              } else {
                for (const auto& t : removed) {
                  ASSERT_TRUE(
                      delta.AddTriple(t.subject, t.pred, t.object).ok());
                }
              }
              ASSERT_TRUE(g.Apply(delta).ok());
              const std::vector<uint64_t> before_pairs = CandidatePairs(plan);
              const size_t before =
                  plan.has_product_graph() ? plan.product_graph().NumNodes()
                                           : 0;
              auto next = plan.Patch(delta);
              ASSERT_TRUE(next.ok()) << next.status().ToString();
              plan = *std::move(next);
              (CandidatePairs(plan) == before_pairs ? unshifted : shifted)++;
              ASSERT_NO_FATAL_FAILURE(
                  ExpectPlanMatchesItsDefinition(plan, caches[batch + 1]));
              if (!plan.has_product_graph()) continue;
              const size_t after = plan.product_graph().NumNodes();
              shrank |= after < before;
              regrew |= after > before;

              testing::MapStore store;
              storage::SnapshotMeta meta;
              ASSERT_TRUE(
                  storage::PlanCodec::EncodeGraph(g, store, &meta).ok());
              ASSERT_TRUE(
                  storage::PlanCodec::EncodePlan(plan, store, &meta).ok());
              auto loaded =
                  storage::PlanCodec::DecodePlan(store, meta, g, ds.keys);
              ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
              ASSERT_TRUE(loaded->has_product_graph());
              ASSERT_NO_FATAL_FAILURE(ExpectSameGp(plan, *loaded));
            }
            if (plan.has_product_graph() && alternating) {
              EXPECT_TRUE(shrank) << "no batch shrank Vp";
              EXPECT_TRUE(regrew) << "no batch regrew Vp";
            }
          }
        }
      }
    }
  }
  std::printf("patches that shifted L: %zu, that kept it: %zu\n", shifted,
              unshifted);
  EXPECT_GT(shifted, 0u);
  EXPECT_GT(unshifted, 0u);
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
