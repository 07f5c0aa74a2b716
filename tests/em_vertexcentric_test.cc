// EMVC-specific behavior: message accounting, bounded-k sweeps,
// prioritized propagation, dependency re-seeding, and TC sweeps.

#include "core/em_vertexcentric.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.h"
#include "core/matcher.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::CompileAndRun;
using testing::MakeG1;
using testing::MakeSigma1;
using testing::Pairs;

TEST(EmVertexCentric, MatchesOracleOnG1) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = CompileAndRun(m.g, sigma1, Algorithm::kEmVc, 2);
  EXPECT_EQ(r.pairs, Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}}));
  EXPECT_GT(r.stats.messages, 0u);
  EXPECT_GT(r.stats.product_graph_nodes, 0u);
}

TEST(EmVertexCentric, EveryBudgetKIsCorrect) {
  // Lemma 11 correctness must hold for any k, including k = 1 (fully
  // sequential per check, maximal backtracking).
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 3;
  cfg.entities_per_type = 12;
  cfg.chained_fraction = 1.0;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  for (int k : {1, 2, 4, 16, 0 /* unbounded */}) {
    EmOptions opts = EmOptions::For(Algorithm::kEmVc, 4);
    opts.bounded_messages = k;
    MatchResult r = CompileAndRun(ds.graph, ds.keys, Algorithm::kEmVc, opts);
    EXPECT_EQ(r.pairs, ds.planted) << "k=" << k;
  }
}

TEST(EmVertexCentric, SmallerBudgetFewerMessages) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 20;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  // Message volume grows with the budget: k=1 (sequential, maximal
  // backtracking) ≤ k=4 ≤ unbounded forking.
  auto messages_for = [&](int k) {
    EmOptions opts = EmOptions::For(Algorithm::kEmVc, 4);
    opts.bounded_messages = k;
    MatchResult r = CompileAndRun(ds.graph, ds.keys, Algorithm::kEmVc, opts);
    EXPECT_EQ(r.pairs, ds.planted) << "k=" << k;
    return r.stats.messages;
  };
  uint64_t m1 = messages_for(1);
  uint64_t m4 = messages_for(4);
  uint64_t unbounded = messages_for(0);
  EXPECT_LE(m1, m4);
  EXPECT_LE(m4, unbounded);
}

TEST(EmVertexCentric, PrioritizedPropagationPreservesResult) {
  SyntheticConfig cfg;
  cfg.num_groups = 3;
  cfg.chain_length = 2;
  cfg.entities_per_type = 16;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  EmOptions plain = EmOptions::For(Algorithm::kEmVc, 4);
  EmOptions prio = plain;
  prio.prioritized = true;
  EXPECT_EQ(CompileAndRun(ds.graph, ds.keys, Algorithm::kEmVc, plain).pairs,
            CompileAndRun(ds.graph, ds.keys, Algorithm::kEmVc, prio).pairs);
}

TEST(EmVertexCentric, DependencyReSeedingResolvesChains) {
  // Fully chained c = 4 clusters: every higher-level pair can only fire
  // after a dep notification from the level below — exercises the
  // increment-message path rather than the initial seeds.
  SyntheticConfig cfg;
  cfg.num_groups = 1;
  cfg.chain_length = 4;
  cfg.entities_per_type = 8;
  cfg.chained_fraction = 1.0;
  cfg.seed = 31;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  MatchResult r = CompileAndRun(ds.graph, ds.keys, Algorithm::kEmOptVc, 4);
  EXPECT_EQ(r.pairs, ds.planted);
}

TEST(EmVertexCentric, TransitiveClosureViaSweep) {
  // a~b and b~c identified directly; (a,c) must appear via TC, and any
  // pair depending on (a,c) must then fire (the quiescence sweep).
  Graph g;
  NodeId a = g.AddEntity("album");
  NodeId b = g.AddEntity("album");
  NodeId c = g.AddEntity("album");
  NodeId n = g.AddValue("N");
  for (NodeId e : {a, b, c}) g.AddTriple(e, "name_of", n).IgnoreError();
  NodeId y1 = g.AddValue("Y");
  g.AddTriple(a, "release_year", y1).IgnoreError();
  g.AddTriple(b, "release_year", y1).IgnoreError();
  NodeId l = g.AddValue("L");
  g.AddTriple(b, "label", l).IgnoreError();
  g.AddTriple(c, "label", l).IgnoreError();
  // Artists recording a and c: identifiable only once (a, c) ∈ Eq.
  NodeId r1 = g.AddEntity("artist");
  NodeId r2 = g.AddEntity("artist");
  NodeId an = g.AddValue("AN");
  g.AddTriple(r1, "name_of", an).IgnoreError();
  g.AddTriple(r2, "name_of", an).IgnoreError();
  g.AddTriple(a, "recorded_by", r1).IgnoreError();
  g.AddTriple(c, "recorded_by", r2).IgnoreError();
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key ByYear for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    }
    key ByLabel for album {
      x -[name_of]-> n*
      x -[label]-> l*
    }
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
  )").ok());
  MatchResult oracle = Chase(g, keys);
  for (int p : {1, 4}) {
    MatchResult r = CompileAndRun(g, keys, Algorithm::kEmVc, p);
    EXPECT_EQ(r.pairs, oracle.pairs) << "p=" << p;
  }
  // The artist pair is in the result (depends on the TC-derived (a, c)).
  bool artist_pair = false;
  for (auto [x, y] : oracle.pairs) {
    artist_pair |= (x == std::min(r1, r2) && y == std::max(r1, r2));
  }
  EXPECT_TRUE(artist_pair);
}

TEST(EmVertexCentric, ResultIndependentOfProcessorCount) {
  GoogleSimConfig cfg;
  cfg.scale = 0.6;
  SyntheticDataset ds = GenerateGoogleSim(cfg);
  for (int p : {1, 3, 8}) {
    MatchResult r = CompileAndRun(ds.graph, ds.keys, Algorithm::kEmVc, p);
    EXPECT_EQ(r.pairs, ds.planted) << "p=" << p;
  }
}

TEST(EmVertexCentric, RepeatedRunsAreDeterministicInResult) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 16;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  MatchResult first = CompileAndRun(ds.graph, ds.keys, Algorithm::kEmOptVc, 8);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(CompileAndRun(ds.graph, ds.keys, Algorithm::kEmOptVc, 8).pairs,
              first.pairs);
  }
}

/// FNV-1a-64 over a derivation list, in list order.
uint64_t DerivationDigest(const ProvenanceIndex& derivations) {
  std::string bytes;
  auto put = [&bytes](uint64_t x) {
    bytes += std::to_string(x);
    bytes += ',';
  };
  for (size_t i = 0; i < derivations.size(); ++i) {
    const ProvenanceIndex::Head& d = derivations.heads[i];
    put(d.e1);
    put(d.e2);
    put(static_cast<uint64_t>(d.key + 1));
    for (const auto& [a, b] : derivations.premises[i]) {
      put(a);
      put(b);
    }
    bytes += '|';
    for (const WitnessTriple& t : derivations.triples[i]) {
      put(t.s);
      put(t.p);
      put(t.o);
    }
    bytes += ';';
  }
  return Fnv1a64(bytes);
}

TEST(EmVertexCentric, SingleProcessorVisitOrderIsPinned) {
  // At p = 1 the engine drains one queue on the calling thread, so the
  // order in which a fork visits its Gp targets (prioritized, with the
  // k = 4 budget's in-place backtracking) fixes the iso-check and
  // message counters and the order of the derivation list.
  struct Case {
    std::string name;
    SyntheticDataset ds;
    uint64_t iso_checks, messages, digest;
  };
  std::vector<Case> cases;
  cases.push_back({"dbpedia", GenerateDBpediaSim({}), 5864, 1056,
                   0x4ff9bb2dae91bf4eull});
  cases.push_back({"google", GenerateGoogleSim({.scale = 3}), 288, 162,
                   0x67ea60a6c3399d9dull});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto plan = Matcher::Compile(c.ds.graph, c.ds.keys,
                                 PlanOptions::For(Algorithm::kEmOptVc, 1));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto r = Matcher(Algorithm::kEmOptVc).processors(1).Run(*plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->pairs, Chase(c.ds.graph, c.ds.keys).pairs);
    EXPECT_EQ(r->stats.iso_checks, c.iso_checks);
    EXPECT_EQ(r->stats.messages, c.messages);
    EXPECT_EQ(DerivationDigest(r->derivations), c.digest)
        << std::hex << DerivationDigest(r->derivations);
  }
}

}  // namespace
}  // namespace gkeys
