// Signature-blocked candidate generation (EmOptions::use_blocking): the
// oracle guarantee is that blocking is output-preserving for every
// algorithm — it only removes pairs that are provably not directly
// identifiable — while slashing the enumerated candidate space, and that
// blocked pairs stay visible to ghost/dependency tracking.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/entity_matcher.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::MakeG1;
using testing::MakeG2;
using testing::MakeSigma1;
using testing::MakeSigma2;
using testing::Pairs;

const Algorithm kAllSix[] = {Algorithm::kNaiveChase, Algorithm::kEmMr,
                             Algorithm::kEmVf2Mr,    Algorithm::kEmOptMr,
                             Algorithm::kEmVc,       Algorithm::kEmOptVc};

/// Runs `algo` with blocking forced on/off and returns the pairs.
MatchResult RunWithBlocking(const Graph& g, const KeySet& keys,
                            Algorithm algo, bool blocking) {
  PlanOptions popts = PlanOptions::For(algo, 4);
  popts.use_blocking = blocking;
  return testing::CompileAndRun(g, keys, algo, popts);
}

TEST(Blocking, OracleValueBasedKeys) {
  // Purely value-based Σ: Q2 alone (name + year).
  auto m = MakeG1();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    }
  )")
                  .ok());
  for (Algorithm a : kAllSix) {
    MatchResult blocked = RunWithBlocking(m.g, keys, a, true);
    MatchResult full = RunWithBlocking(m.g, keys, a, false);
    EXPECT_EQ(blocked.pairs, full.pairs) << AlgorithmName(a);
    EXPECT_EQ(blocked.pairs, Pairs({{m.alb1, m.alb2}})) << AlgorithmName(a);
  }
}

TEST(Blocking, OracleRecursiveKeys) {
  // Σ1 mixes value-based and mutually recursive keys (album ↔ artist).
  auto m = MakeG1();
  KeySet keys = MakeSigma1();
  for (Algorithm a : kAllSix) {
    MatchResult blocked = RunWithBlocking(m.g, keys, a, true);
    MatchResult full = RunWithBlocking(m.g, keys, a, false);
    EXPECT_EQ(blocked.pairs, full.pairs) << AlgorithmName(a);
    EXPECT_EQ(blocked.pairs,
              Pairs({{m.alb1, m.alb2}, {m.art1, m.art2}}))
        << AlgorithmName(a);
  }
}

TEST(Blocking, OracleWildcardAndConstantKeys) {
  // Σ2's Q4/Q5 bind value variables shared with wildcards; G2 exercises
  // merge/split identification through them.
  auto c = MakeG2();
  KeySet keys = MakeSigma2();
  for (Algorithm a : kAllSix) {
    MatchResult blocked = RunWithBlocking(c.g, keys, a, true);
    MatchResult full = RunWithBlocking(c.g, keys, a, false);
    EXPECT_EQ(blocked.pairs, full.pairs) << AlgorithmName(a);
  }
}

TEST(Blocking, OracleOnGeneratedWorkloads) {
  // Synthetic chains put the value terminals at radius d behind wildcard
  // hops (path signatures); the Google sim has direct value attributes.
  for (int c : {1, 2}) {
    for (int d : {1, 2}) {
      SyntheticConfig cfg;
      cfg.num_groups = 2;
      cfg.chain_length = c;
      cfg.radius = d;
      cfg.entities_per_type = 24;
      SyntheticDataset ds = GenerateSynthetic(cfg);
      for (Algorithm a : kAllSix) {
        MatchResult blocked = RunWithBlocking(ds.graph, ds.keys, a, true);
        EXPECT_EQ(blocked.pairs, ds.planted)
            << AlgorithmName(a) << " c=" << c << " d=" << d;
      }
    }
  }
  GoogleSimConfig gcfg;
  gcfg.scale = 1.0;
  SyntheticDataset google = GenerateGoogleSim(gcfg);
  for (Algorithm a : kAllSix) {
    MatchResult blocked = RunWithBlocking(google.graph, google.keys, a, true);
    MatchResult full = RunWithBlocking(google.graph, google.keys, a, false);
    EXPECT_EQ(blocked.pairs, full.pairs) << AlgorithmName(a);
  }
}

TEST(Blocking, CountsBlockedPairsAgainstTheFullEnumeration) {
  GoogleSimConfig cfg;
  cfg.scale = 1.0;
  SyntheticDataset ds = GenerateGoogleSim(cfg);
  MatchResult blocked =
      RunWithBlocking(ds.graph, ds.keys, Algorithm::kEmOptVc, true);
  MatchResult full =
      RunWithBlocking(ds.graph, ds.keys, Algorithm::kEmOptVc, false);
  EXPECT_GT(blocked.stats.candidates_blocked, 0u);
  EXPECT_LT(blocked.stats.candidates_initial, full.stats.candidates_initial);
  // Enumerated + blocked partition the full same-type pair space.
  EXPECT_EQ(blocked.stats.candidates_initial + blocked.stats.candidates_blocked,
            full.stats.candidates_initial);
  EXPECT_EQ(full.stats.candidates_blocked, 0u);
  EXPECT_EQ(blocked.pairs, full.pairs);
}

TEST(Blocking, BlockedPairsStillWakeDependentsTransitively) {
  // (a, c) shares NO value on either album key's most selective
  // signature (years for K1, labels for K2), so blocking excludes it from
  // L — yet it becomes equal transitively via (a,b) + (b,c), and the
  // artist pair whose recursive key waits on (a, c) must still fire.
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
    key K1 for album {
      x -[name_of]-> n*
      x -[release_year]-> y*
    }
    key K2 for album {
      x -[name_of]-> n*
      x -[label]-> l*
    }
    key K3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
  )")
                  .ok());

  auto expected =
      Pairs({{a, b}, {b, c}, {a, c}, {r1, r2}});
  for (Algorithm algo : kAllSix) {
    MatchResult r = RunWithBlocking(g, keys, algo, true);
    EXPECT_EQ(r.pairs, expected) << AlgorithmName(algo);
  }
  // The blocked (a, c) pair was never a candidate…
  MatchResult blocked = RunWithBlocking(g, keys, Algorithm::kEmOptMr, true);
  EXPECT_GT(blocked.stats.candidates_blocked, 0u);
}

TEST(Blocking, PatchedPlanCountsBlockedPairsOfAFullyReenumeratedType) {
  // Q6's "UK" constant does not resolve before the delta, so the key
  // cannot fire and the street type's signature index has no sources.
  // The delta adds "UK": the stored index is no longer valid, the patch
  // rebuilds it and enumerates the type in full — and must count the
  // pairs blocking kept out exactly like a fresh compile does.
  Graph g;
  std::vector<NodeId> streets;
  for (int i = 0; i < 6; ++i) streets.push_back(g.AddEntity("street"));
  const char* zips[] = {"Z1", "Z1", "Z2", "Z2", "Z3", "Z4"};
  for (int i = 0; i < 6; ++i) {
    g.AddTriple(streets[i], "zip_code", g.AddValue(zips[i])).IgnoreError();
    g.AddTriple(streets[i], "nation_of", g.AddValue("US")).IgnoreError();
  }
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key Q6 for street {
      x -[zip_code]-> code*
      x -[nation_of]-> "UK"
    }
  )")
                  .ok());
  auto plan = Matcher::Compile(g, keys, PlanOptions::For(Algorithm::kEmMr, 1));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->context().candidates_initial(), 0u);

  GraphDelta delta(g);
  NodeId uk = delta.AddValue("UK");
  for (int i : {0, 1, 2}) {
    ASSERT_TRUE(delta.AddTriple(streets[i], "nation_of", uk).ok());
  }
  ASSERT_TRUE(g.Apply(delta).ok());
  auto patched = plan->Patch(delta);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  auto fresh = Matcher::Compile(g, keys, PlanOptions::For(Algorithm::kEmMr, 1));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  const EmContext& p = patched->context();
  const EmContext& f = fresh->context();
  EXPECT_GT(f.candidates_blocked(), 0u);
  EXPECT_EQ(f.candidates_initial() + f.candidates_blocked(), 6u * 5u / 2u);
  EXPECT_EQ(p.candidates_initial() + p.candidates_blocked(),
            f.candidates_initial() + f.candidates_blocked());
  EXPECT_EQ(p.candidates_blocked(), f.candidates_blocked());
}

// A patch pins each key's signature source and walks it backwards over
// the graph to find an affected entity's bucket partners. With one
// source per key the pinned source is the one a fresh compile picks, so
// after every batch the patched plan must list exactly the candidate
// pairs a compile of the patched graph lists.

const Algorithm kPatchable[] = {Algorithm::kEmMr, Algorithm::kEmOptMr,
                                Algorithm::kEmVc, Algorithm::kEmOptVc};

std::vector<std::pair<NodeId, NodeId>> CandidatePairs(const MatchPlan& plan) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Candidate& c : plan.context().candidates()) {
    pairs.emplace_back(c.e1, c.e2);
  }
  return pairs;
}

/// Compiles `algo`'s plan of `full` with about an eighth of its triples
/// held out, then patches it through 16 batches of up to 4 triples that
/// alternately re-add held-out triples and remove present ones, and
/// after each batch compares the plan's candidate pairs with a fresh
/// compile's.
void ExpectPatchedCandidatesMatchACompile(const Graph& full,
                                          const KeySet& keys, Algorithm algo,
                                          uint64_t seed) {
  SCOPED_TRACE(AlgorithmName(algo));
  std::vector<Triple> all;
  full.ForEachTriple([&](const Triple& t) { all.push_back(t); });
  Rng rng(seed);
  std::vector<uint8_t> keep(all.size(), 1);
  std::vector<size_t> held, present;
  for (size_t i = 0; i < all.size(); ++i) {
    keep[i] = rng.Below(8) != 0;
    (keep[i] ? present : held).push_back(i);
  }
  Graph g = testing::RebuildWithout(full, all, keep);
  const PlanOptions opts = PlanOptions::For(algo, 2);
  auto plan = Matcher::Compile(g, keys, opts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(plan->context().candidates_blocked(), 0u);
  for (int batch = 0; batch < 16; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const bool additive = batch % 2 == 0;
    std::vector<size_t>& from = additive ? held : present;
    std::vector<size_t>& to = additive ? present : held;
    GraphDelta delta(g);
    for (int k = 0; k < 4 && !from.empty(); ++k) {
      const size_t pick = rng.Below(from.size());
      const Triple& t = all[from[pick]];
      const std::string& pred = full.interner().Resolve(t.pred);
      ASSERT_TRUE((additive ? delta.AddTriple(t.subject, pred, t.object)
                            : delta.RemoveTriple(t.subject, pred, t.object))
                      .ok());
      to.push_back(from[pick]);
      from[pick] = from.back();
      from.pop_back();
    }
    ASSERT_TRUE(g.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    auto fresh = Matcher::Compile(g, keys, opts);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(CandidatePairs(*patched), CandidatePairs(*fresh));
    *plan = *std::move(patched);
  }
}

TEST(Blocking, PatchesWalkABackwardStepSourceAsACompileDoes) {
  // The key's only value is x's parent's name: the source steps from x
  // back along parent_of, then forward along name_of.
  Graph g;
  Rng rng(5);
  std::vector<NodeId> companies, names;
  for (int i = 0; i < 40; ++i) companies.push_back(g.AddEntity("company"));
  for (int i = 0; i < 8; ++i) {
    names.push_back(g.AddValue("name " + std::to_string(i)));
  }
  for (NodeId c : companies) {
    ASSERT_TRUE(g.AddTriple(c, "name_of", names[rng.Below(names.size())]).ok());
    for (uint64_t k = rng.Below(3); k > 0; --k) {
      const NodeId parent = companies[rng.Below(companies.size())];
      if (parent != c) {
        ASSERT_TRUE(g.AddTriple(parent, "parent_of", c).ok());
      }
    }
  }
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key QP for company {
      _p:company -[parent_of]-> x
      _p -[name_of]-> n*
    }
  )")
                  .ok());
  for (Algorithm a : kPatchable) {
    ExpectPatchedCandidatesMatchACompile(g, keys, a, 11);
  }
}

/// The synthetic generator's keys for c = 2 chains of radius d, with the
/// leaf key's second value path left out: every key then has one
/// signature source. (With two, a patch keeps the source the compile
/// chose, which a compile of the patched graph need not choose.)
KeySet ChainKeysWithOneSourceEach(int groups, int d) {
  std::string dsl;
  for (int group = 0; group < groups; ++group) {
    for (int level = 0; level < 2; ++level) {
      const std::string id =
          std::to_string(group) + "_" + std::to_string(level);
      dsl += "key K_" + id + " for T_" + id + " {\n";
      std::string at = "x";
      for (int hop = 0; hop < d; ++hop) {
        const std::string wildcard = "_q0" + std::to_string(hop);
        dsl += "  " + at + " -[a_" + id + "_0_" + std::to_string(hop) +
               "]-> " +
               (hop + 1 < d ? wildcard + ":AUX_" + std::to_string(hop + 1)
                            : std::string("v0*")) +
               "\n";
        at = wildcard;
      }
      if (level == 0) {
        dsl += "  x -[ref_" + id + "]-> y:T_" + std::to_string(group) +
               "_1\n";
      }
      dsl += "}\n";
    }
  }
  KeySet keys;
  Status st = keys.AddFromDsl(dsl);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return keys;
}

TEST(Blocking, PatchesWalkMultiHopChainSourcesAsACompileDoes) {
  for (int d : {2, 3}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    SyntheticConfig cfg;
    cfg.num_groups = 2;
    cfg.chain_length = 2;
    cfg.radius = d;
    cfg.entities_per_type = 24;
    cfg.duplicate_fraction = 0.4;
    SyntheticDataset ds = GenerateSynthetic(cfg);
    const KeySet keys = ChainKeysWithOneSourceEach(cfg.num_groups, d);
    for (Algorithm a : kPatchable) {
      ExpectPatchedCandidatesMatchACompile(ds.graph, keys, a, 17 + d);
    }
  }
}

}  // namespace
}  // namespace gkeys
