// Tests for the violation-report API and the key DSL round-trip.

#include "core/satisfaction.h"

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::MakeG1;
using testing::MakeG2;
using testing::MakeSigma1;
using testing::MakeSigma2;

TEST(Violations, ReportsFirstRoundEvidence) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  auto violations = FindViolations(m.g, sigma1);
  // Under Eq0 only Q2 can fire: (alb1, alb2). The artists' violation is
  // recursive and not directly evidenced.
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].key, "Q2");
  EXPECT_EQ(violations[0].e1, m.alb1);
  EXPECT_EQ(violations[0].e2, m.alb2);
  EXPECT_EQ(FormatViolation(m.g, violations[0]),
            "Q2: album#3 == album#4");
}

TEST(Violations, EmptyIffSatisfies) {
  // Property over several workloads: the violation list is empty exactly
  // when G |= Σ. The reference chase is the oracle: G |= Σ iff it derives
  // no pair. Satisfies is FindViolations(g, keys, 1), so it is held to
  // the same oracle.
  int yes = 0, no = 0;
  auto check = [&](const Graph& g, const KeySet& keys,
                   const std::string& what) {
    const bool satisfied = Chase(g, keys).pairs.empty();
    EXPECT_EQ(FindViolations(g, keys).empty(), satisfied) << what;
    EXPECT_EQ(Satisfies(g, keys), satisfied) << what;
    ++(satisfied ? yes : no);
  };
  for (uint64_t seed : {1u, 2u, 3u}) {
    SyntheticConfig cfg;
    cfg.seed = seed;
    cfg.num_groups = 2;
    cfg.chain_length = 2;
    cfg.entities_per_type = 10;
    cfg.duplicate_fraction = seed == 2 ? 0.0 : 0.2;
    SyntheticDataset ds = GenerateSynthetic(cfg);
    check(ds.graph, ds.keys, "synthetic seed " + std::to_string(seed));
  }
  // The paper's dataset stand-ins at small scale: the whole key set, and
  // each key alone (a recursive key alone may have nothing to fire on).
  GoogleSimConfig google;
  google.scale = 0.5;
  DBpediaSimConfig dbpedia;
  dbpedia.scale = 0.5;
  for (const SyntheticDataset& ds :
       {GenerateGoogleSim(google), GenerateDBpediaSim(dbpedia)}) {
    check(ds.graph, ds.keys, "whole key set");
    for (size_t i = 0; i < ds.keys.count(); ++i) {
      KeySet single;
      single.Add(ds.keys.key(i));
      check(ds.graph, single, ds.keys.key(i).name());
    }
  }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(Violations, LimitCapsOutput) {
  auto c = MakeG2();
  KeySet sigma2 = MakeSigma2();
  auto all = FindViolations(c.g, sigma2);
  EXPECT_EQ(all.size(), 2u);  // (com4, com5) by Q4, (com1, com2) by Q5
  EXPECT_EQ(FindViolations(c.g, sigma2, 1).size(), 1u);
}

TEST(KeyDsl, RoundTripPaperKeys) {
  KeySet sigma1 = MakeSigma1();
  KeySet reparsed;
  ASSERT_TRUE(reparsed.AddFromDsl(ToDsl(sigma1)).ok())
      << ToDsl(sigma1);
  ASSERT_EQ(reparsed.count(), sigma1.count());
  for (size_t i = 0; i < sigma1.count(); ++i) {
    EXPECT_EQ(reparsed.key(i).name(), sigma1.key(i).name());
    EXPECT_EQ(reparsed.key(i).type(), sigma1.key(i).type());
    EXPECT_EQ(reparsed.key(i).size(), sigma1.key(i).size());
    EXPECT_EQ(reparsed.key(i).radius(), sigma1.key(i).radius());
    EXPECT_EQ(reparsed.key(i).recursive(), sigma1.key(i).recursive());
  }
}

TEST(KeyDsl, RoundTripWildcardsAndConstants) {
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key Q4 for company {
      x -[name_of]-> n*
      _p:company -[name_of]-> n*
      _p -[parent_of]-> x
      y:company -[parent_of]-> x
    }
    key Q6 for street {
      x -[zip_code]-> code*
      x -[nation_of]-> "UK"
    }
  )").ok());
  KeySet reparsed;
  ASSERT_TRUE(reparsed.AddFromDsl(ToDsl(keys)).ok()) << ToDsl(keys);
  EXPECT_EQ(reparsed.count(), 2u);
  // Semantics preserved: the reparsed keys behave identically on G2.
  auto c = MakeG2();
  KeySet sigma2_orig = MakeSigma2();
  MatchResult a = Chase(c.g, sigma2_orig);
  KeySet sigma2_rt;
  ASSERT_TRUE(sigma2_rt.AddFromDsl(ToDsl(sigma2_orig)).ok());
  MatchResult b = Chase(c.g, sigma2_rt);
  EXPECT_EQ(a.pairs, b.pairs);
}

TEST(KeyDsl, RoundTripBuilderWildcardWithoutUnderscore) {
  Pattern p;
  int x = p.AddDesignated("t");
  int w = p.AddWildcard("w", "aux");  // no underscore in the name
  int v = p.AddValueVar("v");
  ASSERT_TRUE(p.AddTriple(w, "owns", x).ok());
  ASSERT_TRUE(p.AddTriple(x, "tag", v).ok());
  ASSERT_TRUE(p.Validate().ok());
  Key key("K", std::move(p));
  KeySet reparsed;
  ASSERT_TRUE(reparsed.AddFromDsl(ToDsl(key)).ok()) << ToDsl(key);
  // Still a wildcard after the round trip.
  int wildcards = 0;
  for (const auto& n : reparsed.key(0).pattern().nodes()) {
    wildcards += (n.kind == VarKind::kWildcard);
  }
  EXPECT_EQ(wildcards, 1);
}

TEST(KeyDsl, RoundTripGeneratedKeySets) {
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 3;
  cfg.radius = 2;
  cfg.entities_per_type = 10;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  KeySet reparsed;
  ASSERT_TRUE(reparsed.AddFromDsl(ToDsl(ds.keys)).ok());
  EXPECT_EQ(Chase(ds.graph, reparsed).pairs, ds.planted);
}

}  // namespace
}  // namespace gkeys
