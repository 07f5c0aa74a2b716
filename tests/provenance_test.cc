#include "core/provenance.h"


#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/matcher.h"
#include "eq/equivalence.h"
#include "gen/synthetic.h"
#include "graph/delta.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::MakeG1;
using testing::MakeG2;
using testing::MakeSigma1;
using testing::MakeSigma2;

/// Validates a derivation against the chase semantics: every premise of
/// every step must have been derivable (union of earlier steps' pairs and
/// node identity, transitively closed) when the step fired. False on a
/// dangling premise.
bool ValidateDerivation(const Graph& g, const std::vector<ChaseStep>& steps) {
  ConcurrentEquivalence derived(g.NumNodes());
  for (const ChaseStep& step : steps) {
    for (const auto& [a, b] : step.premises) {
      if (!derived.Same(a, b)) return false;  // dangling premise
    }
    derived.Union(step.e1, step.e2);
  }
  return true;
}

TEST(Provenance, RecordsMusicDerivation) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  ProvenanceResult pr = ChaseWithProvenance(m.g, sigma1);
  // Same result as the plain chase.
  EXPECT_EQ(pr.result.pairs, Chase(m.g, sigma1).pairs);
  ASSERT_EQ(pr.steps.size(), 2u);
  // Step 1: the albums by value-based Q2, no premises.
  EXPECT_EQ(pr.steps[0].e1, m.alb1);
  EXPECT_EQ(pr.steps[0].e2, m.alb2);
  EXPECT_EQ(pr.steps[0].key, "Q2");
  EXPECT_TRUE(pr.steps[0].premises.empty());
  // Step 2: the artists by recursive Q3, premised on the albums.
  EXPECT_EQ(pr.steps[1].e1, m.art1);
  EXPECT_EQ(pr.steps[1].e2, m.art2);
  EXPECT_EQ(pr.steps[1].key, "Q3");
  ASSERT_EQ(pr.steps[1].premises.size(), 1u);
  EXPECT_EQ(pr.steps[1].premises[0],
            (std::pair<NodeId, NodeId>{m.alb1, m.alb2}));
  EXPECT_GT(pr.steps[1].round, pr.steps[0].round);
}

TEST(Provenance, WildcardStepsHaveNoPremises) {
  auto c = MakeG2();
  KeySet sigma2 = MakeSigma2();
  ProvenanceResult pr = ChaseWithProvenance(c.g, sigma2);
  ASSERT_EQ(pr.steps.size(), 2u);
  for (const ChaseStep& step : pr.steps) {
    // Q4's entity variable binds the SHARED parent com3 and Q5's binds
    // the shared sibling: identity facts, never recorded as premises.
    EXPECT_TRUE(step.premises.empty()) << FormatChaseStep(c.g, step);
    EXPECT_EQ(step.round, 1u);
  }
}

TEST(Provenance, DerivationValidates) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  ProvenanceResult pr = ChaseWithProvenance(m.g, sigma1);
  EXPECT_TRUE(ValidateDerivation(m.g, pr.steps));
}

TEST(Provenance, TamperedDerivationRejected) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  ProvenanceResult pr = ChaseWithProvenance(m.g, sigma1);
  ASSERT_EQ(pr.steps.size(), 2u);
  // Reorder: the recursive step now fires before its premise exists.
  std::swap(pr.steps[0], pr.steps[1]);
  EXPECT_FALSE(ValidateDerivation(m.g, pr.steps));
}

TEST(Provenance, FormatIsReadable) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  ProvenanceResult pr = ChaseWithProvenance(m.g, sigma1);
  std::string s = FormatChaseStep(m.g, pr.steps[1]);
  EXPECT_NE(s.find("by Q3"), std::string::npos);
  EXPECT_NE(s.find("because"), std::string::npos);
}

TEST(Provenance, ChainDepthMatchesRounds) {
  // A c=4 fully chained workload: the proof of the level-0 pair must sit
  // 4 rounds deep with a premise chain down to the leaf.
  SyntheticConfig cfg;
  cfg.num_groups = 1;
  cfg.chain_length = 4;
  cfg.radius = 1;
  cfg.entities_per_type = 8;
  cfg.chained_fraction = 1.0;
  cfg.seed = 21;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  ProvenanceResult pr = ChaseWithProvenance(ds.graph, ds.keys);
  EXPECT_EQ(pr.result.pairs, ds.planted);
  EXPECT_TRUE(ValidateDerivation(ds.graph, pr.steps));
  // Proof depth: a step's depth is 1 + the max depth of its premises.
  // (The sequential chase may resolve a whole chain within one visiting
  // round, but the DERIVATION depth still reflects the c = 4 chain.)
  std::map<std::pair<NodeId, NodeId>, size_t> depth;
  size_t max_depth = 0;
  for (const ChaseStep& s : pr.steps) {
    size_t d = 1;
    for (const auto& prem : s.premises) {
      auto it = depth.find(prem);
      ASSERT_NE(it, depth.end()) << "premise must be an earlier step";
      d = std::max(d, it->second + 1);
    }
    NodeId a = std::min(s.e1, s.e2), b = std::max(s.e1, s.e2);
    depth[{a, b}] = d;
    max_depth = std::max(max_depth, d);
  }
  EXPECT_EQ(max_depth, 4u) << "proof depth must equal the chain length";
}

TEST(Provenance, StepCountBoundsConfirmedPairs) {
  // Direct identifications <= all pairs (transitivity adds the rest).
  SyntheticConfig cfg;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.entities_per_type = 12;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  ProvenanceResult pr = ChaseWithProvenance(ds.graph, ds.keys);
  EXPECT_LE(pr.steps.size(), pr.result.pairs.size());
  EXPECT_EQ(pr.result.pairs, ds.planted);
}

// ---- Retraction (the removal-delta seed, Matcher::Rematch) -----------

/// The music fixture's derivations via the plan API: exactly two —
/// (alb1, alb2) by value-based Q2, then (art1, art2) by recursive Q3
/// premised on the album pair.
MatchResult MusicResult(const testing::MusicGraph& m, const KeySet& keys) {
  auto plan = Matcher::Compile(m.g, keys,
                               PlanOptions::For(Algorithm::kNaiveChase, 1));
  EXPECT_TRUE(plan.ok());
  auto r = Matcher(Algorithm::kNaiveChase).Run(*plan);
  EXPECT_TRUE(r.ok());
  return *std::move(r);
}

TEST(Provenance, RetractionOnUntouchedGraphKeepsEverything) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = MusicResult(m, sigma1);
  ASSERT_EQ(r.derivations.size(), 2u);
  RetractionResult retr = RetractDerivations(m.g, r.derivations);
  EXPECT_EQ(retr.retracted, 0u);
  EXPECT_EQ(retr.surviving.size(), 2u);
  EXPECT_EQ(retr.seed_pairs, r.pairs);
}

TEST(Provenance, RetractionCascadesThroughPremises) {
  // Removing a triple the ALBUM witness realized invalidates the album
  // derivation directly — and the artist derivation transitively, since
  // its premise (alb1 == alb2) loses support. DRed over-deletes both.
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = MusicResult(m, sigma1);
  ASSERT_EQ(r.derivations.size(), 2u);
  EXPECT_EQ(r.derivations.premises[0].size(), 0u);  // Q2, value-based
  ASSERT_EQ(r.derivations.premises[1].size(), 1u);  // Q3's album premise
  EXPECT_EQ(r.derivations.premises[1][0],
            (std::pair<NodeId, NodeId>{m.alb1, m.alb2}));

  GraphDelta delta(m.g);
  ASSERT_TRUE(delta.RemoveTriple(m.alb1, "release_year",
                                 m.g.FindValue("1996"))
                  .ok());
  ASSERT_TRUE(m.g.Apply(delta).ok());

  RetractionResult retr = RetractDerivations(m.g, r.derivations);
  EXPECT_EQ(retr.retracted, 2u);
  EXPECT_TRUE(retr.surviving.empty());
  EXPECT_TRUE(retr.seed_pairs.empty());
}

TEST(Provenance, RetractionKeepsIndependentDerivations) {
  // Removing a triple only the ARTIST witness used retracts the artist
  // derivation; the album derivation survives and seeds the album pair.
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = MusicResult(m, sigma1);
  ASSERT_EQ(r.derivations.size(), 2u);

  GraphDelta delta(m.g);
  ASSERT_TRUE(delta.RemoveTriple(m.art1, "name_of",
                                 m.g.FindValue("The Beatles"))
                  .ok());
  ASSERT_TRUE(m.g.Apply(delta).ok());

  RetractionResult retr = RetractDerivations(m.g, r.derivations);
  EXPECT_EQ(retr.retracted, 1u);
  ASSERT_EQ(retr.surviving.size(), 1u);
  EXPECT_EQ(retr.surviving.heads[0].e1, std::min(m.alb1, m.alb2));
  EXPECT_EQ(retr.surviving.heads[0].e2, std::max(m.alb1, m.alb2));
  EXPECT_EQ(retr.seed_pairs, testing::Pairs({{m.alb1, m.alb2}}));
}

TEST(Provenance, RetractionDropsDanglingPremises) {
  // A hand-tampered index whose premise never appears must not survive:
  // the replay treats the unsupported premise as retracted. (The shipped
  // engines never record out of order — record-before-Union guarantees
  // it — so this pins the DRed safety net a future engine may lean on.)
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  MatchResult r = MusicResult(m, sigma1);
  ASSERT_EQ(r.derivations.size(), 2u);
  ProvenanceIndex tampered;
  tampered.Append(r.derivations, 1);  // premise first
  RetractionResult retr = RetractDerivations(m.g, tampered);
  EXPECT_EQ(retr.retracted, 1u);
  EXPECT_TRUE(retr.surviving.empty());
}

}  // namespace
}  // namespace gkeys
