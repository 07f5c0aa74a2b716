#include "core/provenance.h"

#include <unordered_map>

#include "common/timer.h"
#include "core/chase.h"
#include "isomorph/pairing.h"

namespace gkeys {

ProvenanceResult ChaseWithProvenance(const Graph& g, const KeySet& keys) {
  // Stamps every streamed pair with its round. A direct identification's
  // pair is new in the round that derived it, so its derivation's pair
  // carries the step's round.
  class RoundSink : public MatchSink {
   public:
    void OnPair(NodeId a, NodeId b) override {
      round_of[PackPair(a, b)] = rounds + 1;
    }
    void OnProgress(const EmStats& progress) override {
      rounds = progress.rounds;
    }
    std::unordered_map<uint64_t, size_t> round_of;
    size_t rounds = 0;
  };

  Timer prep_timer;
  const EmContext ctx(g, keys, PlanOptions{.use_pairing = false});
  const double prep_seconds = prep_timer.Seconds();
  RoundSink sink;
  // The sink never cancels and there is no budget, so the run cannot
  // fail.
  auto r = RunChase(ctx, EmOptions{}, &sink);
  ProvenanceResult out;
  if (!r.ok()) return out;
  out.result = *std::move(r);
  out.result.stats.prep_seconds = prep_seconds;
  const ProvenanceIndex& index = out.result.derivations;
  for (size_t i = 0; i < index.size(); ++i) {
    const ProvenanceIndex::Head& d = index.heads[i];
    const auto premises = index.premises[i];
    out.steps.push_back(ChaseStep{d.e1, d.e2,
                                  ctx.compiled_keys()[d.key].key->name(),
                                  sink.round_of[PackPair(d.e1, d.e2)],
                                  {premises.begin(), premises.end()}});
  }
  return out;
}

std::string FormatChaseStep(const Graph& g, const ChaseStep& step) {
  std::string s = g.DescribeNode(step.e1) + " == " +
                  g.DescribeNode(step.e2) + "  by " + step.key +
                  "  [round " + std::to_string(step.round) + "]";
  if (!step.premises.empty()) {
    s += "  because";
    for (size_t i = 0; i < step.premises.size(); ++i) {
      s += (i == 0 ? " " : ", ");
      s += g.DescribeNode(step.premises[i].first) + " == " +
           g.DescribeNode(step.premises[i].second);
    }
  }
  return s;
}

RetractionResult RetractDerivations(const Graph& g,
                                    const ProvenanceIndex& derivations) {
  RetractionResult out;
  ConcurrentEquivalence replay(g.NumNodes());
  std::vector<std::pair<NodeId, NodeId>> merges;
  for (size_t i = 0; i < derivations.size(); ++i) {
    bool valid = true;
    for (const WitnessTriple& t : derivations.triples[i]) {
      if (!g.HasTriple(t.s, t.p, t.o)) {
        valid = false;
        break;
      }
    }
    if (valid) {
      for (const auto& [a, b] : derivations.premises[i]) {
        if (!replay.Same(a, b)) {
          valid = false;
          break;
        }
      }
    }
    if (!valid) {
      ++out.retracted;
      continue;
    }
    const ProvenanceIndex::Head& d = derivations.heads[i];
    if (replay.Union(d.e1, d.e2)) merges.emplace_back(d.e1, d.e2);
    out.surviving.Append(derivations, i);
  }
  out.seed_pairs = PairsOfMergedClasses(replay, merges);
  return out;
}

}  // namespace gkeys
