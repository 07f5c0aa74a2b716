// Knowledge fusion: deduplicate a DBpedia-like knowledge base with the
// paper's Fig. 1 + Fig. 7 keys, then report the fused entity classes per
// domain — the knowledge-fusion application sketched in the paper's
// introduction [15, 16].
//
// Run:   ./build/examples/knowledge_fusion [scale]

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/entity_matcher.h"
#include "core/provenance.h"
#include "gen/datasets.h"
#include "graph/merge.h"

using namespace gkeys;

int main(int argc, char** argv) {
  DBpediaSimConfig cfg;
  cfg.scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  SyntheticDataset ds = GenerateDBpediaSim(cfg);
  const Graph& g = ds.graph;

  std::printf("knowledge base: %zu entities, %zu values, %zu triples\n",
              g.NumEntities(), g.NumValues(), g.NumTriples());
  std::printf("key set: %zu keys over %zu entity types, c=%d, d=%d\n\n",
              ds.keys.count(), ds.keys.KeyedTypes().size(),
              ds.keys.LongestDependencyChain(), ds.keys.MaxRadius());

  // Compile once, then stream: pairs are reported the moment the fixpoint
  // confirms them, with per-round progress — the shape a deduplication
  // service wants (start fusing early, show a progress bar, stay
  // cancellable).
  auto plan = Matcher::Compile(g, ds.keys);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  class ProgressSink : public MatchSink {
   public:
    void OnPair(NodeId, NodeId) override { ++streamed_; }
    void OnProgress(const EmStats& s) override {
      std::printf("  round %zu: %zu duplicate pair(s) so far\n", s.rounds,
                  s.confirmed);
    }
    size_t streamed() const { return streamed_; }

   private:
    size_t streamed_ = 0;
  };
  ProgressSink sink;
  std::printf("matching (streaming):\n");
  auto run = Matcher(Algorithm::kEmOptVc).processors(4).Run(*plan, sink);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  MatchResult r = *std::move(run);
  std::printf("  streamed %zu pair(s), each exactly once\n\n",
              sink.streamed());

  // Fuse: contract every identified class into one entity. A class is
  // the nodes sharing a fused id; fused ids follow each class's smallest
  // member, so the classes come out in that order, members ascending.
  FusionResult fused = FuseEntities(g, r.pairs);
  std::vector<std::vector<NodeId>> by_fused_id(fused.graph.NumNodes());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    by_fused_id[fused.node_map[n]].push_back(n);
  }
  std::vector<std::vector<NodeId>> class_list;
  for (auto& members : by_fused_id) {
    if (members.size() >= 2) class_list.push_back(std::move(members));
  }
  std::map<std::string, int> fused_by_type;
  for (const auto& cls : class_list) {
    fused_by_type[g.interner().Resolve(g.entity_type(cls[0]))]++;
  }

  std::printf("found %zu duplicate pairs -> fusion classes by type:\n",
              r.pairs.size());
  for (const auto& [type, count] : fused_by_type) {
    std::printf("  %-10s %d class(es)\n", type.c_str(), count);
  }

  // Show one concrete fused entity with its merged facts.
  if (!class_list.empty()) {
    const auto& cls = class_list.front();
    std::printf("\nexample fusion class:\n");
    for (NodeId e : cls) {
      std::printf("  %s:", g.DescribeNode(e).c_str());
      for (const Edge& edge : g.Out(e)) {
        if (g.IsValue(edge.dst)) {
          std::printf(" %s=%s", g.interner().Resolve(edge.pred).c_str(),
                      g.value_str(edge.dst).c_str());
        }
      }
      std::printf("\n");
    }
  }

  std::printf("\nstats: |L|=%zu (of %zu raw), rounds=%zu, messages=%llu, "
              "%.1f ms\n",
              r.stats.candidates, r.stats.candidates_initial,
              r.stats.rounds,
              static_cast<unsigned long long>(r.stats.messages),
              r.stats.run_seconds * 1e3);

  // Why were these entities identified? Show the derivation of the first
  // few chase steps (proof-graph provenance).
  ProvenanceResult prov = ChaseWithProvenance(g, ds.keys);
  std::printf("\nderivation (first 5 steps):\n");
  for (size_t i = 0; i < prov.steps.size() && i < 5; ++i) {
    std::printf("  %s\n", FormatChaseStep(g, prov.steps[i]).c_str());
  }

  std::printf("\nfused knowledge base: %zu -> %zu entities "
              "(%zu duplicates eliminated), %zu -> %zu triples\n",
              g.NumEntities(), fused.graph.NumEntities(),
              fused.entities_fused, g.NumTriples(),
              fused.graph.NumTriples());
  std::printf("fused base satisfies the keys: %s\n",
              Satisfies(fused.graph, ds.keys) ? "yes" : "no");
  return 0;
}
