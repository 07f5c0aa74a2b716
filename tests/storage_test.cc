// Persistence subsystem tests: MmapStore contract, snapshot round-trips
// (Save → Load must reproduce the graph, plan, and result so exactly that
// re-running or resuming from the loaded state is byte-identical to the
// in-memory run), restart-resume chains over random delta streams, and
// negative paths — corrupted, truncated, and version-mismatched files
// must surface Status errors, never crash (the sanitize CI job runs
// these under ASan/UBSan).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/endian.h"
#include "common/rng.h"
#include "core/ingest_pipeline.h"
#include "core/matcher.h"
#include "core/product_graph.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "graph/delta.h"
#include "io/fast_triples.h"
#include "isomorph/pairing.h"
#include "storage/mmap_store.h"
#include "storage/plan_codec.h"
#include "storage/snapshot.h"
#include "dependency_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

using storage::MmapStore;
using storage::PlanCodec;
using storage::Snapshot;
using storage::Store;

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm> algos = {
      Algorithm::kNaiveChase, Algorithm::kEmMr,  Algorithm::kEmVf2Mr,
      Algorithm::kEmOptMr,    Algorithm::kEmVc,  Algorithm::kEmOptVc};
  return algos;
}

using testing::TempPath;

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---- MmapStore contract ----------------------------------------------

TEST(MmapStore, PutFlushOpenGetRoundTrip) {
  std::string path = TempPath("kv_roundtrip");
  auto store = MmapStore::Create(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // Inserted out of key order on purpose: Flush must write sorted.
  ASSERT_TRUE((*store)->Put("zeta", "last").ok());
  ASSERT_TRUE((*store)->Put("alpha", "first").ok());
  ASSERT_TRUE((*store)->Put("m", std::string(100000, 'x')).ok());
  ASSERT_TRUE((*store)->Put("alpha2", "").ok());
  ASSERT_TRUE((*store)->Flush().ok());

  auto reopened = MmapStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto get = (*reopened)->Get("alpha");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(*get, "first");
  get = (*reopened)->Get("m");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->size(), 100000u);
  EXPECT_EQ((*reopened)->Get("missing").status().code(),
            StatusCode::kNotFound);

  // Scan: ascending order, prefix-filtered.
  std::vector<std::string> keys;
  ASSERT_TRUE((*reopened)
                  ->Scan("",
                         [&](std::string_view k, std::string_view) {
                           keys.emplace_back(k);
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(keys,
            (std::vector<std::string>{"alpha", "alpha2", "m", "zeta"}));
  keys.clear();
  ASSERT_TRUE((*reopened)
                  ->Scan("alpha",
                         [&](std::string_view k, std::string_view) {
                           keys.emplace_back(k);
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"alpha", "alpha2"}));
}

TEST(MmapStore, GetAndScanServeStagedWritesBeforeFlush) {
  auto store = MmapStore::Create(TempPath("kv_staged"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("b", "2").ok());
  ASSERT_TRUE((*store)->Put("a", "1").ok());
  auto get = (*store)->Get("a");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(*get, "1");
  std::vector<std::string> keys;
  ASSERT_TRUE((*store)
                  ->Scan("",
                         [&](std::string_view k, std::string_view) {
                           keys.emplace_back(k);
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

TEST(MmapStore, PutAfterFlushIsFailedPrecondition) {
  auto store = MmapStore::Create(TempPath("kv_sealed"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->Put("k2", "v2").code(),
            StatusCode::kFailedPrecondition);
}

TEST(MmapStore, OpenMissingFileIsIoError) {
  auto store = MmapStore::Open(TempPath("does_not_exist"));
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIoError);
}

TEST(MmapStore, ScanCallbackErrorAbortsScan) {
  auto store = MmapStore::Create(TempPath("kv_abort"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", "1").ok());
  ASSERT_TRUE((*store)->Put("b", "2").ok());
  int seen = 0;
  Status st = (*store)->Scan("", [&](std::string_view, std::string_view) {
    ++seen;
    return Status::Cancelled("stop");
  });
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(seen, 1);
}

// ---- Snapshot round-trips --------------------------------------------

struct Session {
  std::unique_ptr<Graph> graph;    // stable address for the plan
  std::unique_ptr<KeySet> keys;
  MatchPlan plan;
  MatchResult result;
};

Session CompileAndRun(Graph g, KeySet keys, Algorithm algo,
                      int processors = 2) {
  Session s;
  s.graph = std::make_unique<Graph>(std::move(g));
  s.keys = std::make_unique<KeySet>(std::move(keys));
  auto plan = Matcher::Compile(*s.graph, *s.keys,
                               PlanOptions::For(algo, processors));
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  s.plan = *std::move(plan);
  auto run = Matcher(algo).processors(processors).Run(s.plan);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  s.result = *std::move(run);
  return s;
}

std::string SaveToFile(const Session& s, Algorithm algo,
                       const std::string& name) {
  std::string path = TempPath(name);
  auto store = MmapStore::Create(path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  Status st = Snapshot::Save(**store, *s.graph, *s.keys, s.plan, s.result,
                             algo);
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = (*store)->Flush();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

using CanonDerivation =
    std::tuple<NodeId, NodeId, int,
               std::vector<std::pair<NodeId, NodeId>>,
               std::vector<std::tuple<NodeId, Symbol, NodeId>>>;

/// Derivation EMISSION order after a rematch depends on plan internals
/// (dirty-candidate order, dependent traversal) that legitimately differ
/// between a freshly decoded plan and an in-memory patched one — compare
/// provenance as a canonical multiset instead.
std::vector<CanonDerivation> Canon(const ProvenanceIndex& ds) {
  std::vector<CanonDerivation> out;
  out.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    const ProvenanceIndex::Head& d = ds.heads[i];
    std::vector<std::tuple<NodeId, Symbol, NodeId>> triples;
    triples.reserve(ds.triples[i].size());
    for (const WitnessTriple& t : ds.triples[i]) {
      triples.emplace_back(t.s, t.p, t.o);
    }
    std::sort(triples.begin(), triples.end());
    std::vector<std::pair<NodeId, NodeId>> premises(ds.premises[i].begin(),
                                                    ds.premises[i].end());
    std::sort(premises.begin(), premises.end());
    out.emplace_back(d.e1, d.e2, d.key, std::move(premises),
                     std::move(triples));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectEquivalentDerivations(const ProvenanceIndex& a,
                                 const ProvenanceIndex& b) {
  EXPECT_EQ(Canon(a), Canon(b));
}

void ExpectRoundTrip(Graph g, KeySet keys, Algorithm algo,
                     const std::string& name) {
  SCOPED_TRACE("algo=" + AlgorithmName(algo) + " dataset=" + name);
  Session s = CompileAndRun(std::move(g), std::move(keys), algo);
  std::string path =
      SaveToFile(s, algo, name + "_" + AlgorithmName(algo));

  auto store = MmapStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto snap = Snapshot::Load(**store);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // The graph replays byte-identically (same serialization).
  EXPECT_EQ(SerializeGraph(snap->graph()), SerializeGraph(*s.graph));
  EXPECT_EQ(ToDsl(snap->keys()), ToDsl(*s.keys));
  EXPECT_EQ(snap->algorithm(), algo);

  // The stored result restores exactly, provenance index included.
  EXPECT_EQ(snap->result().pairs, s.result.pairs);
  EXPECT_EQ(snap->result().derivations.size(), s.result.derivations.size());
  EXPECT_TRUE(snap->result().derivations == s.result.derivations);

  // The restored plan is structurally equivalent...
  EXPECT_EQ(snap->plan().num_candidates(), s.plan.num_candidates());
  EXPECT_EQ(snap->plan().has_product_graph(), s.plan.has_product_graph());
  if (s.plan.has_product_graph()) {
    EXPECT_EQ(snap->plan().product_graph().NumNodes(),
              s.plan.product_graph().NumNodes());
    EXPECT_EQ(snap->plan().product_graph().NumEdges(),
              s.plan.product_graph().NumEdges());
  }
  // ...and runnable: re-running it reproduces the pairs exactly.
  auto rerun = Matcher(algo).processors(2).Run(snap->plan());
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->pairs, s.result.pairs);
}

TEST(SnapshotRoundTrip, MusicGraphAllAlgorithms) {
  for (Algorithm algo : AllAlgorithms()) {
    ExpectRoundTrip(testing::MakeG1().g, testing::MakeSigma1(), algo,
                    "music");
  }
}

TEST(SnapshotRoundTrip, CompanyGraphAllAlgorithms) {
  for (Algorithm algo : AllAlgorithms()) {
    ExpectRoundTrip(testing::MakeG2().g, testing::MakeSigma2(), algo,
                    "company");
  }
}

TEST(SnapshotRoundTrip, SyntheticAllAlgorithms) {
  SyntheticConfig cfg;
  cfg.seed = 11;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.radius = 2;
  cfg.entities_per_type = 14;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  for (Algorithm algo : AllAlgorithms()) {
    ExpectRoundTrip(ds.graph, ds.keys, algo, "synthetic");
  }
}

TEST(SnapshotRoundTrip, EntityNameTableRidesAlong) {
  auto loaded = FastDeserializeGraphWithNames(
      "ent:t:a p val:\"1\"\nent:t:b p val:\"1\"\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl("key k for t { x -[p]-> v* }").ok());
  Algorithm algo = Algorithm::kEmOptVc;
  Session s =
      CompileAndRun(std::move(loaded->graph), std::move(keys), algo);

  std::string path = TempPath("names");
  auto store = MmapStore::Create(path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(Snapshot::Save(**store, *s.graph, *s.keys, s.plan, s.result,
                             algo, &loaded->entities)
                  .ok());
  ASSERT_TRUE((*store)->Flush().ok());

  auto reopened = MmapStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  auto snap = Snapshot::Load(**reopened);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->entity_names(), loaded->entities);

  // The table lets delta files parse against the restored session.
  auto delta = FastParseDelta("+ ent:t:a q val:\"2\"\n", snap->graph(),
                              snap->entity_names());
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->num_added_triples(), 1u);
}

/// Saves a session with its entity-name table and returns the file bytes.
std::string SaveBytes(const Graph& g, const KeySet& keys,
                      const MatchPlan& plan, const MatchResult& result,
                      Algorithm algo,
                      const std::unordered_map<std::string, NodeId>& names,
                      const std::string& name) {
  std::string path = TempPath(name);
  auto store = MmapStore::Create(path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  Status st = Snapshot::Save(**store, g, keys, plan, result, algo, &names);
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = (*store)->Flush();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Slurp(path);
}

void ExpectSameBytes(const std::string& got, const std::string& want) {
  EXPECT_EQ(got.size(), want.size());
  size_t same = std::mismatch(got.begin(), got.end(), want.begin(),
                              want.end()).first - got.begin();
  EXPECT_EQ(same, std::max(got.size(), want.size()))
      << "first differing byte at offset " << same;
}

/// The dependency index of two plans over the same candidate list.
void ExpectSameDependencyIndex(const EmContext& got, const EmContext& want) {
  ASSERT_EQ(got.candidates().size(), want.candidates().size());
  for (uint32_t i = 0; i < want.candidates().size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(got.dependents(i), want.dependents(i)))
        << "dependents of candidate " << i;
  }
  ASSERT_EQ(got.ghosts().size(), want.ghosts().size());
  for (uint32_t g = 0; g < want.ghosts().size(); ++g) {
    EXPECT_EQ(got.ghosts()[g].e1, want.ghosts()[g].e1) << "ghost " << g;
    EXPECT_EQ(got.ghosts()[g].e2, want.ghosts()[g].e2) << "ghost " << g;
    ASSERT_TRUE(std::ranges::equal(got.ghost_dependents(g),
                                   want.ghost_dependents(g)))
        << "dependents of ghost " << g;
  }
}

/// Per candidate pair, the pairs it depends on: the candidates and the
/// ghosts whose dependents list it. This is the candidate's dependency
/// scan minus its own pair, keyed by pairs rather than indices, so plans
/// whose candidate lists differ can be compared.
std::map<uint64_t, std::vector<uint64_t>> DependsOn(const EmContext& ctx) {
  std::map<uint64_t, std::vector<uint64_t>> out;
  const std::vector<Candidate>& cands = ctx.candidates();
  auto pair = [&](uint32_t i) { return PackPair(cands[i].e1, cands[i].e2); };
  for (uint32_t i = 0; i < cands.size(); ++i) {
    out[pair(i)];
    for (uint32_t j : ctx.dependents(i)) out[pair(j)].push_back(pair(i));
  }
  for (uint32_t g = 0; g < ctx.ghosts().size(); ++g) {
    const uint64_t ghost = PackPair(ctx.ghosts()[g].e1, ctx.ghosts()[g].e2);
    for (uint32_t j : ctx.ghost_dependents(g)) out[pair(j)].push_back(ghost);
  }
  for (auto& [c, deps] : out) std::sort(deps.begin(), deps.end());
  return out;
}

/// A plan patched at p = 4 through a churn chain assembles its dependency
/// index from carried ranges and fresh scans, and edits the carried
/// inversion. Its dependents and ghosts must equal the whole-L inversion
/// of the scans (tests/dependency_reference.h). Saving it, loading the
/// file and saving again must give the same bytes, and the loaded plan
/// must index the same dependents and ghosts. Every candidate the
/// patched plan shares with a fresh serial compile of the same graph must
/// depend on the same pairs (a carried scan is copied, a recompiled one
/// may come from a worker thread). The re-add delta recompiles enough
/// recursive-key candidates (>= 256) for the parallel dependency scan to
/// run.
void ExpectPatchedPlansSaveIdentically(const SyntheticDataset& ds) {
  for (Algorithm algo : {Algorithm::kEmOptVc, Algorithm::kEmOptMr}) {
    SCOPED_TRACE(AlgorithmName(algo));
    auto loaded = FastDeserializeGraphWithNames(SerializeGraph(ds.graph));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const std::unordered_map<std::string, NodeId> names = loaded->entities;
    Session s =
        CompileAndRun(std::move(loaded->graph), ds.keys, algo, /*p=*/4);
    Matcher matcher(algo);
    matcher.processors(4);
    std::vector<Triple> all;
    s.graph->ForEachTriple([&](const Triple& t) { all.push_back(t); });
    Rng rng(5);
    std::vector<size_t> picks;
    for (int i = 0; i < 400; ++i) picks.push_back(rng.Below(all.size()));
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    // Per delta, (triples added, triples removed) as indices into `all`:
    // remove the picks, re-add them all at once, then churn a few.
    const std::vector<size_t> few(picks.begin(), picks.begin() + 8);
    const std::vector<size_t> other(picks.begin() + 8, picks.begin() + 12);
    const std::vector<std::pair<std::vector<size_t>, std::vector<size_t>>>
        chain = {{{}, picks}, {picks, {}}, {{}, few}, {few, other}};
    size_t most_recompiled = 0;
    for (size_t step = 0; step < chain.size(); ++step) {
      SCOPED_TRACE("delta " + std::to_string(step));
      GraphDelta delta(*s.graph);
      for (size_t i : chain[step].first) {
        ASSERT_TRUE(delta.AddTriple(all[i].subject,
                                    s.graph->interner().Resolve(all[i].pred),
                                    all[i].object)
                        .ok());
      }
      for (size_t i : chain[step].second) {
        ASSERT_TRUE(
            delta.RemoveTriple(all[i].subject,
                               s.graph->interner().Resolve(all[i].pred),
                               all[i].object)
                .ok());
      }
      ASSERT_TRUE(s.graph->Apply(delta).ok());
      auto patched = s.plan.Patch(delta);
      ASSERT_TRUE(patched.ok()) << patched.status().ToString();
      auto rematched = matcher.Rematch(*patched, s.result, delta);
      ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
      s.plan = *std::move(patched);
      s.result = *std::move(rematched);
      size_t recompiled = 0;
      for (uint32_t i : s.plan.dirty_candidates()) {
        recompiled += s.plan.context().candidates()[i].has_recursive_key;
      }
      most_recompiled = std::max(most_recompiled, recompiled);

      const std::string first = SaveBytes(*s.graph, *s.keys, s.plan,
                                          s.result, algo, names,
                                          "patched_first");
      auto store = MmapStore::Open(TempPath("patched_first"));
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto snap = Snapshot::Load(**store);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      ExpectSameBytes(SaveBytes(snap->graph(), snap->keys(), snap->plan(),
                                snap->result(), algo, snap->entity_names(),
                                "patched_loaded"),
                      first);
      ExpectSameDependencyIndex(snap->plan().context(), s.plan.context());
      ASSERT_NO_FATAL_FAILURE(
          testing::ExpectDependencyIndexMatchesReference(s.plan.context()));

      auto fresh = Matcher::Compile(*s.graph, *s.keys,
                                    PlanOptions::For(algo, 1));
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      const auto want = DependsOn(fresh->context());
      size_t shared = 0;
      for (const auto& [c, deps] : DependsOn(s.plan.context())) {
        auto it = want.find(c);
        if (it == want.end()) continue;
        ++shared;
        ASSERT_EQ(deps, it->second) << "candidate pair " << c;
      }
      EXPECT_GT(shared, 0u);
    }
    EXPECT_GE(most_recompiled, 256u);
  }
}

TEST(DependencyIndex, ACarriedRowDropsADependentThatLeftL) {
  // Album pairs are keyed through their artist and their producer's
  // value (radius 2), artist pairs through their albums (radius 1).
  // Removing one producer value makes the album pair unpairable, so it
  // leaves L and becomes a ghost, while the artist pair its scan named
  // is two hops past the change and carried. That carried row must lose
  // its only dependent, though no dirty candidate's scan names it.
  Graph g;
  const NodeId art_a = g.AddEntity("artist");
  const NodeId art_b = g.AddEntity("artist");
  const NodeId alb_a = g.AddEntity("album");
  const NodeId alb_b = g.AddEntity("album");
  const NodeId prod_a = g.AddEntity("producer");
  const NodeId prod_b = g.AddEntity("producer");
  const NodeId name = g.AddValue("Beatles");
  const NodeId label = g.AddValue("EMI");
  for (const auto& [s, p, o] :
       {std::tuple(art_a, "name_of", name), std::tuple(art_b, "name_of", name),
        std::tuple(alb_a, "recorded_by", art_a),
        std::tuple(alb_b, "recorded_by", art_b),
        std::tuple(alb_a, "produced_by", prod_a),
        std::tuple(alb_b, "produced_by", prod_b),
        std::tuple(prod_a, "label", label),
        std::tuple(prod_b, "label", label)}) {
    ASSERT_TRUE(g.AddTriple(s, p, o).ok());
  }
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key QA for album {
      x -[recorded_by]-> y:artist
      x -[produced_by]-> z:producer
      z -[label]-> l*
    }
    key QR for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
    key QP for producer {
      x -[label]-> l*
    }
  )").ok());
  for (Algorithm algo : {Algorithm::kEmOptVc, Algorithm::kEmOptMr}) {
    SCOPED_TRACE(AlgorithmName(algo));
    Graph graph = g;
    auto plan = Matcher::Compile(graph, keys, PlanOptions::For(algo, 1));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto has_pair = [](const MatchPlan& p, NodeId a, NodeId b) {
      for (const Candidate& c : p.context().candidates()) {
        if (c.e1 == a && c.e2 == b) return true;
      }
      return false;
    };
    ASSERT_TRUE(has_pair(*plan, alb_a, alb_b));
    ASSERT_TRUE(has_pair(*plan, art_a, art_b));
    ASSERT_NO_FATAL_FAILURE(
        testing::ExpectDependencyIndexMatchesReference(plan->context()));
    auto base = Matcher(algo).Run(*plan);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    GraphDelta delta(graph);
    ASSERT_TRUE(delta.RemoveTriple(prod_a, "label", label).ok());
    ASSERT_TRUE(graph.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    EXPECT_FALSE(has_pair(*patched, alb_a, alb_b));
    ASSERT_TRUE(has_pair(*patched, art_a, art_b));
    ASSERT_NO_FATAL_FAILURE(
        testing::ExpectDependencyIndexMatchesReference(patched->context()));
    auto rematched = Matcher(algo).Rematch(*patched, *base, delta);
    ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
    auto fresh = Matcher::Compile(graph, keys, PlanOptions::For(algo, 1));
    ASSERT_TRUE(fresh.ok());
    auto want = Matcher(algo).Run(*fresh);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(rematched->pairs, want->pairs);
  }
}

TEST(DependencyIndex, ARebuiltTypeIndexRecompilesItsType) {
  // QU's "UK" constant does not resolve before the delta, so the street
  // type's signature index holds QZ alone. The delta adds "UK" near one
  // street pair: the index is rebuilt, and every street is affected, so
  // the type recompiles as a compile would: each street candidate is
  // dirty, none is carried, and L is what a compile makes. The clean
  // shop pairs keyed through the streets stay carried and must keep
  // their dependencies.
  Graph g;
  std::vector<NodeId> streets, shops;
  for (int i = 0; i < 6; ++i) streets.push_back(g.AddEntity("street"));
  for (int i = 0; i < 6; ++i) shops.push_back(g.AddEntity("shop"));
  const NodeId us = g.AddValue("US");
  for (int i = 0; i < 6; ++i) {
    const NodeId zip = g.AddValue("Z" + std::to_string(i / 2));
    const NodeId name = g.AddValue("Shop " + std::to_string(i / 2));
    ASSERT_TRUE(g.AddTriple(streets[i], "zip_code", zip).ok());
    ASSERT_TRUE(g.AddTriple(streets[i], "nation_of", us).ok());
    ASSERT_TRUE(g.AddTriple(shops[i], "located_on", streets[i]).ok());
    ASSERT_TRUE(g.AddTriple(shops[i], "name_of", name).ok());
  }
  g.Finalize();
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key QZ for street {
      x -[zip_code]-> c*
    }
    key QU for street {
      x -[zip_code]-> c*
      x -[nation_of]-> "UK"
    }
    key QS for shop {
      x -[located_on]-> y:street
      x -[name_of]-> n*
    }
  )").ok());
  auto pairs_of = [](const EmContext& ctx) {
    std::vector<std::pair<NodeId, NodeId>> out;
    for (const Candidate& c : ctx.candidates()) out.emplace_back(c.e1, c.e2);
    return out;
  };
  for (Algorithm algo : {Algorithm::kEmMr, Algorithm::kEmOptMr,
                         Algorithm::kEmVc, Algorithm::kEmOptVc}) {
    SCOPED_TRACE(AlgorithmName(algo));
    Session s = CompileAndRun(g, keys, algo, /*p=*/1);
    ASSERT_EQ(pairs_of(s.plan.context()).size(), 6u);
    GraphDelta delta(*s.graph);
    ASSERT_TRUE(
        delta.AddTriple(streets[4], "nation_of", delta.AddValue("UK")).ok());
    ASSERT_TRUE(s.graph->Apply(delta).ok());
    auto patched = s.plan.Patch(delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    ASSERT_NE(patched->patch_info(), nullptr);
    const ContextPatchInfo& info = *patched->patch_info();
    size_t carried = 0;
    for (int64_t to : info.candidate_reuse) carried += to >= 0;
    EXPECT_GE(carried, 2u);  // the two clean shop pairs at least
    for (NodeId street : streets) {
      EXPECT_TRUE(std::binary_search(info.affected_entities.begin(),
                                     info.affected_entities.end(), street))
          << street;
    }
    const std::vector<Candidate>& cands = patched->context().candidates();
    const auto dirty = patched->dirty_candidates();
    const Symbol street_type = s.graph->entity_type(streets[0]);
    for (uint32_t i = 0; i < cands.size(); ++i) {
      if (s.graph->entity_type(cands[i].e1) != street_type) continue;
      EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(), i)) << i;
    }
    const std::vector<Candidate>& before = s.plan.context().candidates();
    for (size_t k : {0, 2}) {
      const auto at = std::find_if(before.begin(), before.end(), [&](auto& c) {
        return c.e1 == shops[k] && c.e2 == shops[k + 1];
      });
      ASSERT_NE(at, before.end()) << k;
      const int64_t to = info.candidate_reuse[at - before.begin()];
      ASSERT_GE(to, 0) << k;
      EXPECT_EQ(cands[to].e1, shops[k]);
      EXPECT_EQ(cands[to].e2, shops[k + 1]);
    }
    const auto got = pairs_of(patched->context());
    EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                   std::greater_equal<>()) == got.end());
    auto fresh = Matcher::Compile(*s.graph, *s.keys, PlanOptions::For(algo, 1));
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(got, pairs_of(fresh->context()));
    ASSERT_NO_FATAL_FAILURE(
        testing::ExpectDependencyIndexMatchesReference(patched->context()));
    ASSERT_EQ(patched->has_product_graph(), fresh->has_product_graph());
    if (patched->has_product_graph()) {
      // Gp up to product-node ids: each node's pair with its labeled out-
      // and in-edges, and each candidate's node.
      using Labeled = std::vector<std::pair<Symbol, std::pair<NodeId, NodeId>>>;
      auto canon = [](const MatchPlan& plan) {
        const ProductGraph& pg = plan.product_graph();
        std::map<std::pair<NodeId, NodeId>, std::pair<Labeled, Labeled>> out;
        for (uint32_t v = 0; v < pg.NumNodes(); ++v) {
          auto& [o, in] = out[pg.pair(v)];
          for (const auto& e : pg.Out(v)) {
            o.emplace_back(e.pred, pg.pair(e.dst));
          }
          for (const auto& e : pg.In(v)) {
            in.emplace_back(e.pred, pg.pair(e.dst));
          }
          std::sort(o.begin(), o.end());
          std::sort(in.begin(), in.end());
        }
        std::vector<std::pair<NodeId, NodeId>> nodes;
        for (uint32_t i = 0; i < plan.num_candidates(); ++i) {
          const uint32_t v = pg.CandidateNode(i);
          nodes.push_back(v == kNoPNode ? std::pair(kNoNode, kNoNode)
                                        : pg.pair(v));
        }
        return std::pair(out, nodes);
      };
      EXPECT_TRUE(canon(*patched) == canon(*fresh));
    }

    auto rematched = Matcher(algo).Rematch(*patched, s.result, delta);
    ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
    auto want = Matcher(algo).Run(*fresh);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(rematched->pairs, want->pairs);
    const std::unordered_map<std::string, NodeId> no_names;
    const std::string first = SaveBytes(*s.graph, *s.keys, *patched,
                                        *rematched, algo, no_names,
                                        "rebuilt_first");
    auto store = MmapStore::Open(TempPath("rebuilt_first"));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto snap = Snapshot::Load(**store);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ExpectSameBytes(SaveBytes(snap->graph(), snap->keys(), snap->plan(),
                              snap->result(), algo, snap->entity_names(),
                              "rebuilt_loaded"),
                    first);
    ExpectSameDependencyIndex(snap->plan().context(), patched->context());
  }
}

TEST(SnapshotRoundTrip, SavesAreByteIdentical) {
  // A snapshot's bytes depend on the session alone: not on the order the
  // entity-name map was filled in, and not on whether the plan was
  // compiled, patched or loaded. This pins the write order of every
  // table.
  DBpediaSimConfig cfg;
  cfg.scale = 10;
  SyntheticDataset ds = GenerateDBpediaSim(cfg);
  for (Algorithm algo :
       {Algorithm::kEmOptVc, Algorithm::kEmOptMr, Algorithm::kEmVc}) {
    SCOPED_TRACE(AlgorithmName(algo));
    auto loaded = FastDeserializeGraphWithNames(SerializeGraph(ds.graph));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Session s = CompileAndRun(std::move(loaded->graph), ds.keys, algo);
    const std::unordered_map<std::string, NodeId>& names = loaded->entities;
    ASSERT_FALSE(names.empty());
    std::vector<std::pair<std::string, NodeId>> entries(names.begin(),
                                                        names.end());
    std::unordered_map<std::string, NodeId> reversed;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      reversed.insert(*it);
    }

    const std::string first = SaveBytes(*s.graph, *s.keys, s.plan, s.result,
                                        algo, names, "identical_first");
    ExpectSameBytes(SaveBytes(*s.graph, *s.keys, s.plan, s.result, algo,
                              reversed, "identical_reversed"),
                    first);

    auto store = MmapStore::Open(TempPath("identical_first"));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto snap = Snapshot::Load(**store);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ExpectSameBytes(SaveBytes(snap->graph(), snap->keys(), snap->plan(),
                              snap->result(), algo, snap->entity_names(),
                              "identical_loaded"),
                    first);
  }
  ExpectPatchedPlansSaveIdentically(ds);
}

TEST(Snapshot, SaveRejectsForeignPlan) {
  Algorithm algo = Algorithm::kEmOptVc;
  Session s = CompileAndRun(testing::MakeG2().g, testing::MakeSigma2(),
                            algo);
  Graph other = testing::MakeG1().g;
  auto store = MmapStore::Create(TempPath("foreign"));
  ASSERT_TRUE(store.ok());
  Status st = Snapshot::Save(**store, other, *s.keys, s.plan, s.result,
                             algo);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// ---- Restart-resume over random delta streams ------------------------

struct DeltaOp {
  bool add;
  Triple t;
};

/// Stages `ops` against `g` (both graphs of a resume-equivalence pair
/// share NodeIds, so one op list drives both).
StatusOr<GraphDelta> StageOps(const Graph& g, const Graph& interner_src,
                              const std::vector<DeltaOp>& ops) {
  GraphDelta delta(g);
  for (const DeltaOp& op : ops) {
    const std::string& pred = interner_src.interner().Resolve(op.t.pred);
    Status st = op.add ? delta.AddTriple(op.t.subject, pred, op.t.object)
                       : delta.RemoveTriple(op.t.subject, pred, op.t.object);
    GKEYS_RETURN_IF_ERROR(st);
  }
  return delta;
}

/// The paper lifecycle vs. the restart lifecycle, chunk by chunk: the
/// in-memory chain applies each delta directly (Apply → Patch →
/// Rematch); the restart chain saves, reloads from disk in-between, and
/// commits the same ops as "pending deltas" onto the loaded session
/// (CommitDelta). Every chunk must agree exactly — that is the whole
/// point of the snapshot.
void RunResumeStream(uint64_t seed, Algorithm algo, size_t hold_out,
                     size_t chunks, size_t removals_per_chunk) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " algo=" + AlgorithmName(algo));
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.radius = 2;
  cfg.entities_per_type = 14;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  std::vector<Triple> all_triples;
  ds.graph.ForEachTriple(
      [&](const Triple& t) { all_triples.push_back(t); });

  Rng rng(seed * 7919 + 13);
  std::vector<uint8_t> keep(all_triples.size(), 1);
  std::vector<size_t> held;
  while (held.size() < hold_out) {
    size_t pick = rng.Below(all_triples.size());
    if (keep[pick]) {
      keep[pick] = 0;
      held.push_back(pick);
    }
  }

  // Base graph = full minus held (node-for-node rebuild, same ids).
  Graph base;
  for (NodeId n = 0; n < ds.graph.NumNodes(); ++n) {
    NodeId id =
        ds.graph.IsEntity(n)
            ? base.AddEntity(
                  ds.graph.interner().Resolve(ds.graph.entity_type(n)))
            : base.AddValue(ds.graph.value_str(n));
    ASSERT_EQ(id, n);
  }
  for (size_t i = 0; i < all_triples.size(); ++i) {
    if (!keep[i]) continue;
    const Triple& t = all_triples[i];
    ASSERT_TRUE(base.AddTriple(t.subject,
                               ds.graph.interner().Resolve(t.pred),
                               t.object)
                    .ok());
  }
  base.Finalize();

  Session mem = CompileAndRun(std::move(base), ds.keys, algo);
  Matcher matcher(algo);
  matcher.processors(2);
  std::string path = SaveToFile(mem, algo, "stream");

  std::vector<Triple> present;
  for (size_t i = 0; i < all_triples.size(); ++i) {
    if (keep[i]) present.push_back(all_triples[i]);
  }

  size_t next_held = 0;
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    std::vector<DeltaOp> ops;
    size_t additions = held.size() / chunks + 1;
    for (size_t i = 0; i < additions && next_held < held.size();
         ++i, ++next_held) {
      ops.push_back({true, all_triples[held[next_held]]});
      present.push_back(all_triples[held[next_held]]);
    }
    for (size_t i = 0; i < removals_per_chunk && !present.empty(); ++i) {
      size_t pick = rng.Below(present.size());
      ops.push_back({false, present[pick]});
      present.erase(present.begin() + pick);
    }
    if (ops.empty()) continue;

    // In-memory lifecycle.
    auto mem_delta = StageOps(*mem.graph, ds.graph, ops);
    ASSERT_TRUE(mem_delta.ok()) << mem_delta.status().ToString();
    ASSERT_TRUE(mem.graph->Apply(*mem_delta).ok());
    auto patched = mem.plan.Patch(*mem_delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    auto rematched = matcher.Rematch(*patched, mem.result, *mem_delta);
    ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
    mem.plan = *std::move(patched);
    mem.result = *std::move(rematched);

    // Restart lifecycle: reload from disk, commit the same ops as the
    // pending delta, save the advanced state for the next chunk.
    auto store = MmapStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto snap = Snapshot::Load(**store);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    auto snap_delta = StageOps(snap->graph(), ds.graph, ops);
    ASSERT_TRUE(snap_delta.ok()) << snap_delta.status().ToString();
    auto names = snap->entity_names();
    IngestStats stats;
    Status resumed =
        CommitDelta(matcher, snap->session(names), *snap_delta, stats);
    ASSERT_TRUE(resumed.ok()) << resumed.ToString();

    EXPECT_EQ(snap->result().pairs, mem.result.pairs);
    ExpectEquivalentDerivations(snap->result().derivations,
                                mem.result.derivations);

    path = TempPath("stream_chunk" + std::to_string(chunk));
    auto next = MmapStore::Create(path);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(Snapshot::Save(**next, snap->graph(), snap->keys(),
                               snap->plan(), snap->result(), algo)
                    .ok());
    ASSERT_TRUE((*next)->Flush().ok());
  }
}

TEST(SnapshotResume, AdditiveStreamsAllAlgorithms) {
  for (Algorithm algo : AllAlgorithms()) {
    RunResumeStream(/*seed=*/21, algo, /*hold_out=*/12, /*chunks=*/2,
                    /*removals_per_chunk=*/0);
  }
}

TEST(SnapshotResume, MixedStreamsAllAlgorithms) {
  for (Algorithm algo : AllAlgorithms()) {
    RunResumeStream(/*seed=*/22, algo, /*hold_out=*/8, /*chunks=*/2,
                    /*removals_per_chunk=*/4);
  }
}

// ---- COW dedup across a plan lineage ---------------------------------

TEST(Snapshot, PatchedPlanSharesSectionsInOneFile) {
  // A patched plan shares most NodeSets with its source; the snapshot's
  // content-deduplicated pools must not balloon relative to the
  // from-scratch snapshot of the same post-delta state.
  Algorithm algo = Algorithm::kEmOptVc;
  SyntheticConfig cfg;
  cfg.seed = 5;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.radius = 2;
  cfg.entities_per_type = 14;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  Session s = CompileAndRun(ds.graph, ds.keys, algo);

  // One small additive delta → patched plan (COW lineage of depth 1).
  Triple t{};
  bool found = false;
  s.graph->ForEachTriple([&](const Triple& tr) {
    if (!found) {
      t = tr;
      found = true;
    }
  });
  ASSERT_TRUE(found);
  GraphDelta delta(*s.graph);
  ASSERT_TRUE(delta.RemoveTriple(t.subject,
                                 s.graph->interner().Resolve(t.pred),
                                 t.object)
                  .ok());
  ASSERT_TRUE(s.graph->Apply(delta).ok());
  auto patched = s.plan.Patch(delta);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  auto rematched =
      Matcher(algo).processors(2).Rematch(*patched, s.result, delta);
  ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();

  auto store = MmapStore::Create(TempPath("lineage"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(Snapshot::Save(**store, *s.graph, *s.keys, *patched,
                             *rematched, algo)
                  .ok());
  ASSERT_TRUE((*store)->Flush().ok());
  uint64_t patched_bytes = (*store)->file_bytes();

  auto scratch_plan =
      Matcher::Compile(*s.graph, *s.keys, PlanOptions::For(algo, 2));
  ASSERT_TRUE(scratch_plan.ok());
  auto scratch_run = Matcher(algo).processors(2).Run(*scratch_plan);
  ASSERT_TRUE(scratch_run.ok());
  auto store2 = MmapStore::Create(TempPath("scratch"));
  ASSERT_TRUE(store2.ok());
  ASSERT_TRUE(Snapshot::Save(**store2, *s.graph, *s.keys, *scratch_plan,
                             *scratch_run, algo)
                  .ok());
  ASSERT_TRUE((*store2)->Flush().ok());
  uint64_t scratch_bytes = (*store2)->file_bytes();

  // Same post-delta semantics; dedup keeps the patched snapshot within
  // 25% of the from-scratch one (they differ in carried provenance and
  // relation sharing, not in wholesale duplication).
  EXPECT_EQ(rematched->pairs, scratch_run->pairs);
  EXPECT_LT(patched_bytes, scratch_bytes + scratch_bytes / 4);

  // And the patched snapshot loads back to the same answer.
  auto reopened = MmapStore::Open(TempPath("lineage"));
  ASSERT_TRUE(reopened.ok());
  auto snap = Snapshot::Load(**reopened);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto rerun = Matcher(algo).processors(2).Run(snap->plan());
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->pairs, scratch_run->pairs);
}

// ---- Negative paths: corruption must error, never crash --------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    Algorithm algo = Algorithm::kEmOptVc;
    session_ = CompileAndRun(testing::MakeG2().g, testing::MakeSigma2(),
                             algo);
    path_ = SaveToFile(session_, algo, "corruption_base");
    bytes_ = Slurp(path_);
    ASSERT_GT(bytes_.size(), 36u);
  }

  /// Opens + loads `bytes` written to a scratch file. Returns the first
  /// non-OK status, or OK if the whole pipeline succeeded.
  Status TryLoad(const std::string& bytes, const std::string& name) {
    std::string path = TempPath(name);
    Spit(path, bytes);
    auto store = MmapStore::Open(path);
    if (!store.ok()) return store.status();
    auto snap = Snapshot::Load(**store);
    if (!snap.ok()) return snap.status();
    return Status::OK();
  }

  Session session_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotCorruption, TruncationsAreParseErrors) {
  for (size_t size :
       {size_t{0}, size_t{1}, size_t{8}, size_t{35}, size_t{36},
        bytes_.size() / 2, bytes_.size() - 1}) {
    SCOPED_TRACE("size=" + std::to_string(size));
    Status st = TryLoad(bytes_.substr(0, size), "trunc");
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  }
}

TEST_F(SnapshotCorruption, BadMagicIsParseError) {
  std::string bad = bytes_;
  bad[0] = 'X';
  Status st = TryLoad(bad, "magic");
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
}

TEST_F(SnapshotCorruption, VersionMismatchIsParseErrorNamingVersions) {
  for (uint32_t version :
       {MmapStore::kFormatVersion + 1, MmapStore::kFormatVersion - 1}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    std::string bad = bytes_;
    std::string be32;
    PutBe32(be32, version);
    bad.replace(8, 4, be32);
    Status st = TryLoad(bad, "version");
    ASSERT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
    EXPECT_NE(st.message().find("format version " + std::to_string(version)),
              std::string::npos)
        << st.message();
  }
}

TEST_F(SnapshotCorruption, SingleByteFlipsNeverCrashAndNeverLie) {
  // Flip one byte at a stride of offsets covering header, data region,
  // and offset index. Every flip must either fail loading with a Status
  // (the checksum covers the data region; geometry and ordering checks
  // cover the rest) or — never — load "successfully" into a different
  // answer.
  for (size_t off = 0; off < bytes_.size();
       off += 1 + bytes_.size() / 101) {
    SCOPED_TRACE("offset=" + std::to_string(off));
    std::string bad = bytes_;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    std::string path = TempPath("flip");
    Spit(path, bad);
    auto store = MmapStore::Open(path);
    if (!store.ok()) continue;  // rejected at the file layer: fine
    auto snap = Snapshot::Load(**store);
    if (!snap.ok()) continue;  // rejected at the record layer: fine
    EXPECT_EQ(snap->result().pairs, session_.result.pairs)
        << "corrupted snapshot loaded into a different result";
  }
}

TEST_F(SnapshotCorruption, MissingRecordsAreParseErrors) {
  // Every record the snapshot holds is required: rebuilt without any one
  // of them (the entity-name table too, in a session saved with one),
  // Load must fail cleanly, not crash or load a smaller session.
  std::unordered_map<std::string, NodeId> names;
  for (NodeId n = 0; n < session_.graph->NumNodes(); ++n) {
    if (session_.graph->IsEntity(n))
      names.emplace("ent:company:c" + std::to_string(n), n);
  }
  const std::string path = TempPath("with_names");
  SaveBytes(*session_.graph, *session_.keys, session_.plan, session_.result,
            Algorithm::kEmOptVc, names, "with_names");
  auto src = MmapStore::Open(path);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  std::vector<std::string> keys;
  std::string kinds;
  ASSERT_TRUE((*src)
                  ->Scan("",
                         [&](std::string_view k, std::string_view) {
                           keys.emplace_back(k);
                           if (kinds.empty() || kinds.back() != k[0])
                             kinds.push_back(k[0]);
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(kinds, "ADEGKMNPRSTVX");
  for (const std::string& drop : keys) {
    SCOPED_TRACE("drop=" + ::testing::PrintToString(drop));
    testing::MapStore dst;
    ASSERT_TRUE((*src)
                    ->Scan("",
                           [&](std::string_view k, std::string_view v) {
                             if (k == drop) return Status::OK();
                             return dst.Put(std::string(k), std::string(v));
                           })
                    .ok());
    auto snap = Snapshot::Load(dst);
    EXPECT_FALSE(snap.ok());
    EXPECT_EQ(snap.status().code(), StatusCode::kParseError)
        << snap.status().ToString();
  }
}

// ---- DecodeGraph record checks ----------------------------------------------
// A flipped byte in a snapshot file fails MmapStore's checksum before any
// record decodes, so these cases hand-build the 'S' / 'N' / 'E' sections
// in an in-memory store and decode them directly.

/// Graph sections as EncodeGraph lays them out: symbols "t", "p", "x";
/// nodes 0 and 1 entities of type "t", node 2 the value "x"; out-edges
/// 0 -p-> 1 and 0 -p-> 2 (a node without an entry has an empty run).
struct GraphRecords {
  std::vector<std::string> symbols = {"t", "p", "x"};
  std::vector<std::pair<uint8_t, uint32_t>> nodes = {{0, 0}, {0, 0}, {1, 2}};
  std::vector<std::pair<NodeId, std::string>> edges = {
      {0, EdgeRecord({{1, 1}, {1, 2}})}};

  /// count, then (pred, dst) per edge, all varints.
  static std::string EdgeRecord(
      std::initializer_list<std::pair<uint32_t, uint32_t>> run) {
    std::string e;
    PutVarint(e, run.size());
    for (auto [pred, dst] : run) {
      PutVarint(e, pred);
      PutVarint(e, dst);
    }
    return e;
  }

  StatusOr<Graph> Decode() const {
    testing::MapStore store;
    std::string s, n, e;
    for (const std::string& symbol : symbols) {
      PutVarint(s, symbol.size());
      s += symbol;
    }
    for (NodeId id = 0; id < nodes.size(); ++id) {
      n.push_back(static_cast<char>(nodes[id].first));
      PutBe32(n, nodes[id].second);
      auto run = std::find_if(edges.begin(), edges.end(),
                              [id](const auto& r) { return r.first == id; });
      e += run == edges.end() ? EdgeRecord({}) : run->second;
    }
    EXPECT_TRUE(store.Put("S", std::move(s)).ok());
    EXPECT_TRUE(store.Put("N", std::move(n)).ok());
    EXPECT_TRUE(store.Put("E", std::move(e)).ok());
    storage::SnapshotMeta meta;
    meta.num_symbols = symbols.size();
    meta.num_nodes = nodes.size();
    return PlanCodec::DecodeGraph(store, meta);
  }
};

TEST(DecodeGraph, HandBuiltRecordsDecode) {
  auto g = GraphRecords().Decode();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumNodes(), 3u);
  EXPECT_EQ(g->NumEntities(), 2u);
  EXPECT_EQ(g->NumTriples(), 2u);
  EXPECT_TRUE(g->HasTriple(0, 1, 1));
  EXPECT_TRUE(g->HasTriple(0, 1, 2));
  EXPECT_EQ(g->value_str(2), "x");
}

TEST(DecodeGraph, CorruptRecordsAreParseErrorsNamingTheCheck) {
  struct Case {
    const char* what;
    std::function<void(GraphRecords&)> corrupt;
    const char* message;
  };
  const Case cases[] = {
      {"edge to a node id >= num_nodes",
       [](GraphRecords& r) {
         r.edges = {{0, GraphRecords::EdgeRecord({{1, 3}})}};
       },
       "corrupt snapshot: bad edge in node 0"},
      {"edge whose subject is a value node",
       [](GraphRecords& r) {
         r.edges = {{2, GraphRecords::EdgeRecord({{1, 0}})}};
       },
       "corrupt snapshot: unreplayable edge: AddTriple: subject must be an "
       "entity"},
      {"duplicated interned string",
       [](GraphRecords& r) { r.symbols = {"t", "p", "t"}; },
       "corrupt snapshot: duplicate interned string at symbol 2"},
      {"value node replaying to an earlier id",
       [](GraphRecords& r) { r.nodes = {{0, 0}, {1, 2}, {1, 2}}; },
       "corrupt snapshot: node record 2 does not replay to its id "
       "(duplicate value?)"},
      {"edge count larger than its record",
       [](GraphRecords& r) {
         std::string run;
         PutVarint(run, 100);
         PutVarint(run, 1);
         PutVarint(run, 1);
         r.edges = {{0, run}};
       },
       "corrupt snapshot: bad edge count"},
      {"trailing bytes after the last node's run",
       [](GraphRecords& r) {
         r.edges = {{0, GraphRecords::EdgeRecord({{1, 1}})},
                    {2, GraphRecords::EdgeRecord({}) + "z"}};
       },
       "corrupt snapshot: trailing bytes in edge record"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    GraphRecords records;
    c.corrupt(records);
    auto g = records.Decode();
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kParseError);
    EXPECT_EQ(g.status().message(), c.message);
  }
}

// ---- Snapshot::Load on edited records -------------------------------

/// The records Snapshot::Save writes for `s`, in an in-memory store.
testing::MapStore SavedRecords(
    const Session& s, Algorithm algo,
    const std::unordered_map<std::string, NodeId>* names = nullptr) {
  testing::MapStore store;
  Status st =
      Snapshot::Save(store, *s.graph, *s.keys, s.plan, s.result, algo, names);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return store;
}

TEST(SnapshotSections, FramingErrorsAreParseErrors) {
  // Each table is one record holding meta's count of items back to back.
  // A section holding fewer items, or bytes after its last item, fails.
  Algorithm algo = Algorithm::kEmOptVc;
  Session s = CompileAndRun(testing::MakeG1().g, testing::MakeSigma1(), algo);
  using Edit = std::function<void(testing::MapStore&, storage::SnapshotMeta&)>;
  struct Case {
    std::string what;
    Edit edit;
    std::string message;
  };
  std::vector<Case> cases = {
      {"S shorter than meta's count",
       [](testing::MapStore&, storage::SnapshotMeta& m) { ++m.num_symbols; },
       "string record holds only"},
      {"N shorter than meta's count",
       [](testing::MapStore&, storage::SnapshotMeta& m) { ++m.num_nodes; },
       "node record holds only"},
      {"E with fewer runs than nodes",
       [](testing::MapStore& store, storage::SnapshotMeta&) {
         std::string e(*store.Get("E"));
         ASSERT_EQ(e.back(), '\0');  // the last node's run is empty
         e.pop_back();
         ASSERT_TRUE(store.Put("E", std::move(e)).ok());
       },
       "edge record holds only"},
      {"D holding fewer sets than meta says",
       [](testing::MapStore&, storage::SnapshotMeta& m) { ++m.num_pool_sets; },
       "NodeSet pool record holds only"},
      {"R holding fewer relations than meta says",
       [](testing::MapStore&, storage::SnapshotMeta& m) { ++m.num_relations; },
       "relation record holds only"},
      {"V holding fewer derivations than meta says",
       [](testing::MapStore&, storage::SnapshotMeta& m) {
         ++m.num_derivations;
       },
       "derivation record holds only"},
  };
  for (auto [key, name] : std::vector<std::pair<std::string, std::string>>{
           {"S", "string"},
           {"N", "node"},
           {"E", "edge"},
           {"D", "NodeSet pool"},
           {"R", "relation"},
           {"V", "derivation"}}) {
    cases.push_back(
        {"trailing bytes after the last item of " + key,
         [key](testing::MapStore& store, storage::SnapshotMeta&) {
           ASSERT_TRUE(store.Put(key, std::string(*store.Get(key)) + "z").ok());
         },
         "trailing bytes in " + name + " record"});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    testing::MapStore store = SavedRecords(s, algo);
    auto meta = PlanCodec::DecodeMeta(store);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    ASSERT_GT(meta->num_relations, 0u);
    ASSERT_GT(meta->num_derivations, 0u);
    c.edit(store, *meta);
    ASSERT_TRUE(PlanCodec::EncodeMeta(*meta, store).ok());
    auto snap = Snapshot::Load(store);
    ASSERT_FALSE(snap.ok());
    EXPECT_EQ(snap.status().code(), StatusCode::kParseError);
    EXPECT_TRUE(snap.status().message().starts_with("corrupt snapshot: " +
                                                    c.message))
        << snap.status().message();
  }
}

TEST(SnapshotSections, CandidateCountsThePlanRecordCannotHoldAreParseErrors) {
  // Meta and the 'P' record agreeing on 2^40 candidates must not make the
  // decoder allocate for them: the record's bytes bound the count first.
  Algorithm algo = Algorithm::kEmOptVc;
  Session s = CompileAndRun(testing::MakeG2().g, testing::MakeSigma2(), algo);
  testing::MapStore store = SavedRecords(s, algo);
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  auto meta = PlanCodec::DecodeMeta(store);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  meta->num_candidates = kHuge;
  ASSERT_TRUE(PlanCodec::EncodeMeta(*meta, store).ok());

  // 'P' opens with the slot count and an (entity, pool id) pair per slot;
  // the candidate count follows.
  const std::string p(*store.Get("P"));
  ByteReader r(p);
  uint64_t slots = 0, skip = 0, count = 0;
  ASSERT_TRUE(r.ReadVarint(&slots));
  for (uint64_t i = 0; i < 2 * slots; ++i) ASSERT_TRUE(r.ReadVarint(&skip));
  std::string edited = p.substr(0, p.size() - r.remaining());
  ASSERT_TRUE(r.ReadVarint(&count));
  ASSERT_EQ(count, s.plan.num_candidates());
  PutVarint(edited, kHuge);
  edited += p.substr(p.size() - r.remaining());
  ASSERT_TRUE(store.Put("P", std::move(edited)).ok());

  auto snap = Snapshot::Load(store);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kParseError);
  EXPECT_EQ(snap.status().message(),
            "corrupt snapshot: candidate count exceeds the plan record");
}

/// Loads a saved two-entity session ("ent:t:a", "ent:t:b", one shared
/// value) whose entity-name record is replaced by `entries`.
Status LoadWithNameTable(
    const std::function<std::vector<std::pair<std::string, NodeId>>(
        const std::unordered_map<std::string, NodeId>& names,
        NodeId value)>& entries) {
  auto loaded = FastDeserializeGraphWithNames(
      "ent:t:a p val:\"1\"\nent:t:b p val:\"1\"\n");
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  NodeId value = 0;
  while (loaded->graph.IsEntity(value)) ++value;
  KeySet keys;
  EXPECT_TRUE(keys.AddFromDsl("key k for t { x -[p]-> v* }").ok());
  Algorithm algo = Algorithm::kEmOptVc;
  Session s = CompileAndRun(std::move(loaded->graph), std::move(keys), algo);
  testing::MapStore store = SavedRecords(s, algo, &loaded->entities);
  std::string t;
  const auto table = entries(loaded->entities, value);
  PutVarint(t, table.size());
  for (const auto& [name, node] : table) {
    PutVarint(t, name.size());
    t += name;
    PutVarint(t, node);
  }
  EXPECT_TRUE(store.Put("T", std::move(t)).ok());
  auto snap = Snapshot::Load(store);
  return snap.ok() ? Status::OK() : snap.status();
}

TEST(SnapshotSections, AnEntityNameBoundTwiceIsAParseError) {
  Status st = LoadWithNameTable([](const auto& names, NodeId) {
    return std::vector<std::pair<std::string, NodeId>>{
        {"ent:t:a", names.at("ent:t:a")}, {"ent:t:a", names.at("ent:t:b")}};
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "corrupt snapshot: entity name ent:t:a bound twice");
}

TEST(SnapshotSections, AnEntityNameBoundToAValueNodeIsAParseError) {
  Status st = LoadWithNameTable([](const auto& names, NodeId value) {
    return std::vector<std::pair<std::string, NodeId>>{
        {"ent:t:a", names.at("ent:t:a")}, {"ent:t:b", value}};
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(),
            "corrupt snapshot: entity name ent:t:b names a value node");
}

// ---- DecodePlan: pairing-relation records ---------------------------

/// Per candidate, the id of its relation in the 'R' section, read
/// from the 'G' record (varint count, then one varint id per candidate).
std::vector<uint64_t> RelationIds(const testing::MapStore& store) {
  auto g = store.Get("G");
  EXPECT_TRUE(g.ok());
  ByteReader r(g.ok() ? *g : std::string_view());
  uint64_t count = 0;
  EXPECT_TRUE(r.ReadVarint(&count));
  std::vector<uint64_t> ids(count);
  for (uint64_t& id : ids) EXPECT_TRUE(r.ReadVarint(&id));
  return ids;
}

/// The 'R' section split into its relations, in id order (each a varint
/// count, then one varint per packed pair).
std::vector<std::vector<uint64_t>> ReadRelations(
    const testing::MapStore& store) {
  auto v = store.Get("R");
  EXPECT_TRUE(v.ok());
  ByteReader r(v.ok() ? *v : std::string_view());
  std::vector<std::vector<uint64_t>> rels;
  uint64_t count = 0;
  while (!r.AtEnd() && r.ReadVarint(&count)) {
    std::vector<uint64_t>& rel = rels.emplace_back(count);
    for (uint64_t& packed : rel) EXPECT_TRUE(r.ReadVarint(&packed));
  }
  EXPECT_TRUE(r.ok());
  return rels;
}

void WriteRelations(testing::MapStore& store,
                    const std::vector<std::vector<uint64_t>>& rels) {
  std::string v;
  for (const std::vector<uint64_t>& rel : rels) {
    PutVarint(v, rel.size());
    for (uint64_t packed : rel) PutVarint(v, packed);
  }
  EXPECT_TRUE(store.Put("R", std::move(v)).ok());
}

TEST(DecodePlan, RejectsRelationRecordsItCannotReplay) {
  // Gp replays from the relations, so a relation must be strictly
  // ascending and, unless empty, contain its own candidate's pair: one
  // without it loads a plan whose candidate has no product node, and its
  // pair silently goes unmatched.
  DBpediaSimConfig cfg;
  cfg.seed = 3;
  SyntheticDataset ds = GenerateDBpediaSim(cfg);
  auto plan = Matcher::Compile(ds.graph, ds.keys,
                               PlanOptions::For(Algorithm::kEmOptVc, 2));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const uint32_t cand = 9;
  const Candidate& c = plan->context().candidates()[cand];
  const uint64_t own = PackPair(c.e1, c.e2);

  struct Case {
    const char* what;
    std::function<void(std::vector<uint64_t>&)> edit;
    const char* problem;
    bool names_first_user;  // the first candidate reading the relation
  };
  const Case cases[] = {
      {"own pair dropped",
       [own](std::vector<uint64_t>& rel) {
         rel.erase(std::find(rel.begin(), rel.end(), own));
       },
       "lacks its candidate's pair", false},
      {"two entries swapped",
       [](std::vector<uint64_t>& rel) { std::swap(rel[0], rel[1]); },
       "is not strictly ascending", true},
      {"an entry repeated",
       [](std::vector<uint64_t>& rel) { rel.insert(rel.begin(), rel[0]); },
       "is not strictly ascending", true},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.what);
    testing::MapStore store;
    storage::SnapshotMeta meta;
    ASSERT_TRUE(PlanCodec::EncodeGraph(ds.graph, store, &meta).ok());
    ASSERT_TRUE(PlanCodec::EncodePlan(*plan, store, &meta).ok());
    ASSERT_TRUE(
        PlanCodec::DecodePlan(store, meta, ds.graph, ds.keys).ok());

    const std::vector<uint64_t> ids = RelationIds(store);
    ASSERT_GT(ids.size(), cand);
    const uint64_t id = ids[cand];
    std::vector<std::vector<uint64_t>> rels = ReadRelations(store);
    ASSERT_LT(id, rels.size());
    std::vector<uint64_t>& rel = rels[id];
    ASSERT_GE(rel.size(), 2u);
    ASSERT_TRUE(std::binary_search(rel.begin(), rel.end(), own));
    k.edit(rel);
    WriteRelations(store, rels);

    const size_t named =
        k.names_first_user
            ? static_cast<size_t>(std::find(ids.begin(), ids.end(), id) -
                                  ids.begin())
            : cand;
    auto loaded = PlanCodec::DecodePlan(store, meta, ds.graph, ds.keys);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_EQ(loaded.status().message(),
              "corrupt snapshot: relation " + std::to_string(id) +
                  " of candidate " + std::to_string(named) + " " +
                  k.problem);
  }
}

TEST(DecodePlan, RejectsAGpFlagItsPlanOptionsContradict) {
  // Patch extends the source plan's Gp whenever the plan options build
  // one, so a snapshot whose plan builds Gp must carry it.
  auto m = testing::MakeG1();
  KeySet keys = testing::MakeSigma1();
  auto plan =
      Matcher::Compile(m.g, keys, PlanOptions::For(Algorithm::kEmVc, 1));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  testing::MapStore store;
  storage::SnapshotMeta meta;
  ASSERT_TRUE(PlanCodec::EncodeGraph(m.g, store, &meta).ok());
  ASSERT_TRUE(PlanCodec::EncodePlan(*plan, store, &meta).ok());
  meta.has_product_graph = false;
  auto loaded = PlanCodec::DecodePlan(store, meta, m.g, keys);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_EQ(loaded.status().message(),
            "corrupt snapshot: product-graph flag disagrees with the plan "
            "options");
}

// ---- DecodePlan: candidates and dependency scans ----------------------

/// The 'P' record split into the parts the decoder checks per item: per
/// d-neighbor slot its entity and pool id; per candidate its pair and the
/// rest of its entry (flags, pool refs) verbatim; per candidate its
/// dependency scan.
struct PlanRecord {
  struct Slot {
    uint64_t entity, pool;
  };
  struct Entry {
    uint64_t e1, e2;
    std::string rest;
  };
  std::vector<Slot> slots;
  std::vector<Entry> candidates;
  std::vector<std::vector<uint64_t>> scans;

  PlanRecord(std::string_view p, bool pairing) {
    ByteReader r(p);
    auto at = [&] { return p.size() - r.remaining(); };
    uint64_t count = 0, skip = 0;
    EXPECT_TRUE(r.ReadVarint(&count));
    for (uint64_t i = 0; i < count; ++i) {
      Slot& s = slots.emplace_back();
      EXPECT_TRUE(r.ReadVarint(&s.entity) && r.ReadVarint(&s.pool));
    }
    EXPECT_TRUE(r.ReadVarint(&count));
    for (uint64_t i = 0; i < count; ++i) {
      Entry& c = candidates.emplace_back();
      EXPECT_TRUE(r.ReadVarint(&c.e1) && r.ReadVarint(&c.e2));
      const size_t from = at();
      uint8_t flags = 0;
      EXPECT_TRUE(r.ReadU8(&flags));
      for (int k = 0; pairing && k < 2; ++k) EXPECT_TRUE(r.ReadVarint(&skip));
      c.rest = p.substr(from, at() - from);
    }
    for (uint64_t i = 0; i < count; ++i) {
      std::vector<uint64_t>& scan = scans.emplace_back();
      uint64_t size = 0, value = 0, delta = 0;
      EXPECT_TRUE(r.ReadVarint(&size));
      for (uint64_t k = 0; k < size; ++k) {
        EXPECT_TRUE(r.ReadVarint(&delta));
        scan.push_back(value += delta);
      }
    }
    EXPECT_TRUE(r.AtEnd());
  }

  /// Re-encodes the record; scan deltas wrap modulo 2^64, as a crafted
  /// file can make them.
  std::string Write() const {
    std::string p;
    PutVarint(p, slots.size());
    for (const Slot& s : slots) {
      PutVarint(p, s.entity);
      PutVarint(p, s.pool);
    }
    PutVarint(p, candidates.size());
    for (const Entry& c : candidates) {
      PutVarint(p, c.e1);
      PutVarint(p, c.e2);
      p += c.rest;
    }
    for (const std::vector<uint64_t>& scan : scans) {
      PutVarint(p, scan.size());
      uint64_t prev = 0;
      for (uint64_t v : scan) {
        PutVarint(p, v - prev);
        prev = v;
      }
    }
    return p;
  }
};

/// Saves a DBpedia-sim session (recursive keys, so candidates carry
/// dependency scans), lets `edit` change its 'P' record, and loads it.
/// `edit` also sees the graph and the index of the last candidate with a
/// scan of two or more pairs.
const Session& DBpediaSession() {
  static const Session* session = [] {
    auto* s = new Session;
    SyntheticDataset ds = GenerateDBpediaSim(DBpediaSimConfig{});
    *s = CompileAndRun(std::move(ds.graph), std::move(ds.keys),
                       Algorithm::kEmOptVc);
    return s;
  }();
  return *session;
}

Status LoadWithPlanEdit(
    const std::function<void(PlanRecord&, const Graph&, size_t)>& edit) {
  const Session* session = &DBpediaSession();
  testing::MapStore store = SavedRecords(*session, Algorithm::kEmOptVc);
  PlanRecord record(*store.Get("P"), /*pairing=*/true);
  size_t scanned = record.scans.size();
  while (scanned > 0 && record.scans[scanned - 1].size() < 2) --scanned;
  EXPECT_GT(scanned, 0u);
  edit(record, *session->graph, scanned - 1);
  EXPECT_TRUE(store.Put("P", record.Write()).ok());
  auto snap = Snapshot::Load(store);
  return snap.ok() ? Status::OK() : snap.status();
}

/// One seeded mutation of a record's bytes: flip a bit, nudge the varint
/// starting at a random byte by ±1 or set it to 2³², truncate, or drop or
/// repeat a short byte range.
std::string MutateRecord(std::string bytes, Rng& rng) {
  if (bytes.empty()) return std::string(1, '\x7f');
  const size_t at = rng.Below(bytes.size());
  switch (rng.Below(7)) {
    case 0:
      bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.Below(8)));
      break;
    case 1:
    case 2:
    case 3: {
      size_t end = at;
      while (end < bytes.size() && (static_cast<uint8_t>(bytes[end]) & 0x80)) {
        ++end;
      }
      if (end == bytes.size()) {
        bytes.resize(at);
        break;
      }
      ByteReader r(std::string_view(bytes).substr(at, end + 1 - at));
      uint64_t v = 0;
      EXPECT_TRUE(r.ReadVarint(&v));
      std::string nudged;
      PutVarint(nudged, rng.Below(3) == 0   ? v + 1
                        : rng.Below(2) == 0 ? v - 1
                                            : uint64_t{1} << 32);
      bytes.replace(at, end + 1 - at, nudged);
      break;
    }
    case 4:
      bytes.resize(at);
      break;
    default: {
      const size_t len = 1 + rng.Below(std::min<size_t>(16, bytes.size() - at));
      if (rng.Below(2) == 0) {
        bytes.erase(at, len);
      } else {
        bytes.insert(at, bytes.substr(at, len));
      }
      break;
    }
  }
  return bytes;
}

TEST(SnapshotFuzz, MutatedGraphAndPlanRecordsFailOrCommit) {
  // A saved session with one record of the graph ('S', 'N', 'E': they
  // feed AddTriple and the first Finalize) or of the plan tables ('P',
  // 'D', 'G', 'R', each keyed type's 'X') mutated and the set written
  // back through MmapStore::Create, which reseals the checksum.
  // Snapshot::Load must return an error or a snapshot on which one
  // Apply → Patch → Rematch commit returns, OK or not; a crash, hang or
  // sanitizer report fails the test. One session has Gp, one has not.
  // The budget is seeded and fixed.
  constexpr int kMutationsPerSession = 150;
  for (Algorithm algo : {Algorithm::kEmOptVc, Algorithm::kEmOptMr}) {
    SCOPED_TRACE(AlgorithmName(algo));
    SyntheticDataset ds = GenerateDBpediaSim(DBpediaSimConfig{});
    Session s = CompileAndRun(std::move(ds.graph), std::move(ds.keys), algo);
    testing::MapStore saved = SavedRecords(s, algo);
    std::vector<std::pair<std::string, std::string>> records;
    ASSERT_TRUE(saved
                    .Scan("",
                          [&](std::string_view key, std::string_view value) {
                            records.emplace_back(key, value);
                            return Status::OK();
                          })
                    .ok());
    std::vector<size_t> targets;
    size_t sig_records = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      const std::string& key = records[i].first;
      if (key == "S" || key == "N" || key == "E" || key == "P" ||
          key == "D" || key == "G" || key == "R" || key[0] == 'X') {
        targets.push_back(i);
        sig_records += key[0] == 'X';
      }
    }
    ASSERT_GT(sig_records, 0u);
    ASSERT_EQ(targets.size() - sig_records,
              algo == Algorithm::kEmOptVc ? 7u : 5u);
    std::vector<Triple> all;
    s.graph->ForEachTriple([&](const Triple& t) { all.push_back(t); });
    Rng rng(29);
    size_t rejected = 0, committed = 0;
    for (int m = 0; m < kMutationsPerSession; ++m) {
      const size_t target = targets[rng.Below(targets.size())];
      SCOPED_TRACE("mutation " + std::to_string(m) + " of record " +
                   records[target].first);
      const std::string path = TempPath("fuzz");
      {
        auto store = MmapStore::Create(path);
        ASSERT_TRUE(store.ok()) << store.status().ToString();
        for (size_t i = 0; i < records.size(); ++i) {
          ASSERT_TRUE((*store)
                          ->Put(records[i].first,
                                i == target
                                    ? MutateRecord(records[i].second, rng)
                                    : records[i].second)
                          .ok());
        }
        ASSERT_TRUE((*store)->Flush().ok());
      }
      auto store = MmapStore::Open(path);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto snap = Snapshot::Load(**store);
      if (!snap.ok()) {
        ++rejected;
        continue;
      }
      std::unordered_map<std::string, NodeId> names;
      IngestSession session = snap->session(names);
      GraphDelta delta(*session.graph);
      const Triple& gone = all[rng.Below(all.size())];
      const Triple& twin = all[rng.Below(all.size())];
      const std::string& pred = session.graph->interner().Resolve(gone.pred);
      ASSERT_TRUE(delta.RemoveTriple(gone.subject, pred, gone.object).ok());
      ASSERT_TRUE(delta.AddTriple(twin.subject, "fuzz_pred", twin.object).ok());
      IngestStats stats;
      committed += CommitDelta(Matcher(algo), session, delta, stats).ok();
    }
    std::printf("%s: %zu of %d mutations rejected on load, %zu commits OK\n",
                AlgorithmName(algo).c_str(), rejected, kMutationsPerSession,
                committed);
    EXPECT_GT(rejected, 0u);
  }
}

// The slots name the keyed entities, each exactly once: a patch shares
// or recomputes the d-neighbor of every keyed entity and of no other
// node, and keeps the neighbor-node sum by difference from the loaded
// one.

TEST(DecodePlan, RejectsADNeighborSlotNamingAnEntityTwice) {
  size_t edited = 0;
  Status st = LoadWithPlanEdit([&](PlanRecord& r, const Graph&, size_t) {
    ASSERT_GE(r.slots.size(), 2u);
    edited = r.slots.size() - 1;
    r.slots.back().entity = r.slots.front().entity;
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(),
            "corrupt snapshot: bad d-neighbor slot " + std::to_string(edited));
}

TEST(DecodePlan, RejectsADNeighborSlotThatNamesNoKeyedEntity) {
  for (bool value_node : {true, false}) {
    size_t edited = 0;
    NodeId named = kNoNode;
    Status st = LoadWithPlanEdit([&](PlanRecord& r, const Graph& g, size_t) {
      // The first value node, or the first entity no slot names (an
      // entity of a type with no key).
      std::vector<bool> slotted(g.NumNodes());
      for (const PlanRecord::Slot& slot : r.slots) slotted[slot.entity] = true;
      NodeId n = 0;
      while (n < g.NumNodes() && (g.IsEntity(n) == value_node || slotted[n])) {
        ++n;
      }
      ASSERT_LT(n, g.NumNodes());
      named = n;
      edited = r.slots.size() - 1;
      r.slots.back().entity = n;
    });
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_EQ(st.message(),
              "corrupt snapshot: d-neighbor slot " + std::to_string(edited) +
                  (value_node ? " names value node "
                              : " names an entity of an unkeyed type, ") +
                  std::to_string(named));
  }
}

TEST(DecodePlan, RejectsAKeyedEntityWithoutADNeighborSlot) {
  NodeId dropped = kNoNode;
  Status st = LoadWithPlanEdit([&](PlanRecord& r, const Graph&, size_t) {
    dropped = static_cast<NodeId>(r.slots.back().entity);
    r.slots.pop_back();
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "corrupt snapshot: keyed entity " +
                              std::to_string(dropped) +
                              " has no d-neighbor slot");
}

TEST(DecodePlan, RejectsANeighborNodeCountTheSlotsDoNotSum) {
  testing::MapStore store =
      SavedRecords(DBpediaSession(), Algorithm::kEmOptVc);
  auto meta = PlanCodec::DecodeMeta(store);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  const uint64_t sum = meta->neighbor_nodes;
  ++meta->neighbor_nodes;
  ASSERT_TRUE(PlanCodec::EncodeMeta(*meta, store).ok());
  auto snap = Snapshot::Load(store);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kParseError);
  EXPECT_EQ(snap.status().message(),
            "corrupt snapshot: meta counts " + std::to_string(sum + 1) +
                " d-neighbor nodes, but the slots' sets hold " +
                std::to_string(sum));
}

TEST(DecodePlan, RejectsACandidateWhoseFirstEntityIsNotTheSmaller) {
  size_t edited = 0;
  Status st = LoadWithPlanEdit([&](PlanRecord& r, const Graph&, size_t) {
    edited = r.candidates.size() - 1;
    std::swap(r.candidates.back().e1, r.candidates.back().e2);
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "corrupt snapshot: candidate " +
                              std::to_string(edited) + " has e1 >= e2");
}

TEST(DecodePlan, RejectsACandidatePairingNodesOfTwoTypes) {
  size_t edited = 0;
  Status st = LoadWithPlanEdit([&](PlanRecord& r, const Graph& g, size_t) {
    edited = r.candidates.size() - 1;
    PlanRecord::Entry& c = r.candidates.back();
    NodeId other = static_cast<NodeId>(c.e1) + 1;
    while (g.IsEntity(other) &&
           g.entity_type(other) == g.entity_type(static_cast<NodeId>(c.e1))) {
      ++other;
    }
    c.e2 = other;
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "corrupt snapshot: candidate " +
                              std::to_string(edited) +
                              " pairs an entity with a node of another type");
}

TEST(DecodePlan, RejectsCandidatesOutOfPairOrder) {
  Status st = LoadWithPlanEdit([](PlanRecord& r, const Graph&, size_t) {
    std::swap(r.candidates[0], r.candidates[1]);
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(),
            "corrupt snapshot: candidate 1 does not follow candidate 0 in "
            "(e1, e2) order");
}

TEST(DecodePlan, RejectsADependencyScanNamingANodePastTheGraph) {
  // Loaded, this scan left a ghost whose e1 lies past the graph, and the
  // first run on the plan indexed the union-find with it.
  size_t edited = 0;
  Status st = LoadWithPlanEdit([&](PlanRecord& r, const Graph&, size_t j) {
    edited = j;
    r.scans[j].back() = PackPair(uint32_t{1} << 31, UINT32_MAX);
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "corrupt snapshot: dependency scan " +
                              std::to_string(edited) +
                              " names node 4294967295 past the graph");
}

TEST(DecodePlan, RejectsADependencyScanPairWhoseFirstNodeIsNotSmaller) {
  size_t edited = 0;
  Status st = LoadWithPlanEdit([&](PlanRecord& r, const Graph&, size_t j) {
    edited = j;
    const uint64_t last = r.scans[j].back();
    const NodeId second = static_cast<NodeId>(last & 0xffffffffu);
    r.scans[j].back() = PackPair(second, second);  // still ascending
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "corrupt snapshot: dependency scan " +
                              std::to_string(edited) +
                              " holds a pair whose first node is not "
                              "below its second");
}

TEST(DecodePlan, RejectsADependencyScanThatRepeatsAPair) {
  size_t edited = 0;
  Status st = LoadWithPlanEdit([&](PlanRecord& r, const Graph&, size_t j) {
    edited = j;
    r.scans[j].push_back(r.scans[j].back());
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "corrupt snapshot: dependency scan " +
                              std::to_string(edited) + " repeats a pair");
}

TEST(DecodePlan, RejectsADependencyScanDeltaThatWraps) {
  size_t edited = 0;
  Status st = LoadWithPlanEdit([&](PlanRecord& r, const Graph&, size_t j) {
    edited = j;
    r.scans[j].push_back(r.scans[j].front());  // encodes as a wrapping delta
  });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "corrupt snapshot: dependency scan " +
                              std::to_string(edited) + " wraps past 2^64");
}

// ---- DecodePlan: signature records ------------------------------------

/// One 'X' record: the blockable flag, and per key its source bytes
/// verbatim (key index, constant, path).
struct SigRecord {
  uint8_t blockable = 0;
  std::vector<std::string> sources;

  SigRecord() = default;
  explicit SigRecord(std::string_view x) {
    ByteReader r(x);
    auto at = [&] { return x.size() - r.remaining(); };
    uint64_t count = 0, v = 0;
    uint8_t flag = 0;
    EXPECT_TRUE(r.ReadU8(&blockable) && r.ReadVarint(&count));
    for (uint64_t k = 0; k < count; ++k) {
      const size_t from = at();
      uint64_t steps = 0;
      EXPECT_TRUE(r.ReadVarint(&v) && r.ReadU8(&flag));
      if (flag != 0) {
        EXPECT_TRUE(r.ReadVarint(&v));
      }
      EXPECT_TRUE(r.ReadVarint(&steps));
      for (uint64_t s = 0; s < steps; ++s) {
        EXPECT_TRUE(r.ReadVarint(&v) && r.ReadU8(&flag) && r.ReadVarint(&v));
      }
      sources.emplace_back(x.substr(from, at() - from));
    }
    EXPECT_TRUE(r.AtEnd());
  }

  std::string Write() const {
    std::string x(1, static_cast<char>(blockable));
    PutVarint(x, sources.size());
    for (const std::string& source : sources) x += source;
    return x;
  }
};

/// The DBpedia session's records, with the first 'X' record that holds a
/// source parsed out for editing.
struct SigEdit {
  testing::MapStore store =
      SavedRecords(DBpediaSession(), Algorithm::kEmOptVc);
  uint32_t type = 0;
  SigRecord record;

  SigEdit() {
    Status st = store.Scan("X", [&](std::string_view key,
                                    std::string_view value) {
      SigRecord r(value);
      if (record.sources.empty() && !r.sources.empty()) {
        type = GetBe32(key.data() + 1);
        record = std::move(r);
      }
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_FALSE(record.sources.empty());
  }

  /// Stores the edited record under `type` and loads the snapshot.
  StatusOr<Snapshot> Load() {
    std::string key = "X";
    PutBe32(key, type);
    EXPECT_TRUE(store.Put(key, record.Write()).ok());
    return Snapshot::Load(store);
  }
};

TEST(DecodePlan, RejectsASigRecordForATypeWithoutAKey) {
  const Session& session = DBpediaSession();
  SigEdit edit;
  // A copy of the record under a symbol no key is defined on, counted in
  // meta as one more index.
  uint32_t unkeyed = 0;
  while (session.keys->HasKeyForType(
      session.graph->interner().Resolve(unkeyed))) {
    ++unkeyed;
  }
  edit.type = unkeyed;
  auto meta = PlanCodec::DecodeMeta(edit.store);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_LT(unkeyed, meta->num_symbols);
  ++meta->num_sig_types;
  ASSERT_TRUE(PlanCodec::EncodeMeta(*meta, edit.store).ok());
  auto snap = edit.Load();
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kParseError);
  EXPECT_EQ(snap.status().message(),
            "corrupt snapshot: sig record for type " +
                std::to_string(unkeyed) + ", which has no key");
}

TEST(DecodeMeta, ProcessorCountsOutsideOneTo256AreParseErrors) {
  // The stored processor count is checked on decode: a snapshot must not
  // hand a session 0 workers, or enough to exhaust memory.
  for (int procs : {0, kMaxProcessors + 1, 1 << 20}) {
    SCOPED_TRACE(procs);
    storage::SnapshotMeta meta;
    meta.plan_options.processors = procs;
    testing::MapStore store;
    ASSERT_TRUE(PlanCodec::EncodeMeta(meta, store).ok());
    auto decoded = PlanCodec::DecodeMeta(store);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
    EXPECT_EQ(decoded.status().message(),
              "corrupt snapshot: processor count " + std::to_string(procs) +
                  " out of range");
  }
}

/// Decodes the meta record of a default SnapshotMeta (plan processors 1,
/// pairing, blocking and Gp on) with its run-option block — after the
/// algorithm byte: varint processors, flag byte, varint bounded messages
/// — replaced by the given values.
StatusOr<storage::SnapshotMeta> DecodeMetaWithRunBlock(uint64_t procs,
                                                       uint8_t flags,
                                                       uint64_t bounded) {
  testing::MapStore store;
  EXPECT_TRUE(PlanCodec::EncodeMeta(storage::SnapshotMeta{}, store).ok());
  std::string record(*store.Get("M"));
  std::string block;
  PutVarint(block, procs);
  block.push_back(static_cast<char>(flags));
  PutVarint(block, bounded);
  record.replace(1, 3, block);  // the stored block is 3 bytes at p = 1
  EXPECT_TRUE(store.Put("M", record).ok());
  return PlanCodec::DecodeMeta(store);
}

TEST(DecodeMeta, RunOptionBytesMustBeWhatThePlanOptionsImply) {
  // The run-option block carries no setting of its own: a snapshot's
  // plan was compiled with its plan options alone, so the block is their
  // image (processors, pairing bit 1, blocking bit 4, bit 6 set, no run
  // knob) and anything else is a corrupt record.
  constexpr uint8_t kImplied = (1 << 1) | (1 << 4) | (1 << 6);
  auto same = DecodeMetaWithRunBlock(1, kImplied, 0);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(same->plan_options.processors, 1);
  EXPECT_TRUE(same->plan_options.use_pairing);
  EXPECT_TRUE(same->plan_options.use_blocking);
  EXPECT_TRUE(same->plan_options.build_product_graph);

  struct Case {
    const char* what;
    uint64_t procs;
    uint8_t flags;
    uint64_t bounded;
  };
  for (const Case& c : {
           Case{"run processors 256 next to plan processors 1",
                static_cast<uint64_t>(kMaxProcessors), kImplied, 0},
           Case{"vf2 set", 1, kImplied | 1, 0},
           Case{"pairing off", 1, kImplied & ~(1 << 1), 0},
           Case{"blocking off", 1, kImplied & ~(1 << 4), 0},
           Case{"dependency set", 1, kImplied | (1 << 2), 0},
           Case{"bounded messages 4", 1, kImplied, 4},
       }) {
    SCOPED_TRACE(c.what);
    auto decoded = DecodeMetaWithRunBlock(c.procs, c.flags, c.bounded);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
    EXPECT_EQ(decoded.status().message(),
              "corrupt snapshot: meta run options disagree with the plan "
              "options");
  }
}

}  // namespace
}  // namespace gkeys
