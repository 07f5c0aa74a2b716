// Golden compile output: every committed workload spec's base dataset,
// compiled under each of the six PlanOptions::For(algo, 2) presets, must
// serialize to exactly the plan records pinned below. The digest is
// FNV-1a-64 over the PlanCodec plan records (meta + 'P' 'D' 'X' 'G' 'R',
// in key order), so any change to the candidate list, the d-neighbor
// slots, the pairing-reduced sets, the pinned signature sources, the
// dependency scans, the enumeration counters or the product-graph
// relations shows up here. A deliberate plan-format or plan-content
// change regenerates the table: the failure message prints each new row
// ready to paste.
//
// The graph records ('S' 'N' 'E') are pinned the same way, for three
// builds of each base graph: the generator's, its text parsed back by the
// two-phase parser, and that parse decoded from its own records. Any
// change to symbol ids, NodeIds or adjacency runs shows up there.
//
// A third table pins patched plans: two hostile specs' compiled plans,
// patched by a fixed chain of their own delta generator's batches, so
// the table also pins what a patch carries and what it enumerates again
// by walking the pinned sources over the patched graph.
//
// A fourth table pins results along the same chains: each batch is
// rematched on the seeded path at one processor, and the result records
// ('A' pairs, 'V' provenance index) are digested after every batch. The
// churn spec removes triples, so retraction and the carried index are
// pinned too.
//
// Slot order follows the iteration order of the per-type key map, so the
// table pins one standard library's hash tables (libstdc++).

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/matcher.h"
#include "gen/hostile.h"
#include "io/fast_triples.h"
#include "io/triples.h"
#include "storage/plan_codec.h"
#include "test_util.h"
#include "workload/workload.h"

#ifndef GKEYS_WORKLOADS_DIR
#error "plan_golden_test needs GKEYS_WORKLOADS_DIR (set by CMakeLists.txt)"
#endif

namespace gkeys {
namespace {

using testing::MapStore;

/// "<spec name>/<algorithm>" → digest of the compiled plan's records.
const std::map<std::string, uint64_t>& GoldenDigests() {
  static const std::map<std::string, uint64_t> kGolden = {
      {"hostile_neardup_uniform/EMMR", 0xe1a68e96ed580bc6ull},
      {"hostile_neardup_uniform/EMOptMR", 0xc637cd199e52f5b4ull},
      {"hostile_neardup_uniform/EMOptVC", 0x5cfcc8a258d27b90ull},
      {"hostile_neardup_uniform/EMVC", 0x15484274e31c792dull},
      {"hostile_neardup_uniform/EMVF2MR", 0x37374e2b8aa12c59ull},
      {"hostile_neardup_uniform/NaiveChase", 0xb6f6bb7d90eef779ull},
      {"hostile_powerlaw_churn/EMMR", 0xce106ec0ab418153ull},
      {"hostile_powerlaw_churn/EMOptMR", 0x3da379be22ff479full},
      {"hostile_powerlaw_churn/EMOptVC", 0x12a69c13cd30f606ull},
      {"hostile_powerlaw_churn/EMVC", 0xd9667dc67333ae09ull},
      {"hostile_powerlaw_churn/EMVF2MR", 0x50df5bb1a186d744ull},
      {"hostile_powerlaw_churn/NaiveChase", 0x1a495a8836a5d379ull},
      {"hostile_powerlaw_hub/EMMR", 0x36191b45366902f5ull},
      {"hostile_powerlaw_hub/EMOptMR", 0x502a46eda882955aull},
      {"hostile_powerlaw_hub/EMOptVC", 0x78589a823de6fb51ull},
      {"hostile_powerlaw_hub/EMVC", 0xdabd42e28e483eeaull},
      {"hostile_powerlaw_hub/EMVF2MR", 0x6c7f66e747a04d10ull},
      {"hostile_powerlaw_hub/NaiveChase", 0x3d38edc5c556da9aull},
      {"hostile_skew_hub/EMMR", 0x8cdc1834705de4acull},
      {"hostile_skew_hub/EMOptMR", 0xb3d0310f44075a55ull},
      {"hostile_skew_hub/EMOptVC", 0xe1fb9cc0f3acee0bull},
      {"hostile_skew_hub/EMVC", 0x27acdb24186f5c08ull},
      {"hostile_skew_hub/EMVF2MR", 0x672569d718d26253ull},
      {"hostile_skew_hub/NaiveChase", 0x3e651d7140fc5992ull},
      {"paper_dbpedia_hub/EMMR", 0x56261d3de8a8d2cdull},
      {"paper_dbpedia_hub/EMOptMR", 0x895ad2a8bb183433ull},
      {"paper_dbpedia_hub/EMOptVC", 0x8c43612b8ea17036ull},
      {"paper_dbpedia_hub/EMVC", 0xa371098af17f6ad3ull},
      {"paper_dbpedia_hub/EMVF2MR", 0x30990b7b28e3c39cull},
      {"paper_dbpedia_hub/NaiveChase", 0x5ff2d83b26e501b9ull},
      {"paper_google_uniform/EMMR", 0x34fca496bbef4a34ull},
      {"paper_google_uniform/EMOptMR", 0x5399b4e7828407cbull},
      {"paper_google_uniform/EMOptVC", 0x8befe693ce2793abull},
      {"paper_google_uniform/EMVC", 0x2321dcc24551e4f4ull},
      {"paper_google_uniform/EMVF2MR", 0xa26308608df0a013ull},
      {"paper_google_uniform/NaiveChase", 0x2703a8060114af41ull},
  };
  return kGolden;
}

/// "<spec name>/<build>" → digest of the graph records EncodeGraph
/// writes for that build of the spec's base graph.
const std::map<std::string, uint64_t>& GoldenGraphDigests() {
  static const std::map<std::string, uint64_t> kGolden = {
      {"hostile_neardup_uniform/decoded", 0xdab2f099fd44b85cull},
      {"hostile_neardup_uniform/generated", 0xdab2f099fd44b85cull},
      {"hostile_neardup_uniform/parsed", 0xdab2f099fd44b85cull},
      {"hostile_powerlaw_churn/decoded", 0x8da516087d5df25dull},
      {"hostile_powerlaw_churn/generated", 0x1efc5958a14e7cf4ull},
      {"hostile_powerlaw_churn/parsed", 0x8da516087d5df25dull},
      {"hostile_powerlaw_hub/decoded", 0x43bc8b1b33182994ull},
      {"hostile_powerlaw_hub/generated", 0x48bf5fb78a9bf34cull},
      {"hostile_powerlaw_hub/parsed", 0x43bc8b1b33182994ull},
      {"hostile_skew_hub/decoded", 0x36624f807c981409ull},
      {"hostile_skew_hub/generated", 0x36624f807c981409ull},
      {"hostile_skew_hub/parsed", 0x36624f807c981409ull},
      {"paper_dbpedia_hub/decoded", 0x25b82cb1dfe4ce1eull},
      {"paper_dbpedia_hub/generated", 0x03fc528135aa11cdull},
      {"paper_dbpedia_hub/parsed", 0x25b82cb1dfe4ce1eull},
      {"paper_google_uniform/decoded", 0x348b26ec28568225ull},
      {"paper_google_uniform/generated", 0x348b26ec28568225ull},
      {"paper_google_uniform/parsed", 0x348b26ec28568225ull},
  };
  return kGolden;
}

/// Batches of the spec's delta generator applied, one Patch each, before
/// a lineage digest is taken.
constexpr int kLineageBatches = 24;

/// "<spec name>/<algorithm>" → digest of the plan records after
/// kLineageBatches patches of the spec's compiled plan.
const std::map<std::string, uint64_t>& GoldenLineageDigests() {
  static const std::map<std::string, uint64_t> kGolden = {
      {"hostile_powerlaw_churn/EMMR", 0xf8af62dd87fb075full},
      {"hostile_powerlaw_churn/EMOptMR", 0x77c9fde324c79bcfull},
      {"hostile_powerlaw_churn/EMOptVC", 0x864c81c90af1c678ull},
      {"hostile_powerlaw_hub/EMMR", 0x09ae0e9d3b59073bull},
      {"hostile_powerlaw_hub/EMOptMR", 0xbae44d97dfc58296ull},
      {"hostile_powerlaw_hub/EMOptVC", 0xc3f31d9c445a6ce3ull},
  };
  return kGolden;
}

/// "<spec name>/<algorithm>" → digest of the result records ('A' pairs,
/// 'V' provenance index) after each of kLineageBatches seeded rematches,
/// folded in batch order.
const std::map<std::string, uint64_t>& GoldenRematchedResultDigests() {
  static const std::map<std::string, uint64_t> kGolden = {
      {"hostile_powerlaw_churn/EMMR", 0xb0e58e746ef9ca41ull},
      {"hostile_powerlaw_churn/EMOptMR", 0x25b76431956a45d1ull},
      {"hostile_powerlaw_churn/EMOptVC", 0x25b76431956a45d1ull},
      {"hostile_powerlaw_hub/EMMR", 0x032e45cd512f5a07ull},
      {"hostile_powerlaw_hub/EMOptMR", 0x032e45cd512f5a07ull},
      {"hostile_powerlaw_hub/EMOptVC", 0x032e45cd512f5a07ull},
  };
  return kGolden;
}

/// Renders a digest table as rows ready to paste into the source.
std::string FormatTable(const std::map<std::string, uint64_t>& digests) {
  std::string table;
  for (const auto& [name, digest] : digests) {
    char row[128];
    std::snprintf(row, sizeof(row), "      {\"%s\", 0x%016" PRIx64 "ull},\n",
                  name.c_str(), digest);
    table += row;
  }
  return table;
}

std::vector<std::filesystem::path> CommittedSpecs() {
  std::vector<std::filesystem::path> specs;
  for (const auto& entry :
       std::filesystem::directory_iterator(GKEYS_WORKLOADS_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      specs.push_back(entry.path());
    }
  }
  std::sort(specs.begin(), specs.end());
  return specs;
}

TEST(PlanGolden, CompiledPlanRecordsMatchTheGoldenTable) {
  const Algorithm algos[] = {Algorithm::kNaiveChase, Algorithm::kEmMr,
                             Algorithm::kEmVf2Mr,    Algorithm::kEmOptMr,
                             Algorithm::kEmVc,       Algorithm::kEmOptVc};
  std::vector<std::filesystem::path> specs = CommittedSpecs();
  ASSERT_FALSE(specs.empty());
  std::map<std::string, uint64_t> got;
  for (const auto& path : specs) {
    auto spec = LoadWorkloadSpec(path.string());
    ASSERT_TRUE(spec.ok()) << path << ": " << spec.status().message();
    auto ds = BuildWorkloadDataset(*spec);
    ASSERT_TRUE(ds.ok()) << path << ": " << ds.status().message();
    for (Algorithm a : algos) {
      auto plan = Matcher::Compile(ds->graph, ds->keys, PlanOptions::For(a, 2));
      ASSERT_TRUE(plan.ok()) << plan.status().message();
      MapStore store;
      storage::SnapshotMeta meta;
      meta.algorithm = a;
      ASSERT_TRUE(storage::PlanCodec::EncodePlan(*plan, store, &meta).ok());
      ASSERT_TRUE(storage::PlanCodec::EncodeMeta(meta, store).ok());
      got[spec->name + "/" + AlgorithmName(a)] = store.Digest();
    }
  }
  EXPECT_EQ(got, GoldenDigests())
      << "compiled plan records changed; if deliberate, the new table is:\n"
      << FormatTable(got);
}

TEST(PlanGolden, GraphRecordsMatchTheGoldenTable) {
  std::vector<std::filesystem::path> specs = CommittedSpecs();
  ASSERT_FALSE(specs.empty());
  std::map<std::string, uint64_t> got;
  for (const auto& path : specs) {
    auto spec = LoadWorkloadSpec(path.string());
    ASSERT_TRUE(spec.ok()) << path << ": " << spec.status().message();
    auto ds = BuildWorkloadDataset(*spec);
    ASSERT_TRUE(ds.ok()) << path << ": " << ds.status().message();
    MapStore generated, parsed, decoded;
    storage::SnapshotMeta meta;
    ASSERT_TRUE(
        storage::PlanCodec::EncodeGraph(ds->graph, generated, &meta).ok());
    got[spec->name + "/generated"] = generated.Digest();

    auto loaded = FastDeserializeGraphWithNames(SerializeGraph(ds->graph));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(
        storage::PlanCodec::EncodeGraph(loaded->graph, parsed, &meta).ok());
    got[spec->name + "/parsed"] = parsed.Digest();

    auto g = storage::PlanCodec::DecodeGraph(parsed, meta);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ASSERT_TRUE(storage::PlanCodec::EncodeGraph(*g, decoded, &meta).ok());
    got[spec->name + "/decoded"] = decoded.Digest();
  }
  EXPECT_EQ(got, GoldenGraphDigests())
      << "graph records changed; if deliberate, the new table is:\n"
      << FormatTable(got);
}

TEST(PlanGolden, PatchedLineageRecordsMatchTheGoldenTable) {
  // EMMR's candidates point at the d-neighbor sets themselves, the other
  // two at pairing-reduced sets; EMOptVC also patches Gp.
  const Algorithm algos[] = {Algorithm::kEmMr, Algorithm::kEmOptMr,
                             Algorithm::kEmOptVc};
  std::map<std::string, uint64_t> got;
  for (const char* name : {"hostile_powerlaw_churn", "hostile_powerlaw_hub"}) {
    auto spec = LoadWorkloadSpec(std::string(GKEYS_WORKLOADS_DIR) + "/" +
                                 name + ".json");
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status().message();
    for (Algorithm a : algos) {
      SCOPED_TRACE(spec->name + "/" + AlgorithmName(a));
      auto ds = BuildWorkloadDataset(*spec);
      ASSERT_TRUE(ds.ok()) << ds.status().message();
      auto plan = Matcher::Compile(ds->graph, ds->keys, PlanOptions::For(a, 2));
      ASSERT_TRUE(plan.ok()) << plan.status().message();
      auto gen = MakeDeltaGenerator(spec->delta_kind, spec->delta_config);
      ASSERT_TRUE(gen.ok()) << gen.status().message();
      for (int k = 0; k < kLineageBatches; ++k) {
        GraphDelta delta = (*gen)->Next(ds->graph);
        ASSERT_TRUE(ds->graph.Apply(delta).ok());
        auto patched = plan->Patch(delta);
        ASSERT_TRUE(patched.ok()) << patched.status().message();
        *plan = *std::move(patched);
      }
      MapStore store;
      storage::SnapshotMeta meta;
      meta.algorithm = a;
      ASSERT_TRUE(storage::PlanCodec::EncodePlan(*plan, store, &meta).ok());
      ASSERT_TRUE(storage::PlanCodec::EncodeMeta(meta, store).ok());
      got[spec->name + "/" + AlgorithmName(a)] = store.Digest();
    }
  }
  EXPECT_EQ(got, GoldenLineageDigests())
      << "patched plan records changed; if deliberate, the new table is:\n"
      << FormatTable(got);
}

TEST(PlanGolden, RematchedLineageResultRecordsMatchTheGoldenTable) {
  // The lineage specs again, now matched: every batch is applied, patched
  // and rematched on the seeded path, so the churn spec's removals run
  // retraction and every later index carries the survivors forward. One
  // processor keeps the derivation order deterministic.
  const Algorithm algos[] = {Algorithm::kEmMr, Algorithm::kEmOptMr,
                             Algorithm::kEmOptVc};
  std::map<std::string, uint64_t> got;
  for (const char* name : {"hostile_powerlaw_churn", "hostile_powerlaw_hub"}) {
    auto spec = LoadWorkloadSpec(std::string(GKEYS_WORKLOADS_DIR) + "/" +
                                 name + ".json");
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status().message();
    for (Algorithm a : algos) {
      SCOPED_TRACE(spec->name + "/" + AlgorithmName(a));
      auto ds = BuildWorkloadDataset(*spec);
      ASSERT_TRUE(ds.ok()) << ds.status().message();
      auto plan = Matcher::Compile(ds->graph, ds->keys, PlanOptions::For(a, 1));
      ASSERT_TRUE(plan.ok()) << plan.status().message();
      Matcher matcher(a);
      matcher.processors(1);
      auto result = matcher.Run(*plan);
      ASSERT_TRUE(result.ok()) << result.status().message();
      auto gen = MakeDeltaGenerator(spec->delta_kind, spec->delta_config);
      ASSERT_TRUE(gen.ok()) << gen.status().message();
      uint64_t digest = Fnv1a64("");
      size_t retracted = 0;
      for (int k = 0; k < kLineageBatches; ++k) {
        GraphDelta delta = (*gen)->Next(ds->graph);
        ASSERT_TRUE(ds->graph.Apply(delta).ok());
        auto patched = plan->Patch(delta);
        ASSERT_TRUE(patched.ok()) << patched.status().message();
        auto rematched = matcher.Rematch(*patched, *result, delta);
        ASSERT_TRUE(rematched.ok()) << rematched.status().message();
        retracted += rematched->stats.derivations_retracted;
        *plan = *std::move(patched);
        *result = *std::move(rematched);
        MapStore store;
        storage::SnapshotMeta meta;
        ASSERT_TRUE(
            storage::PlanCodec::EncodeResult(*result, store, &meta).ok());
        digest = Fnv1a64(std::to_string(store.Digest()), digest);
      }
      EXPECT_FALSE(result->derivations.empty());
      if (spec->name == "hostile_powerlaw_churn") {
        EXPECT_GT(retracted, 0u);
      }
      got[spec->name + "/" + AlgorithmName(a)] = digest;
    }
  }
  EXPECT_EQ(got, GoldenRematchedResultDigests())
      << "rematched result records changed; if deliberate, the new table "
         "is:\n"
      << FormatTable(got);
}

}  // namespace
}  // namespace gkeys
