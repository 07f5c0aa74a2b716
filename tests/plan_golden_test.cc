// Golden compile output: every committed workload spec's base dataset,
// compiled under each of the six PlanOptions::For(algo, 2) presets, must
// serialize to exactly the plan records pinned below. The digest is
// FNV-1a-64 over the PlanCodec plan records (meta + 'P' 'D' 'X' 'G' 'R',
// in key order), so any change to the candidate list, the d-neighbor
// slots, the pairing-reduced sets, the signature indexes, the dependency
// scans, the enumeration counters or the product-graph relations shows
// up here. A deliberate plan-format or plan-content change regenerates
// the table: the failure message prints each new row ready to paste.
//
// The graph records ('S' 'N' 'E') are pinned the same way, for three
// builds of each base graph: the generator's, its text parsed back by the
// two-phase parser, and that parse decoded from its own records. Any
// change to symbol ids, NodeIds or adjacency runs shows up there.
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
      {"hostile_neardup_uniform/EMMR", 0x852a621e4e10af59ull},
      {"hostile_neardup_uniform/EMOptMR", 0x863ec614329fa8d4ull},
      {"hostile_neardup_uniform/EMOptVC", 0x79f0e54bef56f935ull},
      {"hostile_neardup_uniform/EMVC", 0x4ab85103e52b7c44ull},
      {"hostile_neardup_uniform/EMVF2MR", 0x98e392c351601d6eull},
      {"hostile_neardup_uniform/NaiveChase", 0x221738b884595aedull},
      {"hostile_powerlaw_churn/EMMR", 0x2f41d474c9ec490aull},
      {"hostile_powerlaw_churn/EMOptMR", 0x39229a5794b6cb49ull},
      {"hostile_powerlaw_churn/EMOptVC", 0xff8703a09875b214ull},
      {"hostile_powerlaw_churn/EMVC", 0xea7065995616fe41ull},
      {"hostile_powerlaw_churn/EMVF2MR", 0x3c84022004b249d1ull},
      {"hostile_powerlaw_churn/NaiveChase", 0x9a94692d086dca17ull},
      {"hostile_powerlaw_hub/EMMR", 0xa70a8df0cd15d6c3ull},
      {"hostile_powerlaw_hub/EMOptMR", 0x90c0292e31b8c109ull},
      {"hostile_powerlaw_hub/EMOptVC", 0x107a9d784e4826b4ull},
      {"hostile_powerlaw_hub/EMVC", 0x8d79c90307db76b7ull},
      {"hostile_powerlaw_hub/EMVF2MR", 0xbc88c44b02fdda54ull},
      {"hostile_powerlaw_hub/NaiveChase", 0x0221ecb090607235ull},
      {"hostile_skew_hub/EMMR", 0xacd4999cde2ab1c0ull},
      {"hostile_skew_hub/EMOptMR", 0x42e533553c2d9207ull},
      {"hostile_skew_hub/EMOptVC", 0x2abddb23ba6116dcull},
      {"hostile_skew_hub/EMVC", 0xda64c6e39675d5cdull},
      {"hostile_skew_hub/EMVF2MR", 0x26de0c883cf1cc2dull},
      {"hostile_skew_hub/NaiveChase", 0x1d5c9040fe9845a2ull},
      {"paper_dbpedia_hub/EMMR", 0xbb7670a012602288ull},
      {"paper_dbpedia_hub/EMOptMR", 0xd82b64f7a1bfbe36ull},
      {"paper_dbpedia_hub/EMOptVC", 0x02436a7e3a3e5c0eull},
      {"paper_dbpedia_hub/EMVC", 0xe231564c34e85b9dull},
      {"paper_dbpedia_hub/EMVF2MR", 0x9950effef4982c9full},
      {"paper_dbpedia_hub/NaiveChase", 0x9d27e6a1975ea2e5ull},
      {"paper_google_uniform/EMMR", 0x87f9ca467efd9c86ull},
      {"paper_google_uniform/EMOptMR", 0x76707055b8a8f11bull},
      {"paper_google_uniform/EMOptVC", 0xc9763203c41f9a22ull},
      {"paper_google_uniform/EMVC", 0x4fafcced8e2172dbull},
      {"paper_google_uniform/EMVF2MR", 0x506a26b0c9c50bddull},
      {"paper_google_uniform/NaiveChase", 0xacbbab16ec2ade7aull},
  };
  return kGolden;
}

/// "<spec name>/<build>" → digest of the graph records EncodeGraph
/// writes for that build of the spec's base graph.
const std::map<std::string, uint64_t>& GoldenGraphDigests() {
  static const std::map<std::string, uint64_t> kGolden = {
      {"hostile_neardup_uniform/decoded", 0x19fec2a9d5dfd66full},
      {"hostile_neardup_uniform/generated", 0x19fec2a9d5dfd66full},
      {"hostile_neardup_uniform/parsed", 0x19fec2a9d5dfd66full},
      {"hostile_powerlaw_churn/decoded", 0x73a83dfe3d8e1e6cull},
      {"hostile_powerlaw_churn/generated", 0x4b402f43cf669ed6ull},
      {"hostile_powerlaw_churn/parsed", 0x73a83dfe3d8e1e6cull},
      {"hostile_powerlaw_hub/decoded", 0xabd42330ca457da7ull},
      {"hostile_powerlaw_hub/generated", 0x07410e09854083e8ull},
      {"hostile_powerlaw_hub/parsed", 0xabd42330ca457da7ull},
      {"hostile_skew_hub/decoded", 0x3cba83f53a7e0ef3ull},
      {"hostile_skew_hub/generated", 0x3cba83f53a7e0ef3ull},
      {"hostile_skew_hub/parsed", 0x3cba83f53a7e0ef3ull},
      {"paper_dbpedia_hub/decoded", 0xc1389936965d2cceull},
      {"paper_dbpedia_hub/generated", 0x3468e92396d8656bull},
      {"paper_dbpedia_hub/parsed", 0xc1389936965d2cceull},
      {"paper_google_uniform/decoded", 0x4d533730c0be63feull},
      {"paper_google_uniform/generated", 0x4d533730c0be63feull},
      {"paper_google_uniform/parsed", 0x4d533730c0be63feull},
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

}  // namespace
}  // namespace gkeys
