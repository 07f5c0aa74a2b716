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

#include "common/hash.h"
#include "core/matcher.h"
#include "storage/plan_codec.h"
#include "workload/workload.h"

#ifndef GKEYS_WORKLOADS_DIR
#error "plan_golden_test needs GKEYS_WORKLOADS_DIR (set by CMakeLists.txt)"
#endif

namespace gkeys {
namespace {

/// Ordered in-memory Store: PlanCodec writes its records here so the
/// digest walks them in key order without touching the filesystem.
class MapStore : public storage::Store {
 public:
  Status Put(std::string key, std::string value) override {
    records_[std::move(key)] = std::move(value);
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  StatusOr<std::string_view> Get(std::string_view key) const override {
    auto it = records_.find(std::string(key));
    if (it == records_.end()) return Status::NotFound(std::string(key));
    return std::string_view(it->second);
  }
  Status Scan(std::string_view prefix, const ScanFn& fn) const override {
    for (auto it = records_.lower_bound(std::string(prefix));
         it != records_.end() && it->first.starts_with(prefix); ++it) {
      GKEYS_RETURN_IF_ERROR(fn(it->first, it->second));
    }
    return Status::OK();
  }

  /// FNV-1a-64 over every (key, value), each length-prefixed.
  uint64_t Digest() const {
    uint64_t h = Fnv1a64("");
    auto feed = [&h](std::string_view bytes) {
      std::string len = std::to_string(bytes.size()) + ":";
      h = Fnv1a64(len, h);
      h = Fnv1a64(bytes, h);
    };
    for (const auto& [key, value] : records_) {
      feed(key);
      feed(value);
    }
    return h;
  }

 private:
  std::map<std::string, std::string> records_;
};

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
  std::string table;
  for (const auto& [name, digest] : got) {
    char row[128];
    std::snprintf(row, sizeof(row), "      {\"%s\", 0x%016" PRIx64 "ull},\n",
                  name.c_str(), digest);
    table += row;
  }
  EXPECT_EQ(got, GoldenDigests())
      << "compiled plan records changed; if deliberate, the new table is:\n"
      << table;
}

}  // namespace
}  // namespace gkeys
