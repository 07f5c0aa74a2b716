#include "workload/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "workload/json.h"

#ifndef GKEYS_WORKLOADS_DIR
#error "workload_test needs GKEYS_WORKLOADS_DIR (set by CMakeLists.txt)"
#endif

namespace gkeys {
namespace {

std::string SpecPath(const std::string& file) {
  return std::string(GKEYS_WORKLOADS_DIR) + "/" + file;
}

/// Timings (`_s` suffix) and the parallel engines' effort counters
/// (iso_checks / messages vary with worker interleaving) are the only
/// fields the harness does not promise bit-for-bit.
bool IsNoisyField(const std::string& field) {
  if (field.size() >= 2 && field.compare(field.size() - 2, 2, "_s") == 0) {
    return true;
  }
  return field == "iso_checks" || field == "messages";
}

/// Rows with the noisy fields dropped: everything left must be
/// reproducible bit-for-bit across reruns of the same spec.
JsonRows StripTimings(const JsonRows& rows) {
  JsonRows out;
  for (const auto& [name, fields] : rows) {
    std::vector<std::pair<std::string, double>> kept;
    for (const auto& f : fields) {
      if (!IsNoisyField(f.first)) kept.push_back(f);
    }
    out.emplace_back(name, std::move(kept));
  }
  return out;
}

/// Compares `rows` with the committed baseline workloads/baselines/<file>:
/// every baseline row must be present under its name, with every field
/// but the noisy ones equal. Returns false when `file` has no baseline.
bool ExpectRowsMatchBaseline(const std::string& file, const JsonRows& rows) {
  std::ifstream in(SpecPath("baselines/" + file));
  if (!in) return false;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  StatusOr<JsonValue> doc = ParseJson(text);
  EXPECT_TRUE(doc.ok()) << file << ": " << doc.status().message();
  if (!doc.ok()) return true;
  EXPECT_TRUE(doc->is_array() && !doc->array().empty()) << file;
  for (const JsonValue& want : doc->array()) {
    const std::string name = want.StringOr("name", "");
    auto row = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
      return r.first == name;
    });
    if (row == rows.end()) {
      ADD_FAILURE() << file << ": no row named '" << name << "'";
      continue;
    }
    for (const auto& [field, value] : want.members()) {
      if (field == "name" || IsNoisyField(field)) continue;
      auto got = std::find_if(
          row->second.begin(), row->second.end(),
          [&field = field](const auto& f) { return f.first == field; });
      if (got == row->second.end()) {
        ADD_FAILURE() << name << ": no field " << field;
        continue;
      }
      EXPECT_EQ(got->second, value.number()) << name << " " << field;
    }
  }
  return true;
}

TEST(WorkloadSpec, MinimalSpecGetsDefaults) {
  auto spec = ParseWorkloadSpec(
      R"({"name": "t", "dataset": {"generator": "neardup"}})");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec->name, "t");
  EXPECT_EQ(spec->seed, 42u);
  EXPECT_EQ(spec->repetitions, 1);
  EXPECT_EQ(spec->algorithms.size(), 6u);  // "all"
  EXPECT_TRUE(spec->oracle);
  EXPECT_TRUE(spec->delta_kind.empty());
  EXPECT_EQ(spec->delta_batches, 0);
}

TEST(WorkloadSpec, ReadsAllFields) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "full",
    "seed": 7,
    "repetitions": 2,
    "processors": 3,
    "algorithms": ["EMOptMR", "NaiveChase"],
    "oracle": false,
    "dataset": {"generator": "powerlaw", "scale": 2.0, "num_hubs": 5},
    "deltas": {"kind": "churn", "batches": 3, "ops_per_batch": 4,
               "churn_repeats": 1, "seed": 99}
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->repetitions, 2);
  EXPECT_EQ(spec->processors, 3);
  ASSERT_EQ(spec->algorithms.size(), 2u);
  EXPECT_EQ(spec->algorithms[0], Algorithm::kEmOptMr);
  EXPECT_EQ(spec->algorithms[1], Algorithm::kNaiveChase);
  EXPECT_FALSE(spec->oracle);
  EXPECT_EQ(spec->generator, "powerlaw");
  EXPECT_DOUBLE_EQ(spec->scale, 2.0);
  EXPECT_EQ(spec->delta_kind, "churn");
  EXPECT_EQ(spec->delta_batches, 3);
  EXPECT_EQ(spec->delta_config.ops_per_batch, 4u);
  EXPECT_EQ(spec->delta_config.churn_repeats, 1);
  EXPECT_EQ(spec->delta_config.seed, 99u);
}

TEST(WorkloadSpec, DeltaSeedDefaultsToSpecSeedPlusOne) {
  auto spec = ParseWorkloadSpec(
      R"({"name": "t", "seed": 10,
          "dataset": {"generator": "neardup"},
          "deltas": {"kind": "uniform"}})");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->delta_config.seed, 11u);
}

TEST(WorkloadSpec, RejectsSchemaViolations) {
  const char* bad[] = {
      R"({"dataset": {"generator": "neardup"}})",               // no name
      R"({"name": "t"})",                                       // no dataset
      R"({"name": "t", "dataset": {"generator": "nope"}})",     // generator
      R"({"name": "t", "dataset": {"generator": "neardup"},
          "algorithms": ["Bogus"]})",                           // algorithm
      R"({"name": "t", "dataset": {"generator": "neardup"},
          "algorithms": []})",                                  // empty list
      R"({"name": "t", "dataset": {"generator": "neardup"},
          "deltas": {"kind": "sideways"}})",                    // delta kind
      R"({"name": "t" "dataset")",                              // bad JSON
  };
  for (const char* text : bad) {
    auto spec = ParseWorkloadSpec(text);
    EXPECT_FALSE(spec.ok()) << text;
    if (!spec.ok()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

// ---- Integer fields: integral and in range, or InvalidArgument ---------

/// A neardup spec with `top` members added at the top level, `dataset`
/// ones in "dataset" and, when nonempty, a uniform "deltas" object.
std::string SpecWith(const std::string& top, const std::string& dataset = "",
                     const std::string& deltas = "") {
  std::string text = R"({"name": "t", )" + top + (top.empty() ? "" : ", ") +
                     R"("dataset": {"generator": "neardup")" +
                     (dataset.empty() ? "" : ", " + dataset) + "}";
  if (!deltas.empty()) {
    text += R"(, "deltas": {"kind": "uniform", )" + deltas + "}";
  }
  return text + "}";
}

/// Expects the spec to fail to parse with InvalidArgument naming `field`.
void ExpectBadField(const std::string& text, const std::string& field) {
  SCOPED_TRACE(text);
  auto spec = ParseWorkloadSpec(text);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("\"" + field + "\""),
            std::string::npos)
      << spec.status().message();
}

TEST(WorkloadSpec, NonIntegralIntegerFieldIsInvalidArgument) {
  ExpectBadField(SpecWith(R"("processors": 2.7)"), "processors");
  ExpectBadField(SpecWith(R"("repetitions": 1.5)"), "repetitions");
  ExpectBadField(SpecWith("", R"("cluster_size": 2.5)"), "cluster_size");
  ExpectBadField(SpecWith("", "", R"("batches": 0.5)"), "batches");
}

TEST(WorkloadSpec, ProcessorsOutsideOneToMaxIsInvalidArgument) {
  for (const char* p : {"0", "-1", "257", "300"}) {
    ExpectBadField(SpecWith(std::string(R"("processors": )") + p),
                   "processors");
  }
  auto at_cap = ParseWorkloadSpec(SpecWith(R"("processors": 256)"));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().message();
  EXPECT_EQ(at_cap->processors, kMaxProcessors);
}

TEST(WorkloadSpec, ValueBeyondTheFieldsTypeIsInvalidArgument) {
  // Each of these used to be an out-of-range float-to-integer cast.
  ExpectBadField(SpecWith(R"("processors": 1e12)"), "processors");
  ExpectBadField(SpecWith(R"("repetitions": 1e12)"), "repetitions");
  ExpectBadField(SpecWith(R"("seed": 1e20)"), "seed");
  ExpectBadField(SpecWith("", R"("num_clusters": 1e12)"), "num_clusters");
  ExpectBadField(SpecWith("", "", R"("ops_per_batch": 1e12)"),
                 "ops_per_batch");
}

TEST(WorkloadSpec, NegativeSeedIsInvalidArgument) {
  ExpectBadField(SpecWith(R"("seed": -1)"), "seed");
  ExpectBadField(SpecWith("", "", R"("seed": -5)"), "seed");
}

TEST(WorkloadSpec, NegativeCountIsInvalidArgument) {
  ExpectBadField(SpecWith("", "", R"("ops_per_batch": -1)"), "ops_per_batch");
  ExpectBadField(SpecWith("", "", R"("batches": -2)"), "batches");
  ExpectBadField(SpecWith("", "", R"("churn_repeats": 0)"), "churn_repeats");
  ExpectBadField(SpecWith("", R"("cluster_size": -3)"), "cluster_size");
}

TEST(WorkloadSpec, NonNumberIntegerFieldIsInvalidArgument) {
  ExpectBadField(SpecWith(R"("processors": "two")"), "processors");
  ExpectBadField(SpecWith(R"("seed": true)"), "seed");
}

// ---- Real-valued fields: finite and in range, or InvalidArgument -------

/// A spec whose dataset uses `generator` with `field` set to `value`.
std::string DatasetSpec(const std::string& generator, const std::string& field,
                        const std::string& value) {
  return R"({"name": "t", "dataset": {"generator": ")" + generator +
         R"(", ")" + field + R"(": )" + value + "}}";
}

TEST(WorkloadSpec, NegativeHubFractionIsInvalidArgument) {
  // Parsed, this spec killed `gkeys_workload run` with SIGSEGV: the hub
  // delta generator cast entities.size() * hub_fraction to a count.
  ExpectBadField(R"({"name": "t", "dataset": {"generator": "neardup"},
                     "deltas": {"kind": "hub", "hub_fraction": -1}})",
                 "hub_fraction");
  ExpectBadField(SpecWith("", "", R"("remove_fraction": -0.5)"),
                 "remove_fraction");
}

TEST(WorkloadSpec, FractionAboveOneIsInvalidArgument) {
  ExpectBadField(SpecWith("", "", R"("remove_fraction": 7.5)"),
                 "remove_fraction");
  ExpectBadField(SpecWith("", "", R"("hub_fraction": 1.01)"), "hub_fraction");
  ExpectBadField(DatasetSpec("synthetic", "duplicate_fraction", "2"),
                 "duplicate_fraction");
  ExpectBadField(DatasetSpec("powerlaw", "chained_fraction", "1.5"),
                 "chained_fraction");
  ExpectBadField(DatasetSpec("skew", "hot_fraction", "3"), "hot_fraction");
  // Both ends of [0, 1] are fractions.
  auto edges = ParseWorkloadSpec(
      SpecWith("", "", R"("remove_fraction": 0, "hub_fraction": 1)"));
  ASSERT_TRUE(edges.ok()) << edges.status().message();
  EXPECT_EQ(edges->delta_config.remove_fraction, 0.0);
  EXPECT_EQ(edges->delta_config.hub_fraction, 1.0);
}

TEST(WorkloadSpec, ScaleOutsideTheGenerateRangeIsInvalidArgument) {
  // `gkeys generate --scale` accepts [0.001, 10000]; a negative scale
  // used to build a graph of 18 nodes and write rows for it.
  for (const char* scale : {"-3", "0", "0.0009", "10001", "1e999"}) {
    ExpectBadField(SpecWith("", std::string(R"("scale": )") + scale),
                   "scale");
  }
  for (double scale : {0.001, 10000.0}) {
    auto spec = ParseWorkloadSpec(
        SpecWith("", R"("scale": )" + std::to_string(scale)));
    ASSERT_TRUE(spec.ok()) << spec.status().message();
    EXPECT_EQ(spec->scale, scale);
  }
}

TEST(WorkloadSpec, NonPositiveAlphaIsInvalidArgument) {
  for (const char* alpha : {"0", "-1.2"}) {
    ExpectBadField(DatasetSpec("powerlaw", "alpha", alpha), "alpha");
  }
}

TEST(WorkloadSpec, NonNumberRealFieldIsInvalidArgument) {
  // "big" used to fall back to the default scale 1.0 without a word.
  ExpectBadField(SpecWith("", R"("scale": "big")"), "scale");
  ExpectBadField(SpecWith("", "", R"("remove_fraction": true)"),
                 "remove_fraction");
  ExpectBadField(DatasetSpec("powerlaw", "alpha", R"("steep")"), "alpha");
}

TEST(WorkloadRun, CommittedSpecRerunsBitIdentically) {
  auto spec = LoadWorkloadSpec(SpecPath("hostile_neardup_uniform.json"));
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  auto a = RunWorkload(*spec);
  auto b = RunWorkload(*spec);
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(b.ok()) << b.status().message();
  EXPECT_FALSE(a->rows.empty());
  // Same spec, same seed: every row and every non-noisy field must match
  // bit for bit. (Timings and the parallel engines' effort counters are
  // the only nondeterminism the harness emits.)
  EXPECT_EQ(StripTimings(a->rows), StripTimings(b->rows));
  EXPECT_EQ(a->final_pairs, b->final_pairs);
  EXPECT_EQ(a->oracle_checks, b->oracle_checks);
}

TEST(WorkloadRun, RowNamesFollowTheConvention) {
  auto spec = ParseWorkloadSpec(
      R"({"name": "conv", "algorithms": ["NaiveChase", "EMOptMR"],
          "dataset": {"generator": "neardup", "num_clusters": 4},
          "deltas": {"kind": "uniform", "batches": 2}})");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  auto r = RunWorkload(*spec);
  ASSERT_TRUE(r.ok()) << r.status().message();
  // 2 full rows + 2 algorithms * 2 batches delta rows.
  ASSERT_EQ(r->rows.size(), 6u);
  EXPECT_EQ(r->rows[0].first, "conv/NaiveChase/rep0");
  EXPECT_EQ(r->rows[1].first, "conv/EMOptMR/rep0");
  EXPECT_EQ(r->rows[2].first, "conv/NaiveChase/rep0/delta0");
  EXPECT_EQ(r->rows[3].first, "conv/EMOptMR/rep0/delta0");
  EXPECT_EQ(r->rows[5].first, "conv/EMOptMR/rep0/delta1");
  EXPECT_GT(r->oracle_checks, 0u);
}

TEST(WorkloadRun, OracleCanBeDisabled) {
  auto spec = ParseWorkloadSpec(
      R"({"name": "noor", "algorithms": ["EMMR"],
          "dataset": {"generator": "neardup", "num_clusters": 3}})");
  ASSERT_TRUE(spec.ok());
  WorkloadRunOptions opts;
  opts.disable_oracle = true;
  auto r = RunWorkload(*spec, opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->oracle_checks, 0u);
}

TEST(WorkloadRun, RepetitionsEmitOneRowSetEach) {
  auto spec = ParseWorkloadSpec(
      R"({"name": "reps", "repetitions": 2, "algorithms": ["EMOptVC"],
          "dataset": {"generator": "skew", "num_items": 20}})");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  auto r = RunWorkload(*spec);
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].first, "reps/EMOptVC/rep0");
  EXPECT_EQ(r->rows[1].first, "reps/EMOptVC/rep1");
  // Reps share the seed: identical non-timing fields.
  EXPECT_EQ(StripTimings({r->rows[0]}).front().second,
            StripTimings({r->rows[1]}).front().second);
}

/// Every committed spec must pass its own differential oracle across all
/// listed algorithms, including the removal/churn delta batches — this is
/// the acceptance bar for shipping a spec in workloads/. A spec with a
/// committed baseline must also reproduce its rows exactly, noisy fields
/// aside: the same check the perf gate makes on exact fields.
TEST(WorkloadRun, AllCommittedSpecsPassTheOracle) {
  int baselines = 0;
  const char* specs[] = {
      "hostile_powerlaw_churn.json", "hostile_powerlaw_hub.json",
      "hostile_skew_hub.json",       "hostile_neardup_uniform.json",
      "paper_google_uniform.json",   "paper_dbpedia_hub.json",
  };
  for (const char* file : specs) {
    auto spec = LoadWorkloadSpec(SpecPath(file));
    ASSERT_TRUE(spec.ok()) << file << ": " << spec.status().message();
    EXPECT_TRUE(spec->oracle) << file << " must ship with the oracle on";
    EXPECT_EQ(spec->algorithms.size(), 6u) << file;
    auto r = RunWorkload(*spec);
    ASSERT_TRUE(r.ok()) << file << ": " << r.status().message();
    EXPECT_GT(r->oracle_checks, 0u) << file;
    EXPECT_GT(r->rows.size(), 6u) << file << " should exercise deltas";
    baselines += ExpectRowsMatchBaseline(file, r->rows);
  }
  EXPECT_EQ(baselines, 6);
}

}  // namespace
}  // namespace gkeys
