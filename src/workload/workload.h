#ifndef GKEYS_WORKLOAD_WORKLOAD_H_
#define GKEYS_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "common/status.h"
#include "core/matcher.h"
#include "gen/hostile.h"
#include "gen/synthetic.h"
#include "workload/json.h"

namespace gkeys {

/// Declarative workload specs: one JSON file reproduces one experiment
/// exactly (dataset or generator, key set, delta distribution,
/// algorithms, scale, repetitions, seed), FESTIval-style. The harness
/// (RunWorkload) drives the full session surface — Compile → Run, then
/// per delta batch Apply → Patch → Rematch — and double-checks every run
/// with a built-in differential oracle:
///
///   * all algorithms under test produce byte-identical pair lists,
///   * the full run matches the generator's planted ground truth
///     (the generators guarantee planted == chase(G, Σ)), and
///   * after every delta batch, the seeded Rematch chain is byte-
///     identical to a from-scratch Compile → Run on the current graph —
///     including removal/churn batches, which exercise DRed retraction.
///
/// Results are emitted as the standard bench JSON rows
/// (common/json_writer.h), so workload runs land in the same BENCH_*.json
/// trajectory CI archives, and tools/perf_gate.py can diff them against
/// committed baselines.
///
/// Spec schema (all fields optional unless noted):
///
///   {
///     "name": "hostile_powerlaw_churn",      // row-name prefix (required)
///     "seed": 42,                            // master seed, default 42
///     "repetitions": 1,                      // timing reps, same seed
///     "processors": 2,
///     "algorithms": "all" | ["EMOptMR", ...],// default "all" (six)
///     "oracle": true,
///     "dataset": {
///       "generator": "synthetic" | "google" | "dbpedia" |
///                    "powerlaw" | "skew" | "neardup",   // required
///       "scale": 1.0,
///       ... per-generator fields, named after the config struct members
///       (gen/synthetic.h, gen/datasets.h, gen/hostile.h), e.g.
///       "num_leaves": 200, "alpha": 1.4, "hot_fraction": 0.6 ...
///     },
///     "deltas": {                            // absent = no delta phase
///       "kind": "uniform" | "hub" | "churn",
///       "batches": 6,
///       "ops_per_batch": 8,
///       "remove_fraction": 0.4,
///       "hub_fraction": 0.05,
///       "churn_repeats": 2,
///       "seed": 43                           // default spec seed + 1
///     }
///   }
///
/// Integer fields must hold an integral value in range: processors in
/// [1, kMaxProcessors], repetitions and churn_repeats at least 1, seeds
/// any uint64, every count at least 0. Anything else is InvalidArgument
/// naming the field, at parse time.
struct WorkloadSpec {
  std::string name;
  uint64_t seed = 42;
  int repetitions = 1;
  int processors = 2;
  std::vector<Algorithm> algorithms;
  bool oracle = true;

  std::string generator;
  double scale = 1.0;
  /// The raw "dataset" object: per-generator fields are read from it at
  /// dataset-build time so each generator keeps its own defaults.
  JsonValue dataset_params;

  std::string delta_kind;  // empty = no delta phase
  int delta_batches = 0;
  DeltaGenConfig delta_config;
};

/// Parses a spec document. InvalidArgument on schema violations (unknown
/// generator / algorithm / delta kind, missing name, bad JSON).
StatusOr<WorkloadSpec> ParseWorkloadSpec(std::string_view json_text);

/// ReadFile + ParseWorkloadSpec.
StatusOr<WorkloadSpec> LoadWorkloadSpec(const std::string& path);

/// Builds the spec's dataset (graph + keys + planted ground truth).
/// Deterministic in the spec.
StatusOr<SyntheticDataset> BuildWorkloadDataset(const WorkloadSpec& spec);

/// Execution knobs the CLI layers on top of a spec.
struct WorkloadRunOptions {
  /// Force the oracle off (spec default is on): skips every differential
  /// check, including the per-batch from-scratch runs — for timing-only
  /// sweeps over large scales.
  bool disable_oracle = false;
  /// Overrides spec.processors when > 0.
  int processors = 0;
};

/// One run's outcome.
struct WorkloadReport {
  /// One row per (rep, algorithm) full run plus one per (rep, algorithm,
  /// batch); names are "<spec>/<algo>/rep<r>[/delta<k>]". Field values
  /// ending in "_s" are timings; everything else is deterministic given
  /// the spec (the rerun-bit-identical test pins this).
  JsonRows rows;
  /// Differential comparisons performed (0 with the oracle off).
  size_t oracle_checks = 0;
  /// Final pair count per algorithm session (all equal when the oracle
  /// passed).
  size_t final_pairs = 0;
  /// Human-readable progress lines for the CLI.
  std::vector<std::string> log;
};

/// Runs the spec end to end. Returns the report, or the first error —
/// an engine Status, or DataLoss when a differential-oracle comparison
/// fails (the message names the diverging algorithm and stage).
StatusOr<WorkloadReport> RunWorkload(const WorkloadSpec& spec,
                                     const WorkloadRunOptions& opts = {});

}  // namespace gkeys

#endif  // GKEYS_WORKLOAD_WORKLOAD_H_
