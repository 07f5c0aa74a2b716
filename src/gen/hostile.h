#ifndef GKEYS_GEN_HOSTILE_H_
#define GKEYS_GEN_HOSTILE_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/rng.h"
#include "common/status.h"
#include "gen/synthetic.h"
#include "graph/delta.h"
#include "graph/graph.h"

namespace gkeys {

/// Hostile workload generators: graph shapes and delta distributions the
/// friendly datasets (gen/synthetic.h, gen/datasets.h) never produce, each
/// targeting one tuning assumption the optimized engines rely on. Like the
/// synthetic generator, every dataset generator emits its keys and graph
/// from one schema, with unique values everywhere except the planted
/// duplicates — so `planted` is exactly chase(G, Σ) and every run has an
/// exact built-in ground truth (tests/hostile_gen_test.cc pins this, and
/// the workload harness' differential oracle rides on it).

// ---------------------------------------------------------------------------
// Dataset generators (graph + keys + exact planted ground truth)
// ---------------------------------------------------------------------------

/// Power-law degree graph: a small `hub` type (value-based key) and a large
/// `leaf` type whose recursive key references a hub; leaves pick their hub
/// by a Zipf(alpha) draw, so the top hubs accumulate in-degrees orders of
/// magnitude above the median. Hostile to anything that walks incident
/// edges of a candidate's neighborhood (d-neighbors, pairing, plan
/// patching): the d-ball of a hot hub intersects a large share of all
/// leaves, so any delta at a hub lands inside many leaves' d-balls.
struct PowerLawConfig {
  uint64_t seed = 17;
  int num_hubs = 12;
  int num_leaves = 160;
  /// Zipf exponent for the leaf → hub draw (higher = more skew).
  double alpha = 1.2;
  /// Planted duplicate pairs among hubs / among leaves.
  int hub_dup_pairs = 2;
  int leaf_dup_pairs = 10;
  /// Of the leaf duplicate pairs, the fraction whose hubs are a planted
  /// hub pair (resolving only after that pair merges) instead of the same
  /// hub node.
  double chained_fraction = 0.5;
  /// Extra non-key `follows` edges per leaf, targets Zipf-drawn over
  /// leaves — fattens neighborhoods without touching the key alphabet.
  int follows_per_leaf = 2;
  double scale = 1.0;
};
SyntheticDataset GeneratePowerLaw(const PowerLawConfig& config);

/// Skewed key selectivity: one `item` type whose key has exactly ONE
/// signature source (a single value path) plus a recursive reference to an
/// `anchor` entity. A `hot_fraction` share of items all carry the same
/// literal on that source, so the only blocking bucket available is one
/// giant bucket: |L| grows quadratically in the hot set while almost
/// nothing in it is identifiable (every hot non-duplicate references its
/// own unique anchor). Hostile to signature blocking's most-selective-
/// source assumption and to any cost model reading candidates_initial.
struct SkewedSelectivityConfig {
  uint64_t seed = 23;
  int num_items = 120;
  /// Share of items whose key-source value is the shared hot literal.
  double hot_fraction = 0.5;
  /// Planted duplicate pairs (drawn from the hot set, so they hide inside
  /// the giant bucket).
  int dup_pairs = 6;
  /// Of those, the fraction resolving through a planted anchor pair
  /// (round 2) instead of a shared anchor node (round 1).
  double chained_fraction = 0.5;
  double scale = 1.0;
};
SyntheticDataset GenerateSkewedSelectivity(const SkewedSelectivityConfig& config);

/// Adversarial near-duplicate clusters: `cluster_size` products share one
/// cluster token on the key's value path, but each references its own
/// `part`; only the one true pair's parts agree on the part key's value.
/// Every cluster therefore contributes ~k²/2 candidates that all fail
/// isomorphism checks until (and unless) the part pair merges — a
/// dependency-wakeup and iso-check stress test where confirmed/candidates
/// approaches zero. Hostile to the §4.2 incremental/dependency
/// optimizations and to iso-check budgets.
struct NearDuplicateConfig {
  uint64_t seed = 31;
  int num_clusters = 12;
  /// Products per cluster (>= 2); exactly one pair per cluster is a true
  /// duplicate.
  int cluster_size = 6;
  double scale = 1.0;
};
SyntheticDataset GenerateNearDuplicates(const NearDuplicateConfig& config);

// ---------------------------------------------------------------------------
// Delta generators (reproducible hostile delta streams)
// ---------------------------------------------------------------------------

/// Tuning for one delta stream. Semantics per kind:
///   uniform — ops spread uniformly: random removals of existing triples
///             and additions of fresh attribute edges / entities.
///   hub     — ops concentrate on the top `hub_fraction` highest-degree
///             entities: edges incident to hubs are removed and new
///             entities attach to hubs, so every batch dirties the widest
///             possible region (worst case for MatchPlan::Patch).
///   churn   — add+remove the same region repeatedly: a keyed entity's
///             out-triples are removed in one batch and re-added verbatim
///             in the next, `churn_repeats` times per region, before
///             moving to the next region. Every removal batch retracts
///             real derivations (DRed) and every re-add batch re-derives
///             them — the retraction path's worst case.
struct DeltaGenConfig {
  uint64_t seed = 1;
  /// Target staged triple operations per batch (best effort: a batch may
  /// stage fewer when the graph runs out of eligible triples).
  size_t ops_per_batch = 8;
  /// uniform/hub: share of ops that are removals.
  double remove_fraction = 0.4;
  /// hub: share of entities (by descending degree) counted as hubs.
  double hub_fraction = 0.05;
  /// churn: remove+re-add cycles per region before moving on.
  int churn_repeats = 2;
};

/// A reproducible delta stream: Next() stages one batch against the
/// CURRENT graph (ids resolve against it, so call it after the previous
/// batch was applied). Deterministic in (kind, config, graph evolution):
/// two sessions applying the same batches see identical streams — the
/// workload harness runs one generator per algorithm under test and the
/// differential oracle relies on the streams matching.
class DeltaGenerator {
 public:
  virtual ~DeltaGenerator() = default;
  /// Stages the next batch. The delta may be empty when the graph has no
  /// eligible triples left (callers may stop or skip).
  virtual GraphDelta Next(const Graph& g) = 0;
};

/// Factory over the kinds above ("uniform", "hub", "churn").
/// InvalidArgument for an unknown kind.
StatusOr<std::unique_ptr<DeltaGenerator>> MakeDeltaGenerator(
    std::string_view kind, const DeltaGenConfig& config);

}  // namespace gkeys

#endif  // GKEYS_GEN_HOSTILE_H_
