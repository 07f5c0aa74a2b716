#include "workload/workload.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "core/match_plan.h"
#include "gen/datasets.h"
#include "io/triples.h"

namespace gkeys {

namespace {

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kNaiveChase, Algorithm::kEmMr,  Algorithm::kEmVf2Mr,
    Algorithm::kEmOptMr,    Algorithm::kEmVc,  Algorithm::kEmOptVc,
};

StatusOr<Algorithm> AlgorithmByName(const std::string& name) {
  for (Algorithm a : kAllAlgorithms) {
    if (AlgorithmName(a) == name) return a;
  }
  return Status::InvalidArgument(
      "unknown algorithm '" + name +
      "' (expected NaiveChase, EMMR, EMVF2MR, EMOptMR, EMVC, or EMOptVC)");
}

/// Reads number field `key` of `obj` into `*out`, kept when the field is
/// absent. InvalidArgument naming the field unless the value is in
/// [lo, hi] ((lo, hi] with `open_lo`), integral for an integer T and
/// finite for a real one (the generators scale counts by those).
template <typename T>
Status ReadNumber(const JsonValue& obj, std::string_view key,
                  std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                  T* out, bool open_lo = false) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  const double x = v->is_number() ? v->number() : std::nan("");
  constexpr bool kInt = std::is_integral_v<T>;
  // hi + 1.0 rounds to 2^64 for a 64-bit hi, so `<` admits exactly the
  // integral doubles that convert to a value in range.
  if (kInt ? x == std::floor(x) && x >= static_cast<double>(lo) &&
                 x < static_cast<double>(hi) + 1.0
           : std::isfinite(x) && (open_lo ? x > lo : x >= lo) && x <= hi) {
    *out = static_cast<T>(x);
    return Status::OK();
  }
  auto text = [](double n) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", n);
    return std::string(buf);
  };
  auto bound = [&](T n) { return kInt ? std::to_string(n) : text(n); };
  return Status::InvalidArgument(
      "workload spec field \"" + std::string(key) + "\" must be " +
      (kInt ? "an integer in [" : open_lo ? "a finite number in ("
                                          : "a finite number in [") +
      bound(lo) + ", " + bound(hi) + "], got " +
      (v->is_number() ? text(x) : "a non-number"));
}

std::string RowName(const WorkloadSpec& spec, Algorithm a, int rep) {
  return spec.name + "/" + AlgorithmName(a) + "/rep" + std::to_string(rep);
}

/// The standard bench field layout (bench/bench_util.h JsonMatchRow) so
/// workload rows land in the same BENCH_*.json trajectory.
std::vector<std::pair<std::string, double>> FullRunFields(
    const Graph& g, const MatchPlan& plan, const MatchResult& r) {
  const EmStats& s = r.stats;
  return {
      {"nodes", static_cast<double>(g.NumNodes())},
      {"triples", static_cast<double>(g.NumTriples())},
      {"prep_s", s.prep_seconds},
      {"run_s", s.run_seconds},
      {"pairs", static_cast<double>(s.confirmed)},
      {"candidates_initial", static_cast<double>(s.candidates_initial)},
      {"candidates_blocked", static_cast<double>(s.candidates_blocked)},
      {"candidates", static_cast<double>(s.candidates)},
      {"rounds", static_cast<double>(s.rounds)},
      {"iso_checks", static_cast<double>(s.iso_checks)},
      {"messages", static_cast<double>(s.messages)},
      {"plan_bytes", static_cast<double>(plan.memory_bytes() +
                                         ProvenanceIndexBytes(r.derivations))},
  };
}

std::vector<std::pair<std::string, double>> DeltaBatchFields(
    int batch, size_t added, size_t removed, const MatchPlan& patched,
    const MatchResult& r) {
  const EmStats& s = r.stats;
  return {
      {"batch", static_cast<double>(batch)},
      {"added", static_cast<double>(added)},
      {"removed", static_cast<double>(removed)},
      {"patch_s", patched.compile_seconds()},
      {"run_s", s.run_seconds},
      {"pairs", static_cast<double>(r.pairs.size())},
      {"affected_entities",
       static_cast<double>(patched.num_affected_entities())},
      {"dirty_candidates",
       static_cast<double>(patched.dirty_candidates().size())},
      {"seeded", static_cast<double>(s.rematch_seeded)},
      {"derivations_retracted",
       static_cast<double>(s.derivations_retracted)},
      {"pairs_retracted", static_cast<double>(s.pairs_retracted)},
      {"iso_checks", static_cast<double>(s.iso_checks)},
      {"messages", static_cast<double>(s.messages)},
  };
}

}  // namespace

StatusOr<WorkloadSpec> ParseWorkloadSpec(std::string_view json_text) {
  StatusOr<JsonValue> doc = ParseJson(json_text);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return Status::InvalidArgument("workload spec must be a JSON object");
  }

  WorkloadSpec spec;
  spec.name = doc->StringOr("name", "");
  if (spec.name.empty()) {
    return Status::InvalidArgument("workload spec requires a \"name\"");
  }
  GKEYS_RETURN_IF_ERROR(
      ReadNumber(*doc, "seed", uint64_t{0}, UINT64_MAX, &spec.seed));
  GKEYS_RETURN_IF_ERROR(
      ReadNumber(*doc, "repetitions", 1, INT_MAX, &spec.repetitions));
  GKEYS_RETURN_IF_ERROR(
      ReadNumber(*doc, "processors", 1, kMaxProcessors, &spec.processors));
  spec.oracle = doc->BoolOr("oracle", true);

  const JsonValue* algos = doc->Find("algorithms");
  if (algos == nullptr || (algos->is_string() && algos->string() == "all")) {
    spec.algorithms.assign(std::begin(kAllAlgorithms),
                           std::end(kAllAlgorithms));
  } else if (algos->is_array() && !algos->array().empty()) {
    for (const JsonValue& v : algos->array()) {
      if (!v.is_string()) {
        return Status::InvalidArgument(
            "\"algorithms\" must be \"all\" or an array of names");
      }
      StatusOr<Algorithm> a = AlgorithmByName(v.string());
      if (!a.ok()) return a.status();
      spec.algorithms.push_back(*a);
    }
  } else {
    return Status::InvalidArgument(
        "\"algorithms\" must be \"all\" or a non-empty array of names");
  }

  const JsonValue* dataset = doc->Find("dataset");
  if (dataset == nullptr || !dataset->is_object()) {
    return Status::InvalidArgument(
        "workload spec requires a \"dataset\" object");
  }
  spec.generator = dataset->StringOr("generator", "");
  // The range `gkeys generate --scale` accepts.
  GKEYS_RETURN_IF_ERROR(
      ReadNumber(*dataset, "scale", 0.001, 10000, &spec.scale));
  spec.dataset_params = *dataset;
  // Validate the generator name now, not at run time.
  {
    WorkloadSpec probe = spec;
    probe.scale = 0.01;  // tiny: the build itself validates the name
    StatusOr<SyntheticDataset> ds = BuildWorkloadDataset(probe);
    if (!ds.ok()) return ds.status();
  }

  const JsonValue* deltas = doc->Find("deltas");
  if (deltas != nullptr) {
    if (!deltas->is_object()) {
      return Status::InvalidArgument("\"deltas\" must be an object");
    }
    spec.delta_kind = deltas->StringOr("kind", "uniform");
    spec.delta_batches = 4;
    GKEYS_RETURN_IF_ERROR(
        ReadNumber(*deltas, "batches", 0, INT_MAX, &spec.delta_batches));
    DeltaGenConfig& dc = spec.delta_config;
    dc.seed = spec.seed + 1;
    GKEYS_RETURN_IF_ERROR(
        ReadNumber(*deltas, "seed", uint64_t{0}, UINT64_MAX, &dc.seed));
    GKEYS_RETURN_IF_ERROR(ReadNumber(*deltas, "ops_per_batch", size_t{0},
                                     size_t{INT_MAX}, &dc.ops_per_batch));
    GKEYS_RETURN_IF_ERROR(
        ReadNumber(*deltas, "churn_repeats", 1, INT_MAX, &dc.churn_repeats));
    GKEYS_RETURN_IF_ERROR(
        ReadNumber(*deltas, "remove_fraction", 0, 1, &dc.remove_fraction));
    GKEYS_RETURN_IF_ERROR(
        ReadNumber(*deltas, "hub_fraction", 0, 1, &dc.hub_fraction));
    StatusOr<std::unique_ptr<DeltaGenerator>> probe =
        MakeDeltaGenerator(spec.delta_kind, dc);
    if (!probe.ok()) return probe.status();
  }
  return spec;
}

StatusOr<WorkloadSpec> LoadWorkloadSpec(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseWorkloadSpec(*text);
}

StatusOr<SyntheticDataset> BuildWorkloadDataset(const WorkloadSpec& spec) {
  const JsonValue& d = spec.dataset_params;
  // Reads a non-negative count or a fraction in [0, 1]; the first bad
  // field is returned below.
  Status bad;
  auto geti = [&](std::string_view key, int& field) {
    if (bad.ok()) bad = ReadNumber(d, key, 0, INT_MAX, &field);
  };
  auto getf = [&](std::string_view key, double& field) {
    if (bad.ok()) bad = ReadNumber(d, key, 0, 1, &field);
  };
  if (spec.generator == "synthetic") {
    SyntheticConfig c;
    c.seed = spec.seed;
    c.scale = spec.scale;
    geti("num_groups", c.num_groups);
    geti("chain_length", c.chain_length);
    geti("radius", c.radius);
    geti("entities_per_type", c.entities_per_type);
    getf("duplicate_fraction", c.duplicate_fraction);
    getf("chained_fraction", c.chained_fraction);
    geti("noise_edges_per_entity", c.noise_edges_per_entity);
    geti("noise_predicates", c.noise_predicates);
    GKEYS_RETURN_IF_ERROR(bad);
    return GenerateSynthetic(c);
  }
  if (spec.generator == "google") {
    GoogleSimConfig c;
    c.seed = spec.seed;
    c.scale = spec.scale;
    geti("num_persons", c.num_persons);
    geti("num_employers", c.num_employers);
    geti("num_universities", c.num_universities);
    geti("num_places", c.num_places);
    geti("num_majors", c.num_majors);
    geti("duplicate_pairs", c.duplicate_pairs);
    GKEYS_RETURN_IF_ERROR(bad);
    return GenerateGoogleSim(c);
  }
  if (spec.generator == "dbpedia") {
    DBpediaSimConfig c;
    c.seed = spec.seed;
    c.scale = spec.scale;
    geti("num_artists", c.num_artists);
    geti("num_albums", c.num_albums);
    geti("num_companies", c.num_companies);
    geti("num_books", c.num_books);
    geti("num_locations", c.num_locations);
    geti("num_streets", c.num_streets);
    geti("duplicate_pairs", c.duplicate_pairs);
    GKEYS_RETURN_IF_ERROR(bad);
    return GenerateDBpediaSim(c);
  }
  if (spec.generator == "powerlaw") {
    PowerLawConfig c;
    c.seed = spec.seed;
    c.scale = spec.scale;
    geti("num_hubs", c.num_hubs);
    geti("num_leaves", c.num_leaves);
    if (bad.ok()) bad = ReadNumber(d, "alpha", 0, HUGE_VAL, &c.alpha, true);
    geti("hub_dup_pairs", c.hub_dup_pairs);
    geti("leaf_dup_pairs", c.leaf_dup_pairs);
    getf("chained_fraction", c.chained_fraction);
    geti("follows_per_leaf", c.follows_per_leaf);
    GKEYS_RETURN_IF_ERROR(bad);
    return GeneratePowerLaw(c);
  }
  if (spec.generator == "skew") {
    SkewedSelectivityConfig c;
    c.seed = spec.seed;
    c.scale = spec.scale;
    geti("num_items", c.num_items);
    getf("hot_fraction", c.hot_fraction);
    geti("dup_pairs", c.dup_pairs);
    getf("chained_fraction", c.chained_fraction);
    GKEYS_RETURN_IF_ERROR(bad);
    return GenerateSkewedSelectivity(c);
  }
  if (spec.generator == "neardup") {
    NearDuplicateConfig c;
    c.seed = spec.seed;
    c.scale = spec.scale;
    geti("num_clusters", c.num_clusters);
    geti("cluster_size", c.cluster_size);
    GKEYS_RETURN_IF_ERROR(bad);
    return GenerateNearDuplicates(c);
  }
  return Status::InvalidArgument(
      "unknown dataset generator '" + spec.generator +
      "' (expected synthetic, google, dbpedia, powerlaw, skew, or neardup)");
}

StatusOr<WorkloadReport> RunWorkload(const WorkloadSpec& spec,
                                     const WorkloadRunOptions& opts) {
  WorkloadReport report;
  const bool oracle = spec.oracle && !opts.disable_oracle;
  const int p = opts.processors > 0 ? opts.processors : spec.processors;
  if (spec.algorithms.empty()) {
    return Status::InvalidArgument("workload spec lists no algorithms");
  }

  for (int rep = 0; rep < spec.repetitions; ++rep) {
    StatusOr<SyntheticDataset> ds = BuildWorkloadDataset(spec);
    if (!ds.ok()) return ds.status();

    // One independent session per algorithm: its own graph copy (Apply
    // mutates), plan chain, result chain, and delta stream. The streams
    // are identical across sessions (same generator seed over the same
    // graph evolution), which is what makes the cross-algorithm
    // comparison differential.
    struct Session {
      Algorithm algo;
      Graph g;
      MatchPlan plan;
      MatchResult res;
      std::unique_ptr<DeltaGenerator> gen;
    };
    std::vector<std::unique_ptr<Session>> sessions;

    for (Algorithm a : spec.algorithms) {
      auto s = std::make_unique<Session>();
      s->algo = a;
      s->g = ds->graph;
      StatusOr<MatchPlan> plan =
          Matcher::Compile(s->g, ds->keys, PlanOptions::For(a, p));
      if (!plan.ok()) return plan.status();
      s->plan = std::move(*plan);
      Matcher m(a);
      m.processors(p);
      StatusOr<MatchResult> r = m.Run(s->plan);
      if (!r.ok()) return r.status();
      s->res = std::move(*r);
      report.rows.emplace_back(RowName(spec, a, rep),
                               FullRunFields(s->g, s->plan, s->res));
      sessions.push_back(std::move(s));
    }

    if (oracle) {
      for (const auto& s : sessions) {
        if (s->res.pairs != ds->planted) {
          return Status::DataLoss(
              "differential oracle: " + AlgorithmName(s->algo) + " found " +
              std::to_string(s->res.pairs.size()) + " pairs but the planted "
              "ground truth has " + std::to_string(ds->planted.size()) +
              " (spec '" + spec.name + "', full run)");
        }
        ++report.oracle_checks;
      }
    }
    {
      char line[160];
      std::snprintf(line, sizeof line,
                    "rep%d full: %zu algorithms, %zu pairs%s", rep,
                    sessions.size(), sessions[0]->res.pairs.size(),
                    oracle ? ", oracle ok" : "");
      report.log.emplace_back(line);
    }

    if (!spec.delta_kind.empty() && spec.delta_batches > 0) {
      for (auto& s : sessions) {
        StatusOr<std::unique_ptr<DeltaGenerator>> gen =
            MakeDeltaGenerator(spec.delta_kind, spec.delta_config);
        if (!gen.ok()) return gen.status();
        s->gen = std::move(*gen);
      }
      for (int k = 0; k < spec.delta_batches; ++k) {
        for (auto& s : sessions) {
          GraphDelta delta = s->gen->Next(s->g);
          size_t added = delta.num_added_triples();
          size_t removed = delta.num_removed_triples();
          StatusOr<std::vector<NodeId>> dirty = s->g.Apply(delta);
          if (!dirty.ok()) return dirty.status();
          StatusOr<MatchPlan> patched = s->plan.Patch(delta);
          if (!patched.ok()) return patched.status();
          StatusOr<MatchResult> r = Matcher(s->algo).processors(p).Rematch(
              *patched, s->res, delta);
          if (!r.ok()) return r.status();
          s->plan = std::move(*patched);
          s->res = std::move(*r);
          report.rows.emplace_back(
              RowName(spec, s->algo, rep) + "/delta" + std::to_string(k),
              DeltaBatchFields(k, added, removed, s->plan, s->res));
        }
        if (oracle) {
          // Cross-algorithm: every session's pair list byte-identical.
          for (size_t i = 1; i < sessions.size(); ++i) {
            if (sessions[i]->res.pairs != sessions[0]->res.pairs) {
              return Status::DataLoss(
                  "differential oracle: " +
                  AlgorithmName(sessions[i]->algo) + " diverged from " +
                  AlgorithmName(sessions[0]->algo) + " after delta batch " +
                  std::to_string(k) + " (spec '" + spec.name + "')");
            }
            ++report.oracle_checks;
          }
          // Incremental == from-scratch: a fresh Compile + Run on the
          // evolved graph must reproduce the rematch chain exactly.
          Session& s0 = *sessions[0];
          StatusOr<MatchPlan> scratch_plan = Matcher::Compile(
              s0.g, ds->keys, PlanOptions::For(s0.algo, p));
          if (!scratch_plan.ok()) return scratch_plan.status();
          Matcher m(s0.algo);
          m.processors(p);
          StatusOr<MatchResult> scratch = m.Run(*scratch_plan);
          if (!scratch.ok()) return scratch.status();
          if (scratch->pairs != s0.res.pairs) {
            return Status::DataLoss(
                "differential oracle: seeded rematch diverged from a "
                "from-scratch run after delta batch " + std::to_string(k) +
                " (spec '" + spec.name + "', " + AlgorithmName(s0.algo) +
                ")");
          }
          ++report.oracle_checks;
        }
        {
          char line[160];
          std::snprintf(line, sizeof line,
                        "rep%d delta%d: %zu pairs, %zu retracted%s", rep, k,
                        sessions[0]->res.pairs.size(),
                        sessions[0]->res.stats.pairs_retracted,
                        oracle ? ", oracle ok" : "");
          report.log.emplace_back(line);
        }
      }
    }
    report.final_pairs = sessions[0]->res.pairs.size();
  }
  return report;
}

}  // namespace gkeys
