// gkeys command-line tool: run entity matching, satisfaction checking,
// key discovery, entity fusion, and workload generation from the shell.
//
// Usage:
//   gkeys match <graph.triples> <keys.dsl> [--algorithm=NAME] [--processors=N]
//               [--stream] [--provenance] [--fuse=OUT.triples]
//               [--delta=DELTA.triples]
//   gkeys check <graph.triples> <keys.dsl>
//                                       (G |= Σ? exit 0 for yes, 3 for no,
//                                        printing the first violations)
//   gkeys discover <graph.triples> [--max-attrs=N] [--min-coverage=F]
//   gkeys generate <out.triples> [--scale=F] [--c=N] [--d=N] [--seed=N]
//   gkeys stats <graph.triples>
//   gkeys save <graph.triples> <keys.dsl> --dir=DIR [--algorithm=NAME]
//              [--processors=N]         (durable session directory: compile,
//                                        run, install the next snapshot
//                                        generation with an empty log)
//   gkeys ingest <dir> <delta.triples|-> [--processors=N]
//                                       (recover the session, then stream
//                                        '---'-separated batches through the
//                                        staged ingest pipeline, logging
//                                        each one; '-' reads from stdin)
//   gkeys recover <dir> [--processors=N] [--quiet]
//                                       (restart: newest valid snapshot +
//                                        replay of the write-ahead log)
//
// --processors=N is the worker-thread count, an integer from 1 to 256
// (default 4). Every numeric flag is range-checked the same way: a value
// that does not parse whole, or falls outside its range, is a usage error
// (exit 2) reported before any input is read.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/entity_matcher.h"
#include "core/ingest_pipeline.h"
#include "core/provenance.h"
#include "core/satisfaction.h"
#include "discovery/key_discovery.h"
#include "gen/synthetic.h"
#include "graph/merge.h"
#include "io/fast_triples.h"
#include "io/triples.h"
#include "numeric_flag.h"
#include "storage/durable_dir.h"
#include "storage/recovery.h"

namespace {

using namespace gkeys;

/// How many violations `check` prints when G does not satisfy Σ.
constexpr size_t kShownViolations = 10;

int Usage() {
  std::fprintf(stderr,
               "usage: gkeys <match|check|discover|generate|stats|save|"
               "ingest|recover> ...\n"
               "  match <graph> <keys.dsl> [--algorithm=EMMR|EMVF2MR|"
               "EMOptMR|EMVC|EMOptVC|NaiveChase] [--processors=N]\n"
               "        [--stream] [--provenance] [--fuse=out.triples]\n"
               "        [--delta=delta.triples]  (lines: '+ s p o' / "
               "'- s p o'; incremental patch + rematch)\n"
               "  check <graph> <keys.dsl>  (G |= Σ? exit 0 for yes, 3 for "
               "no, printing up to %zu violations)\n"
               "  discover <graph> [--max-attrs=N] [--min-coverage=F]\n"
               "  generate <out> [--scale=F] [--c=N] [--d=N] [--seed=N]\n"
               "  stats <graph>\n"
               "  save <graph> <keys.dsl> --dir=DIR [--algorithm=NAME] "
               "[--processors=N]  (compile + run + persist as a durable "
               "session: snapshot + write-ahead log)\n"
               "  ingest <dir> <delta.triples|-> [--processors=N]  (apply "
               "'---'-separated batches and make each durable in the "
               "write-ahead log; '-' reads from stdin)\n"
               "  recover <dir> [--processors=N] [--quiet]  (rebuild from "
               "newest valid snapshot + surviving log records)\n"
               "  --processors=N: worker threads, 1 to %d (default 4)\n",
               kShownViolations, kMaxProcessors);
  return 2;
}

std::string FlagValue(int argc, char** argv, const char* name,
                      const char* def) {
  std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Numeric flag `name` (`def` when absent) in [lo, hi]: false, with one
/// InvalidArgument line printed, when it is not (ParseNumericFlag); the
/// command then exits 2.
template <typename T>
bool NumericFlag(int argc, char** argv, const char* name, const char* def,
                 T lo, T hi, T* out) {
  return ParseNumericFlag(name, FlagValue(argc, argv, name, def), lo, hi,
                          out);
}

/// --processors=N for match, save, ingest and recover: 4 when absent.
bool ProcessorsFlag(int argc, char** argv, int* p) {
  return NumericFlag(argc, argv, "--processors", "4", 1, kMaxProcessors, p);
}

/// Reads and parses a graph file, keeping its entity-reference table so
/// delta text can resolve ent: tokens exactly as the graph file bound
/// them.
StatusOr<LoadedGraph> ReadGraph(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return FastDeserializeGraphWithNames(*text);
}

StatusOr<KeySet> LoadKeys(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  KeySet keys;
  GKEYS_RETURN_IF_ERROR(keys.AddFromDsl(*text));
  return keys;
}

StatusOr<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "NaiveChase") return Algorithm::kNaiveChase;
  if (name == "EMMR") return Algorithm::kEmMr;
  if (name == "EMVF2MR") return Algorithm::kEmVf2Mr;
  if (name == "EMOptMR") return Algorithm::kEmOptMr;
  if (name == "EMVC") return Algorithm::kEmVc;
  if (name == "EMOptVC") return Algorithm::kEmOptVc;
  return Status::InvalidArgument(
      "unknown --algorithm '" + name +
      "'; valid names: NaiveChase, EMMR, EMVF2MR, EMOptMR, EMVC, EMOptVC");
}

int CmdMatch(int argc, char** argv) {
  if (argc < 4) return Usage();
  int p = 0;
  if (!ProcessorsFlag(argc, argv, &p)) return 2;
  auto loaded = ReadGraph(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Graph* graph = &loaded->graph;
  auto keys = LoadKeys(argv[3]);
  if (!keys.ok()) {
    std::fprintf(stderr, "%s\n", keys.status().ToString().c_str());
    return 1;
  }
  auto algo_or =
      ParseAlgorithm(FlagValue(argc, argv, "--algorithm", "EMOptVC"));
  if (!algo_or.ok()) {
    std::fprintf(stderr, "%s\n", algo_or.status().ToString().c_str());
    return 2;
  }
  Algorithm algo = *algo_or;

  if (HasFlag(argc, argv, "--provenance")) {
    if (!FlagValue(argc, argv, "--delta", "").empty()) {
      std::fprintf(stderr,
                   "InvalidArgument: --provenance does not combine with "
                   "--delta (provenance is chased on one fixed graph); "
                   "apply the delta to the graph file first\n");
      return 2;
    }
    ProvenanceResult pr = ChaseWithProvenance(*graph, *keys);
    std::printf("# %zu identified pairs, %zu chase steps\n",
                pr.result.pairs.size(), pr.steps.size());
    for (const ChaseStep& step : pr.steps) {
      std::printf("%s\n", FormatChaseStep(*graph, step).c_str());
    }
    return 0;
  }

  // Compile once, then execute — matching errors (unfinalized graph,
  // empty key set, bad options) surface as Status, not asserts.
  auto plan = Matcher::Compile(*graph, *keys, PlanOptions::For(algo, p));
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  Matcher matcher(algo);
  matcher.processors(p);

  MatchResult r;
  if (HasFlag(argc, argv, "--stream")) {
    // Streaming mode: pairs print the moment the fixpoint confirms them,
    // round progress goes to stderr.
    class PrintSink : public MatchSink {
     public:
      explicit PrintSink(const Graph& g) : g_(g) {}
      void OnPair(NodeId a, NodeId b) override {
        std::printf("%s == %s\n", g_.DescribeNode(a).c_str(),
                    g_.DescribeNode(b).c_str());
      }
      void OnProgress(const EmStats& s) override {
        std::fprintf(stderr, "# round %zu: %zu pair(s) confirmed\n",
                     s.rounds, s.confirmed);
      }

     private:
      const Graph& g_;
    };
    PrintSink sink(*graph);
    auto run = matcher.Run(*plan, sink);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    r = *std::move(run);
    std::printf("# algorithm=%s p=%d pairs=%zu candidates=%zu rounds=%zu "
                "prep=%.1fms run=%.1fms\n",
                AlgorithmName(algo).c_str(), p, r.pairs.size(),
                r.stats.candidates, r.stats.rounds,
                r.stats.prep_seconds * 1e3, r.stats.run_seconds * 1e3);
  } else {
    auto run = matcher.Run(*plan);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    r = *std::move(run);
    // Summary first, as before this API migration — scripts parse it.
    std::printf("# algorithm=%s p=%d pairs=%zu candidates=%zu rounds=%zu "
                "prep=%.1fms run=%.1fms\n",
                AlgorithmName(algo).c_str(), p, r.pairs.size(),
                r.stats.candidates, r.stats.rounds,
                r.stats.prep_seconds * 1e3, r.stats.run_seconds * 1e3);
    for (auto [a, b] : r.pairs) {
      std::printf("%s == %s\n", graph->DescribeNode(a).c_str(),
                  graph->DescribeNode(b).c_str());
    }
  }

  std::string delta_path = FlagValue(argc, argv, "--delta", "");
  if (!delta_path.empty()) {
    // Incremental path: apply the delta file, patch the plan, rematch
    // seeded from the result above, and print only the newly identified
    // pairs. The timings show the amortization: patch+rematch vs the
    // compile+run that just happened.
    auto text = ReadFile(delta_path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto delta = FastParseDelta(*text, loaded->graph, loaded->entities);
    if (!delta.ok()) {
      std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
      return 1;
    }
    if (delta->empty()) {
      // Short-circuit: nothing to apply, so skip the apply + patch +
      // rematch entirely — the result above already covers the graph
      // as-is.
      std::printf("# delta file '%s' is empty: no-op (graph, plan, and "
                  "result unchanged)\n",
                  delta_path.c_str());
    } else {
      // The commit advances graph, plan and r in place (--fuse below
      // fuses the post-delta result).
      const auto prev = r.pairs;
      IngestStats stats;
      Status st = CommitDelta(
          matcher, IngestSession{graph, &*plan, &r, &loaded->entities},
          *delta, stats);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("# delta +%zu -%zu triples: pairs=%zu (%+ld) "
                  "dirty_candidates=%zu patch=%.1fms rematch=%.1fms\n",
                  delta->num_added_triples(), delta->num_removed_triples(),
                  r.pairs.size(),
                  static_cast<long>(r.pairs.size()) -
                      static_cast<long>(prev.size()),
                  plan->dirty_candidates().size(), stats.seconds.patch * 1e3,
                  stats.seconds.rematch * 1e3);
      for (auto [a, b] : r.pairs) {
        if (!std::binary_search(prev.begin(), prev.end(),
                                std::make_pair(a, b))) {
          std::printf("+ %s == %s\n", graph->DescribeNode(a).c_str(),
                      graph->DescribeNode(b).c_str());
        }
      }
    }
  }

  std::string fuse_out = FlagValue(argc, argv, "--fuse", "");
  if (!fuse_out.empty()) {
    FusionResult fused = FuseEntities(*graph, r.pairs);
    Status st = SaveGraph(fused.graph, fuse_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("# fused %zu entities -> %s (%zu triples)\n",
                fused.entities_fused, fuse_out.c_str(),
                fused.graph.NumTriples());
  }
  return 0;
}

int CmdCheck(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto loaded = ReadGraph(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Graph& graph = loaded->graph;
  auto keys = LoadKeys(argv[3]);
  if (!keys.ok()) {
    std::fprintf(stderr, "%s\n", keys.status().ToString().c_str());
    return 1;
  }
  // One more than is shown, to tell a complete list from a cut one.
  std::vector<Violation> violations =
      FindViolations(graph, *keys, kShownViolations + 1);
  std::printf("G |= Σ: %s\n", violations.empty() ? "yes" : "no");
  for (size_t i = 0; i < violations.size() && i < kShownViolations; ++i) {
    std::printf("%s\n", FormatViolation(graph, violations[i]).c_str());
  }
  if (violations.size() > kShownViolations) {
    std::printf("... (first %zu shown)\n", kShownViolations);
  }
  return violations.empty() ? 0 : 3;
}

int CmdDiscover(int argc, char** argv) {
  if (argc < 3) return Usage();
  DiscoveryConfig cfg;
  if (!NumericFlag(argc, argv, "--max-attrs", "2", 1, 3,
                   &cfg.max_attributes) ||
      !NumericFlag(argc, argv, "--min-coverage", "0.6", 0.0, 1.0,
                   &cfg.min_coverage)) {
    return 2;
  }
  auto loaded = ReadGraph(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Graph& graph = loaded->graph;
  for (Symbol t : graph.EntityTypes()) {
    const std::string& type = graph.interner().Resolve(t);
    for (const DiscoveredKey& dk : DiscoverKeys(graph, type, cfg)) {
      // Emitted in the DSL so the output feeds straight into `match`.
      std::printf("# coverage=%.2f arity=%d\n%s\n", dk.coverage, dk.arity,
                  ToDsl(dk.key).c_str());
    }
  }
  return 0;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 3) return Usage();
  SyntheticConfig cfg;
  if (!NumericFlag(argc, argv, "--scale", "1.0", 0.001, 10000.0,
                   &cfg.scale) ||
      !NumericFlag(argc, argv, "--c", "2", 1, 64, &cfg.chain_length) ||
      !NumericFlag(argc, argv, "--d", "2", 1, 64, &cfg.radius) ||
      !NumericFlag(argc, argv, "--seed", "42", uint64_t{0}, UINT64_MAX,
                   &cfg.seed)) {
    return 2;
  }
  SyntheticDataset ds = GenerateSynthetic(cfg);
  Status st = SaveGraph(ds.graph, argv[2]);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu nodes, %zu triples, %zu planted duplicate "
              "pairs, %zu keys\n",
              argv[2], ds.graph.NumNodes(), ds.graph.NumTriples(),
              ds.planted.size(), ds.keys.count());
  return 0;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int CmdSave(int argc, char** argv) {
  std::string dir = FlagValue(argc, argv, "--dir", "");
  if (argc < 4 || dir.empty()) return Usage();
  int p = 0;
  if (!ProcessorsFlag(argc, argv, &p)) return 2;
  auto loaded = ReadGraph(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto keys = LoadKeys(argv[3]);
  if (!keys.ok()) {
    std::fprintf(stderr, "%s\n", keys.status().ToString().c_str());
    return 1;
  }
  auto algo_or =
      ParseAlgorithm(FlagValue(argc, argv, "--algorithm", "EMOptVC"));
  if (!algo_or.ok()) {
    std::fprintf(stderr, "%s\n", algo_or.status().ToString().c_str());
    return 2;
  }
  Algorithm algo = *algo_or;

  auto plan =
      Matcher::Compile(loaded->graph, *keys, PlanOptions::For(algo, p));
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  Matcher matcher(algo);
  matcher.processors(p);
  auto run = matcher.Run(*plan);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  // The snapshot becomes generation g+1 of `dir` (atomic install) with a
  // fresh write-ahead log for `ingest`.
  auto t0 = std::chrono::steady_clock::now();
  auto ddir = storage::DurableDir::Open(dir);
  if (!ddir.ok()) {
    std::fprintf(stderr, "%s\n", ddir.status().ToString().c_str());
    return 1;
  }
  Status st = ddir->SaveSnapshot(loaded->graph, *keys, *plan, *run, algo,
                                 &loaded->entities);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("# saved %s generation=%llu: algorithm=%s pairs=%zu "
              "compile=%.1fms run=%.1fms save=%.1fms\n",
              dir.c_str(), static_cast<unsigned long long>(ddir->generation()),
              AlgorithmName(algo).c_str(), run->pairs.size(),
              plan->compile_seconds() * 1e3, run->stats.run_seconds * 1e3,
              SecondsSince(t0) * 1e3);
  return 0;
}

/// Drains stdin for `gkeys ingest <dir> -`.
StatusOr<std::string> ReadAllStdin() {
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, stdin)) > 0) out.append(buf, n);
  if (std::ferror(stdin)) return Status::IoError("error reading stdin");
  return out;
}

/// Splits ingest input into batches on `---` separator lines (CRLF
/// tolerated, like the delta format itself). Batches keep their own
/// line endings; separator lines are consumed. No separator = one batch.
/// Every separator delimits a batch on BOTH sides: `a\n---\n` is two
/// batches (the second empty), and `---` alone is two empty batches —
/// empty and comment-only batches flow through the pipeline as no-op
/// commits (counted in IngestStats::empty_batches, skipped by the WAL)
/// rather than being silently dropped here.
std::vector<std::string> SplitDeltaBatches(std::string_view text) {
  std::vector<std::string> out;
  std::string cur;
  size_t pos = 0;
  bool ended_with_separator = false;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    size_t line_end = nl == std::string_view::npos ? text.size() : nl + 1;
    std::string_view trimmed = line;
    if (!trimmed.empty() && trimmed.back() == '\r') trimmed.remove_suffix(1);
    if (trimmed == "---") {
      out.push_back(std::move(cur));
      cur.clear();
      ended_with_separator = true;
    } else {
      cur.append(text.substr(pos, line_end - pos));
      ended_with_separator = false;
    }
    pos = line_end;
  }
  if (!cur.empty() || ended_with_separator || out.empty()) {
    out.push_back(std::move(cur));
  }
  return out;
}

/// `gkeys ingest <dir> <delta|->`: rebuilds the session exactly as a
/// post-crash process would (so ingestion after an unclean shutdown picks
/// up where the log ends), then streams the '---'-separated batches
/// through the staged ingest pipeline (core/ingest_pipeline.h),
/// tokenizing batch N+1 while batch N runs the engine chain. Each batch
/// is applied first and WAL-appended second, so a crash loses at most the
/// in-flight, unacknowledged batch and replay can never fail on a logged
/// one.
int CmdIngest(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string dir = argv[2];
  int p = 0;
  if (!ProcessorsFlag(argc, argv, &p)) return 2;

  auto text = std::strcmp(argv[3], "-") == 0 ? ReadAllStdin()
                                             : ReadFile(argv[3]);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  Matcher matcher;
  matcher.processors(p);
  auto t0 = std::chrono::steady_clock::now();
  auto session = matcher.Recover(dir);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  auto ddir = storage::DurableDir::Open(dir);
  if (!ddir.ok()) {
    std::fprintf(stderr, "%s\n", ddir.status().ToString().c_str());
    return 1;
  }
  if (ddir->generation() != session->report.generation) {
    // Recovery fell back past a corrupt newer snapshot; appending to the
    // newest generation's log would put batches where replay cannot see
    // them. Refuse rather than acknowledge a batch recovery would lose.
    std::fprintf(stderr,
                 "DataLoss: recovered generation %llu but the newest in %s "
                 "is %llu; re-save a snapshot before ingesting\n",
                 static_cast<unsigned long long>(session->report.generation),
                 dir.c_str(),
                 static_cast<unsigned long long>(ddir->generation()));
    return 1;
  }

  std::vector<std::string> batches = SplitDeltaBatches(*text);
  size_t next = 0;
  IngestSource source = [&]() -> std::optional<std::string> {
    if (next >= batches.size()) return std::nullopt;
    return std::move(batches[next++]);
  };
  IngestObserver observer = [&](const IngestBatch& b) -> Status {
    // contributed, not delta->empty(): under group commit b.delta is the
    // whole group's delta, but the WAL must skip exactly the no-op
    // batches.
    if (!b.contributed) return Status::OK();
    return ddir->AppendDeltaText(*b.text);
  };

  size_t prev_pairs = session->snapshot.result().pairs.size();
  Matcher replayer(session->snapshot.algorithm());
  replayer.processors(p);
  IngestStats stats = replayer.IngestStream(
      session->snapshot.session(session->entity_names), source, {},
      observer);
  if (!stats.status.ok()) {
    std::fprintf(stderr, "%s\n", stats.status.ToString().c_str());
    if (stats.batches > 0) {
      std::fprintf(stderr,
                   "# %zu batch(es) committed and logged before the failure\n",
                   stats.batches);
    }
    return 1;
  }
  std::printf(
      "# ingested %zu batches in %zu commits (+%llu -%llu triples, %zu "
      "empty) into %s "
      "generation=%llu: pairs=%zu (%+ld) wal_records=%zu\n"
      "# stages: parse=%.1fms bind=%.1fms apply=%.1fms patch=%.1fms "
      "rematch=%.1fms total=%.1fms\n",
      stats.batches, stats.commits,
      static_cast<unsigned long long>(stats.added_triples),
      static_cast<unsigned long long>(stats.removed_triples),
      stats.empty_batches, dir.c_str(),
      static_cast<unsigned long long>(ddir->generation()),
      session->snapshot.result().pairs.size(),
      static_cast<long>(session->snapshot.result().pairs.size()) -
          static_cast<long>(prev_pairs),
      ddir->wal_records(), stats.seconds.parse * 1e3,
      stats.seconds.bind * 1e3, stats.seconds.apply * 1e3,
      stats.seconds.patch * 1e3, stats.seconds.rematch * 1e3,
      SecondsSince(t0) * 1e3);
  if (stats.empty_batches == stats.batches) {
    std::printf("# '%s' stages nothing: no-op (session and log unchanged)\n",
                argv[3]);
  }
  return 0;
}

int CmdRecover(int argc, char** argv) {
  if (argc < 3) return Usage();
  int p = 0;
  if (!ProcessorsFlag(argc, argv, &p)) return 2;

  Matcher matcher;
  matcher.processors(p);
  auto t0 = std::chrono::steady_clock::now();
  auto session = matcher.Recover(argv[2]);
  if (!session.ok()) {
    // One line per failure mode: NotFound (no snapshot at all) and
    // DataLoss (an acknowledged batch is unrecoverable) both land here.
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  const storage::RecoveryReport& rep = session->report;
  std::printf("# recovered %s: generation=%llu snapshots_skipped=%zu "
              "batches_replayed=%zu commits=%zu batches_truncated=%zu "
              "pairs=%zu recover=%.1fms\n",
              argv[2], static_cast<unsigned long long>(rep.generation),
              rep.snapshots_skipped, rep.batches_replayed, rep.commits,
              rep.batches_truncated, rep.pairs, SecondsSince(t0) * 1e3);
  if (!HasFlag(argc, argv, "--quiet")) {
    const Graph& g = session->snapshot.graph();
    for (auto [a, b] : session->snapshot.result().pairs) {
      std::printf("%s == %s\n", g.DescribeNode(a).c_str(),
                  g.DescribeNode(b).c_str());
    }
  }
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto loaded = ReadGraph(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Graph& graph = loaded->graph;
  std::printf("nodes:    %zu (%zu entities, %zu values)\n",
              graph.NumNodes(), graph.NumEntities(), graph.NumValues());
  std::printf("triples:  %zu\n", graph.NumTriples());
  auto types = graph.EntityTypes();
  std::printf("types:    %zu\n", types.size());
  for (Symbol t : types) {
    std::printf("  %-20s %zu\n", graph.interner().Resolve(t).c_str(),
                graph.EntitiesOfType(t).size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "match") return CmdMatch(argc, argv);
  if (cmd == "check") return CmdCheck(argc, argv);
  if (cmd == "discover") return CmdDiscover(argc, argv);
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "save") return CmdSave(argc, argv);
  if (cmd == "ingest") return CmdIngest(argc, argv);
  if (cmd == "recover") return CmdRecover(argc, argv);
  return Usage();
}
