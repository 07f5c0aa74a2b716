// gkeys_bench: runs one benchmark workload through the public gkeys API
// and prints what it measured as one JSON object on stdout.
//
//   gkeys_bench --workload=NAME --seed=N --seconds=S --workdir=DIR
//               [--trace=FILE]
//
// benchmark/run.py builds this binary, runs it once per workload, checks
// the input fingerprints and turns the output into the metrics that
// BENCHMARK.json names; benchmark/README.md explains each workload and
// metric. Every layer is measured from outside: the program times its own
// calls into each module and reads the counters those calls already
// return (EmStats, MatchPlan::patch_info(), IngestStats, RecoveryReport).
// Timings are reported at a nominal host speed; see SpeedProbe.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/json_writer.h"
#include "core/ingest_pipeline.h"
#include "core/matcher.h"
#include "gen/datasets.h"
#include "gen/hostile.h"
#include "io/fast_triples.h"
#include "io/triples.h"
#include "storage/durable_dir.h"
#include "storage/mmap_store.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"

namespace gkeys {
namespace bench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using PairList = std::vector<std::pair<NodeId, NodeId>>;

// Load shape: Compile, Run, Patch, Rematch and Recover use two workers;
// IngestStream adds its one tokenize thread, so at most three run at once.
constexpr int kProcessors = 2;
// setup_s and checkpoint_s are medians of this many repetitions per run.
constexpr int kSetupBuilds = 7;
constexpr int kCheckpoints = 7;

// cold_match: DBpedia sim (≈133k triples), EMOptVC.
constexpr double kColdScale = 100;
// hub_patch: power-law sim (≈63k triples), EMOptMR, `hub` deltas. Every
// planted leaf pair resolves only through a planted hub pair, so the
// pairing work does not hinge on a coin flip for the few most-followed
// leaves (with the generator's default half, it moves by ±15% between
// seeds). The pool is generated before the window and is larger than the
// window can consume at today's speed, so a faster build still sees
// fresh batches.
constexpr double kHubScale = 100;
constexpr double kHubChainedFraction = 1.0;
constexpr size_t kHubOpsPerBatch = 8;
constexpr size_t kHubPool = 96;
// stream_ingest: Google sim (≈169k triples), EMOptVC. Every 50th triple
// line is held out and dealt into 4-line `+` batches. The first
// kPacedShare of the window is an open loop at kPacedRate batches/s (the
// engine about half busy); the rest drains the remaining batches as a
// backlog. Both phases run as IngestStream calls of kPacedChunk (3 s) and
// kDrainChunk batches, so the host's speed can be sampled between calls.
constexpr double kStreamScale = 200;
constexpr size_t kStreamStride = 50;
constexpr size_t kBatchLines = 4;
constexpr double kPacedRate = 15;
constexpr double kPacedShare = 0.6;
constexpr size_t kPacedChunk = 45;
constexpr size_t kDrainChunk = 64;
// recover: DBpedia sim (≈106k triples), EMOptVC, 16 four-line batches.
constexpr double kRecoverScale = 80;
constexpr size_t kRecoverBatches = 16;

// The speed probe's sample time at nominal host speed, and how strongly
// an operation's time follows the probe's (see SpeedProbe).
constexpr double kProbeNominalSeconds = 0.0035;
constexpr double kProbeExponent = 0.7;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A measured stretch of wall-clock time.
struct Interval {
  Clock::time_point start, end;
  double seconds() const { return SecondsBetween(start, end); }
};

/// Median wall-clock seconds, as measured (not normalized).
double RawMedian(const std::vector<Interval>& v) {
  std::vector<double> s;
  for (const Interval& i : v) s.push_back(i.seconds());
  return Median(s);
}

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// The host's current speed, sampled between operations, never during
/// one. A sample times a fixed single-threaded kernel that shares no code
/// with gkeys: tokenize and intern a fixed 2,000-line triple-like text,
/// sort its edge list, then read every cache line of a 16 MiB buffer
/// twice.
///
/// On the shared 4-vCPU host this benchmark was written on, one
/// operation runs up to a quarter slower for tens of seconds at a time as
/// other tenants' load comes and goes. CPU time rises with wall time, so
/// the cores themselves slow, largely through the shared cache. Every
/// timing is therefore reported at nominal speed: its wall time times
/// (kProbeNominalSeconds / s)^kProbeExponent, where s is the mean of the
/// samples taken just before and just after it. Operations slow down less
/// than the kernel does, hence the exponent below 1. Over five minutes of
/// back-to-back cold matches, this took the spread of 15-second medians
/// from 11% to 3%. The system under test is idle while a sample runs, so
/// nothing it does moves the probe.
class SpeedProbe {
 public:
  /// The buffer stays resident; peak_rss_mb leaves it out.
  static constexpr size_t kBufferBytes = size_t{16} << 20;

  SpeedProbe() : buffer_(kBufferBytes / sizeof(uint64_t), 1) {
    uint64_t x = 0x2545F4914F6CDD1Dull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int i = 0; i < 2000; ++i) {
      text_ += "ent:t" + std::to_string(next() % 8) + ":" +
               std::to_string(next() % 2000) + " p" +
               std::to_string(next() % 32) + " val:\"v" +
               std::to_string(next() % 100000) + "\"\n";
    }
    // The first runs fault in the kernel's heap; keep them out of samples.
    for (int i = 0; i < 5; ++i) RunKernel();
  }

  /// Takes one sample: the median of three kernel runs.
  void Sample() {
    samples_.push_back(
        {Clock::now(), Median({RunKernel(), RunKernel(), RunKernel()})});
  }

  /// Seconds of `i` at nominal speed, from the samples that bracket it.
  double Normalize(const Interval& i) const {
    auto after = std::lower_bound(
        samples_.begin(), samples_.end(), i.end,
        [](const Point& p, Clock::time_point t) { return p.at < t; });
    auto before = std::upper_bound(
        samples_.begin(), samples_.end(), i.start,
        [](Clock::time_point t, const Point& p) { return t < p.at; });
    double sum = 0;
    int n = 0;
    if (before != samples_.begin()) sum += std::prev(before)->seconds, ++n;
    if (after != samples_.end()) sum += after->seconds, ++n;
    double speed = n > 0 ? sum / n : kProbeNominalSeconds;
    return i.seconds() * std::pow(kProbeNominalSeconds / speed, kProbeExponent);
  }

  /// Nominal over measured sample time, median over the run (above 1 when
  /// the host ran faster than nominal).
  double MedianFactor() const {
    std::vector<double> f;
    for (const Point& p : samples_) {
      f.push_back(std::pow(kProbeNominalSeconds / p.seconds, kProbeExponent));
    }
    return Median(f);
  }

 private:
  struct Point {
    Clock::time_point at;  // when the sample finished
    double seconds;
  };

  double RunKernel() {
    const Clock::time_point start = Clock::now();
    std::unordered_map<std::string, uint32_t> ids;
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    uint32_t subject = 0;
    int field = 0;
    for (size_t pos = 0; pos < text_.size();) {
      size_t end = text_.find_first_of(" \n", pos);
      uint32_t id = ids.emplace(text_.substr(pos, end - pos),
                                static_cast<uint32_t>(ids.size()))
                        .first->second;
      if (field == 0) subject = id;
      if (field == 2) edges.emplace_back(subject, id);
      field = text_[end] == '\n' ? 0 : field + 1;
      pos = end + 1;
    }
    std::sort(edges.begin(), edges.end());
    uint64_t sum = edges.size() + ids.size();
    constexpr size_t kWordsPerLine = 64 / sizeof(uint64_t);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < buffer_.size(); i += kWordsPerLine) {
        sum += buffer_[i];
      }
    }
    checksum_ += sum;
    return SecondsBetween(start, Clock::now());
  }

  std::vector<uint64_t> buffer_;
  std::string text_;
  std::vector<Point> samples_;
  uint64_t checksum_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Spans around every public call this program makes, kept in memory and
/// written as Chrome trace-event JSON (viewable in Perfetto) when the
/// workload ends. A span is named `<layer>.<call>`; a top-level span is an
/// operation (`op.*`) and every span under it carries its op id. Durations
/// the library reports itself (IngestStats, patch_info(), ...) become
/// derived child spans, drawn end to end from their parent's start on a
/// second track. With tracing off nothing is recorded.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Open(const char* name, Clock::time_point at, bool window) {
    if (!enabled_) return -1;
    int parent = open_.empty() ? -1 : open_.back();
    if (parent < 0) ++ops_;
    spans_.push_back(Record{name, Micros(at), 0, 0, parent, ops_, false,
                            window});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int id, Clock::time_point at) {
    if (id < 0) return;
    spans_[id].dur_us = Micros(at) - spans_[id].start_us;
    open_.pop_back();
  }

  /// Adds a child of `parent` lasting `seconds`, as measured by the
  /// library. Returns its id so derived spans can nest.
  int Derived(int parent, std::string name, double seconds) {
    if (!enabled_ || parent < 0) return -1;
    Record& p = spans_[parent];
    Record r{std::move(name), p.start_us + p.cursor_us, seconds * 1e6, 0,
             parent, p.op, true, false};
    p.cursor_us += r.dur_us;
    spans_.push_back(std::move(r));
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Total duration of the top-level spans inside the timed window, and
  /// how many spans they hold.
  void WindowTotals(double* seconds, size_t* spans) const {
    std::set<int> window_ops;
    *seconds = 0;
    *spans = 0;
    for (const Record& r : spans_) {
      if (r.parent < 0 && r.window) {
        window_ops.insert(r.op);
        *seconds += r.dur_us / 1e6;
      }
    }
    for (const Record& r : spans_) {
      if (!r.derived && window_ops.count(r.op) != 0) ++*spans;
    }
  }

  Status Write(const std::string& path) const {
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out +=
        "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": \"thread_name\", "
        "\"args\": {\"name\": \"benchmark calls\"}},\n"
        "{\"ph\": \"M\", \"pid\": 1, \"tid\": 2, \"name\": \"thread_name\", "
        "\"args\": {\"name\": \"durations reported by gkeys\"}}";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      out += ",\n{\"ph\": \"X\", \"pid\": 1, \"name\": \"";
      AppendJsonEscaped(r.name, &out);
      std::snprintf(buf, sizeof buf,
                    "\", \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %d, "
                    "\"derived\": %s, \"window\": %s}}",
                    r.derived ? 2 : 1, r.start_us, r.dur_us, i, r.parent,
                    r.op, r.derived ? "true" : "false",
                    r.window ? "true" : "false");
      out += buf;
    }
    out += "\n]}\n";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << out;
    f.close();
    if (!f) return Status::IoError("cannot write trace file " + path);
    return Status::OK();
  }

 private:
  struct Record {
    std::string name;
    double start_us;
    double dur_us;
    double cursor_us;  // end of the derived children laid out so far
    int parent;
    int op;
    bool derived;
    bool window;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<int> open_;
  int ops_ = 0;
};

/// Times one call and, when tracing, records it as a span. `window` marks
/// an operation inside the timed window (the ops the per-layer split and
/// unattributed_fraction are computed over).
class Span {
 public:
  Span(Tracer& tracer, const char* name, bool window = false)
      : tracer_(tracer),
        interval_{Clock::now(), {}},
        id_(tracer.Open(name, interval_.start, window)) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (once) and returns the interval it covered.
  Interval Stop() {
    if (!stopped_) {
      interval_.end = Clock::now();
      tracer_.Close(id_, interval_.end);
      stopped_ = true;
    }
    return interval_;
  }

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  Interval interval_;
  int id_;
  bool stopped_ = false;
};

/// Cost of recording one span, measured on a throwaway tracer: the basis of
/// the trace_overhead metric.
double SpanCostSeconds() {
  constexpr int kSpans = 20000;
  Tracer throwaway(true);
  Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Span span(throwaway, "calibrate");
  }
  return SecondsBetween(start, Clock::now()) / kSpans;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Each node's `ent:<type>:<id>` token as SerializeGraph writes it
/// (per-type counters in NodeId order); empty for value nodes.
std::vector<std::string> EntityTokens(const Graph& g) {
  std::vector<std::string> tokens(g.NumNodes());
  std::unordered_map<Symbol, size_t> counters;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (!g.IsEntity(n)) continue;
    Symbol type = g.entity_type(n);
    tokens[n] = "ent:" + g.interner().Resolve(type) + ":" +
                std::to_string(counters[type]++);
  }
  return tokens;
}

std::string ValueRef(std::string_view literal) {
  std::string out = "val:\"";
  for (char c : literal) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Renders a delta staged against `g` as delta-file text, naming entities
/// by token. Entities the delta creates get fresh tokens appended to
/// `tokens` (indexed by NodeId), so later batches can refer to them.
std::string RenderDelta(const Graph& g, const GraphDelta& d,
                        std::vector<std::string>& tokens, size_t* fresh) {
  for (const GraphDelta::NewNode& n : d.new_nodes()) {
    tokens.push_back(n.kind == NodeKind::kEntity
                         ? "ent:" + n.label + ":d" + std::to_string((*fresh)++)
                         : std::string());
  }
  auto ref = [&](NodeId n) {
    if (n >= d.base_nodes()) {
      const GraphDelta::NewNode& nn = d.new_nodes()[n - d.base_nodes()];
      return nn.kind == NodeKind::kEntity ? tokens[n] : ValueRef(nn.label);
    }
    return g.IsEntity(n) ? tokens[n] : ValueRef(g.value_str(n));
  };
  std::string text;
  for (const GraphDelta::DeltaTriple& t : d.removed()) {
    text += "- " + ref(t.subject) + " " + t.pred + " " + ref(t.object) + "\n";
  }
  for (const GraphDelta::DeltaTriple& t : d.added()) {
    text += "+ " + ref(t.subject) + " " + t.pred + " " + ref(t.object) + "\n";
  }
  return text;
}

/// Graph text with some triple lines held out and dealt, in file order,
/// into `+` delta batches.
struct HeldOut {
  std::string base;
  std::vector<std::string> batches;
};

/// Holds out every `stride`-th triple line (never an `@exists` line), at
/// most `max_lines` of them, `batch_lines` per batch.
HeldOut HoldOut(std::string_view text, size_t stride, size_t batch_lines,
                size_t max_lines) {
  HeldOut out;
  out.base.reserve(text.size());
  std::string batch;
  size_t line_no = 0, held = 0, in_batch = 0;
  for (size_t pos = 0; pos < text.size();) {
    size_t nl = text.find('\n', pos);
    size_t end = nl == std::string_view::npos ? text.size() : nl + 1;
    std::string_view line = text.substr(pos, end - pos);
    pos = end;
    if (++line_no % stride == 0 && held < max_lines &&
        line.find(" @exists ") == std::string_view::npos) {
      batch += "+ ";
      batch += line;
      ++held;
      if (++in_batch == batch_lines) {
        out.batches.push_back(std::move(batch));
        batch.clear();
        in_batch = 0;
      }
    } else {
      out.base += line;
    }
  }
  if (!batch.empty()) out.batches.push_back(std::move(batch));
  return out;
}

size_t LineCount(std::string_view text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

uint64_t Fingerprint(const std::vector<std::string>& texts) {
  uint64_t h = Fnv1a64("");
  for (const std::string& t : texts) h = Fnv1a64(t, h);
  return h;
}

/// The generator's planted pairs mapped onto a parsed session's NodeIds
/// through the ent: tokens both share.
StatusOr<PairList> ExpectedPairs(
    const PairList& planted, const std::vector<std::string>& tokens,
    const std::unordered_map<std::string, NodeId>& entities) {
  PairList out;
  out.reserve(planted.size());
  for (const auto& [a, b] : planted) {
    auto ia = entities.find(tokens[a]);
    auto ib = entities.find(tokens[b]);
    if (ia == entities.end() || ib == entities.end()) {
      return Status::DataLoss("planted entity " + tokens[a] + " or " +
                              tokens[b] + " is missing from the session");
    }
    out.emplace_back(std::min(ia->second, ib->second),
                     std::max(ia->second, ib->second));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status SamePairs(const PairList& got, const PairList& want,
                 const std::string& what) {
  if (got == want) return Status::OK();
  return Status::DataLoss(what + ": " + std::to_string(got.size()) +
                          " pairs, expected " + std::to_string(want.size()));
}

// ---------------------------------------------------------------------------
// The benchmark run
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  std::string workdir;
  std::string trace_path;
};

/// One matching session. The graph sits behind a pointer because the
/// plan references it.
struct Session {
  std::unique_ptr<LoadedGraph> lg;
  MatchPlan plan;
  MatchResult result;
};

/// Sums of MatchPlan::patch_info() over a series of patches.
struct PatchTotals {
  std::vector<double> patch_s;
  std::vector<double> dirty, affected;
  double keys = 0, affected_s = 0, dneighbor = 0, enumerate = 0, pairing = 0,
         depindex = 0, product_graph = 0;

  void Add(const MatchPlan& plan) {
    const ContextPatchInfo& info = *plan.patch_info();
    patch_s.push_back(plan.compile_seconds());
    dirty.push_back(static_cast<double>(plan.dirty_candidates().size()));
    affected.push_back(static_cast<double>(plan.num_affected_entities()));
    keys += info.keys_seconds;
    affected_s += info.affected_seconds;
    dneighbor += info.dneighbor_seconds;
    enumerate += info.enumerate_seconds;
    pairing += info.pairing_seconds;
    depindex += info.depindex_seconds;
    product_graph += info.product_graph_seconds;
  }

  void Merge(const PatchTotals& o) {
    patch_s.insert(patch_s.end(), o.patch_s.begin(), o.patch_s.end());
    dirty.insert(dirty.end(), o.dirty.begin(), o.dirty.end());
    affected.insert(affected.end(), o.affected.begin(), o.affected.end());
    keys += o.keys;
    affected_s += o.affected_s;
    dneighbor += o.dneighbor;
    enumerate += o.enumerate;
    pairing += o.pairing;
    depindex += o.depindex;
    product_graph += o.product_graph;
  }

  /// The patch phases as derived children of a span that covered them.
  void Trace(Tracer& tracer, int span) const {
    tracer.Derived(span, "plan.patch.keys", keys);
    tracer.Derived(span, "plan.patch.affected", affected_s);
    tracer.Derived(span, "plan.patch.dneighbor", dneighbor);
    tracer.Derived(span, "plan.patch.enumerate", enumerate);
    tracer.Derived(span, "plan.patch.pairing", pairing);
    tracer.Derived(span, "plan.patch.depindex", depindex);
    tracer.Derived(span, "plan.patch.product_graph", product_graph);
  }
};

class Bench {
 public:
  explicit Bench(Options opt)
      : opt_(std::move(opt)), tracer_(!opt_.trace_path.empty()) {}

  /// Runs the workload and prints the result. Returns the exit code.
  int Main();

 private:
  Status ColdMatch();
  Status HubPatch();
  Status StreamIngest();
  Status RecoverWorkload();

  /// Counts one attempted operation, and a failure if `st` is an error.
  Status Op(Status st) {
    ++attempted_;
    if (!st.ok()) ++failed_;
    return st;
  }

  StatusOr<Session> Build(std::string_view text, const KeySet& keys,
                          Algorithm algo);
  StatusOr<std::vector<Session>> Setup(
      std::string_view text, const KeySet& keys, Algorithm algo,
      const std::function<Status(const Session&)>& check, size_t keep);
  Status Checkpoint(const Session& s, const KeySet& keys, Algorithm algo);
  Status LoadSnapshot(const std::string& path);
  void RecordPatches(const PatchTotals& p);
  /// Median of the intervals, in seconds at nominal host speed.
  double NormalMedian(const std::vector<Interval>& v) const {
    std::vector<double> s;
    for (const Interval& i : v) s.push_back(probe_.Normalize(i));
    return Median(s);
  }
  double NormalSum(const std::vector<Interval>& v) const {
    double s = 0;
    for (const Interval& i : v) s += probe_.Normalize(i);
    return s;
  }
  void StartWindow() {
    window_end_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         opt_.seconds));
  }
  bool WindowOpen() const { return Clock::now() < window_end_; }
  std::string WorkDir(const std::string& name) const {
    return (fs::path(opt_.workdir) / name).string();
  }
  void Print(const Status& st) const;

  Options opt_;
  Tracer tracer_;
  SpeedProbe probe_;
  Clock::time_point window_end_;
  std::map<std::string, double> e2e_, layer_, info_;
  uint64_t graph_fp_ = 0, delta_fp_ = 0;
  size_t attempted_ = 0, failed_ = 0;
  std::vector<Interval> parse_, compile_, run_, save_, load_;
  size_t triples_ = 0;
};

StatusOr<Session> Bench::Build(std::string_view text, const KeySet& keys,
                               Algorithm algo) {
  Session s;
  {
    Span span(tracer_, "io.parse");
    auto lg = FastDeserializeGraphWithNames(text);
    parse_.push_back(span.Stop());
    if (!lg.ok()) return lg.status();
    // Moving a Graph copies its string interner, which costs as much as
    // a tenth of the parse; it is the graph layer's time, not glue.
    Span move(tracer_, "graph.move");
    s.lg = std::make_unique<LoadedGraph>(std::move(*lg));
  }
  {
    Span span(tracer_, "plan.compile");
    auto plan = Matcher::Compile(s.lg->graph, keys,
                                 PlanOptions::For(algo, kProcessors));
    compile_.push_back(span.Stop());
    if (!plan.ok()) return plan.status();
    s.plan = std::move(*plan);
  }
  {
    Span span(tracer_, "engine.run");
    auto result = Matcher(algo).processors(kProcessors).Run(s.plan);
    run_.push_back(span.Stop());
    if (!result.ok()) return result.status();
    s.result = std::move(*result);
  }
  return s;
}

/// The set-up every workload starts with: graph text to first full
/// result, kSetupBuilds times (setup_s is the median). Returns the last
/// `keep` builds.
StatusOr<std::vector<Session>> Bench::Setup(
    std::string_view text, const KeySet& keys, Algorithm algo,
    const std::function<Status(const Session&)>& check, size_t keep) {
  std::vector<Session> kept;
  std::vector<Interval> builds;
  probe_.Sample();
  for (int i = 0; i < kSetupBuilds; ++i) {
    if (kept.size() == keep) kept.erase(kept.begin());
    Span op(tracer_, "op.setup");
    auto s = Build(text, keys, algo);
    builds.push_back(op.Stop());
    probe_.Sample();
    GKEYS_RETURN_IF_ERROR(Op(s.ok() && check ? check(*s) : s.status()));
    kept.push_back(std::move(*s));
  }
  e2e_["setup_s"] = NormalMedian(builds);
  info_["raw_setup_s"] = RawMedian(builds);
  const Session& s = kept.back();
  const EmStats& st = s.result.stats;
  triples_ = s.lg->graph.NumTriples();
  info_["triples"] = static_cast<double>(triples_);
  info_["pairs"] = static_cast<double>(s.result.pairs.size());
  layer_["plan.candidates"] = static_cast<double>(s.plan.num_candidates());
  layer_["engine.iso_checks"] = static_cast<double>(st.iso_checks);
  layer_["engine.messages"] = static_cast<double>(st.messages);
  layer_["engine.rounds"] = static_cast<double>(st.rounds);
  layer_["engine.pairs_per_iso_check"] =
      Ratio(static_cast<double>(st.confirmed),
            static_cast<double>(st.iso_checks));
  return kept;
}

/// Loads a snapshot file back: MmapStore::Open + Snapshot::Load.
Status Bench::LoadSnapshot(const std::string& path) {
  const Clock::time_point start = Clock::now();
  auto store = storage::MmapStore::Open(path);
  if (!store.ok()) return store.status();
  auto snap = storage::Snapshot::Load(**store);
  if (!snap.ok()) return snap.status();
  load_.push_back({start, Clock::now()});
  probe_.Sample();
  return Status::OK();
}

/// Saves the session into a fresh durable directory kCheckpoints times
/// (checkpoint_s is the median). A traced run also loads the last
/// snapshot back, for storage.load_s.
Status Bench::Checkpoint(const Session& s, const KeySet& keys,
                         Algorithm algo) {
  std::vector<Interval> saves;
  probe_.Sample();
  for (int i = 0; i < kCheckpoints; ++i) {
    const std::string path = WorkDir("checkpoint" + std::to_string(i));
    fs::remove_all(path);
    auto dir = storage::DurableDir::Open(path);
    GKEYS_RETURN_IF_ERROR(dir.status());
    Status st;
    {
      Span op(tracer_, "op.checkpoint");
      Span save(tracer_, "storage.save");
      st = dir->SaveSnapshot(s.lg->graph, keys, s.plan, s.result, algo,
                             &s.lg->entities);
      saves.push_back(save.Stop());
    }
    probe_.Sample();
    GKEYS_RETURN_IF_ERROR(Op(st));
    const std::string snap = dir->SnapshotPath(dir->generation());
    const double bytes = static_cast<double>(fs::file_size(snap));
    e2e_["snapshot_bytes_per_triple"] =
        Ratio(bytes, static_cast<double>(s.lg->graph.NumTriples()));
    layer_["storage.snapshot_bytes"] = bytes;
    if (tracer_.enabled() && i + 1 == kCheckpoints) {
      GKEYS_RETURN_IF_ERROR(LoadSnapshot(snap));
    }
    fs::remove_all(path);
  }
  save_.insert(save_.end(), saves.begin(), saves.end());
  e2e_["checkpoint_s"] = NormalMedian(saves);
  layer_["plan.bytes"] = static_cast<double>(s.plan.memory_bytes());
  return Status::OK();
}

void Bench::RecordPatches(const PatchTotals& p) {
  double total = Sum(p.patch_s);
  layer_["plan.patch_over_compile"] =
      Ratio(Median(p.patch_s), RawMedian(compile_));
  layer_["plan.patch.keys_fraction"] = Ratio(p.keys, total);
  layer_["plan.patch.affected_fraction"] = Ratio(p.affected_s, total);
  layer_["plan.patch.dneighbor_fraction"] = Ratio(p.dneighbor, total);
  layer_["plan.patch.enumerate_fraction"] = Ratio(p.enumerate, total);
  layer_["plan.patch.pairing_fraction"] = Ratio(p.pairing, total);
  layer_["plan.patch.depindex_fraction"] = Ratio(p.depindex, total);
  layer_["plan.patch.product_graph_fraction"] = Ratio(p.product_graph, total);
  layer_["plan.dirty_candidates"] = Median(p.dirty);
  layer_["plan.affected_entities"] = Median(p.affected);
  layer_["plan.dirty_per_affected"] = Ratio(Sum(p.dirty), Sum(p.affected));
}

// ---- cold_match -----------------------------------------------------------
// The paper's own experiment: a whole graph matched from text, closed loop.

Status Bench::ColdMatch() {
  const Algorithm algo = Algorithm::kEmOptVc;
  DBpediaSimConfig config;
  config.seed = opt_.seed;
  config.scale = kColdScale;
  SyntheticDataset ds = GenerateDBpediaSim(config);
  const std::vector<std::string> tokens = EntityTokens(ds.graph);
  const std::string text = SerializeGraph(ds.graph);
  graph_fp_ = Fnv1a64(text);
  delta_fp_ = Fingerprint({});

  auto check = [&](const Session& s) -> Status {
    auto want = ExpectedPairs(ds.planted, tokens, s.lg->entities);
    GKEYS_RETURN_IF_ERROR(want.status());
    return SamePairs(s.result.pairs, *want, "cold match vs planted truth");
  };
  auto setup = Setup(text, ds.keys, algo, check, 1);
  GKEYS_RETURN_IF_ERROR(setup.status());
  Session last = std::move(setup->back());

  std::vector<Interval> matches;
  StartWindow();
  while (matches.empty() || WindowOpen()) {
    last = Session{};  // the previous session is freed outside the op
    Span op(tracer_, "op.match", /*window=*/true);
    auto s = Build(text, ds.keys, algo);
    matches.push_back(op.Stop());
    probe_.Sample();
    GKEYS_RETURN_IF_ERROR(Op(s.ok() ? check(*s) : s.status()));
    last = std::move(*s);
  }
  e2e_["op_p50_ms"] = NormalMedian(matches) * 1e3;
  info_["raw_op_p50_ms"] = RawMedian(matches) * 1e3;
  e2e_["triples_per_s"] = Ratio(
      static_cast<double>(triples_ * matches.size()), NormalSum(matches));
  info_["ops"] = static_cast<double>(matches.size());
  return Checkpoint(last, ds.keys, algo);
}

// ---- hub_patch ------------------------------------------------------------
// Small deltas aimed at the highest-degree entities of a power-law graph,
// one parse → Apply → Patch → Rematch commit each, closed loop.

Status Bench::HubPatch() {
  const Algorithm algo = Algorithm::kEmOptMr;
  PowerLawConfig config;
  config.seed = opt_.seed;
  config.scale = kHubScale;
  config.chained_fraction = kHubChainedFraction;
  SyntheticDataset ds = GeneratePowerLaw(config);
  std::vector<std::string> tokens = EntityTokens(ds.graph);
  const std::string text = SerializeGraph(ds.graph);
  graph_fp_ = Fnv1a64(text);

  // The stream is generated against the generator's own copy of the graph
  // (the system only ever sees the rendered text), before the window.
  DeltaGenConfig delta_config;
  delta_config.seed = opt_.seed + 1;
  delta_config.ops_per_batch = kHubOpsPerBatch;
  auto gen = MakeDeltaGenerator("hub", delta_config);
  GKEYS_RETURN_IF_ERROR(gen.status());
  std::vector<std::string> pool;
  size_t fresh = 0;
  for (size_t i = 0; i < kHubPool; ++i) {
    GraphDelta d = (*gen)->Next(ds.graph);
    pool.push_back(RenderDelta(ds.graph, d, tokens, &fresh));
    GKEYS_RETURN_IF_ERROR(ds.graph.Apply(d).status());
  }
  delta_fp_ = Fingerprint(pool);

  auto check = [&](const Session& s) -> Status {
    auto want = ExpectedPairs(ds.planted, tokens, s.lg->entities);
    GKEYS_RETURN_IF_ERROR(want.status());
    return SamePairs(s.result.pairs, *want, "hub graph vs planted truth");
  };
  auto setup = Setup(text, ds.keys, algo, check, 1);
  GKEYS_RETURN_IF_ERROR(setup.status());
  Session s = std::move(setup->back());

  const Matcher matcher = Matcher(algo).processors(kProcessors);
  std::vector<Interval> commits;
  PatchTotals patches;
  double delta_triples = 0, seeded = 0, retracted = 0;
  StartWindow();
  for (size_t k = 0; k < pool.size() && (k == 0 || WindowOpen()); ++k) {
    std::unordered_map<std::string, NodeId> new_bindings;
    std::optional<GraphDelta> delta;
    std::optional<MatchPlan> patched;
    std::optional<MatchResult> rematched;
    Status st = [&]() -> Status {
      Span op(tracer_, "op.commit", /*window=*/true);
      {
        Span span(tracer_, "io.parse_delta");
        auto d = FastParseDelta(pool[k], s.lg->graph, s.lg->entities,
                                &new_bindings);
        GKEYS_RETURN_IF_ERROR(d.status());
        delta.emplace(std::move(*d));
      }
      {
        Span span(tracer_, "graph.apply");
        GKEYS_RETURN_IF_ERROR(s.lg->graph.Apply(*delta).status());
      }
      {
        Span span(tracer_, "plan.patch");
        auto p = s.plan.Patch(*delta);
        GKEYS_RETURN_IF_ERROR(p.status());
        patched.emplace(std::move(*p));
        span.Stop();
        PatchTotals one;
        one.Add(*patched);
        one.Trace(tracer_, span.id());
      }
      {
        Span span(tracer_, "engine.rematch");
        auto r = matcher.Rematch(*patched, s.result, *delta);
        GKEYS_RETURN_IF_ERROR(r.status());
        rematched.emplace(std::move(*r));
      }
      commits.push_back(op.Stop());
      return Status::OK();
    }();
    GKEYS_RETURN_IF_ERROR(Op(st));
    probe_.Sample();
    // The replaced plan and result are freed here, outside the op.
    patches.Add(*patched);
    delta_triples += static_cast<double>(delta->num_added_triples() +
                                         delta->num_removed_triples());
    seeded += static_cast<double>(rematched->stats.rematch_seeded);
    retracted += static_cast<double>(rematched->stats.derivations_retracted);
    for (auto& [token, id] : new_bindings) s.lg->entities.emplace(token, id);
    s.plan = std::move(*patched);
    s.result = std::move(*rematched);
  }

  // Incremental must equal from scratch: a fresh Compile + Run on the
  // final graph, untimed.
  auto plan = Matcher::Compile(s.lg->graph, ds.keys,
                               PlanOptions::For(algo, kProcessors));
  GKEYS_RETURN_IF_ERROR(plan.status());
  auto scratch = matcher.Run(*plan);
  GKEYS_RETURN_IF_ERROR(scratch.status());
  GKEYS_RETURN_IF_ERROR(Op(SamePairs(s.result.pairs, scratch->pairs,
                                     "patched session vs fresh compile")));

  e2e_["op_p50_ms"] = NormalMedian(commits) * 1e3;
  info_["raw_op_p50_ms"] = RawMedian(commits) * 1e3;
  e2e_["triples_per_s"] = Ratio(delta_triples, NormalSum(commits));
  info_["ops"] = static_cast<double>(commits.size());
  info_["pool_exhausted"] = commits.size() == pool.size() ? 1 : 0;
  RecordPatches(patches);
  layer_["engine.seeded_fraction"] =
      Ratio(seeded, static_cast<double>(commits.size()));
  layer_["engine.derivations_retracted"] = retracted;
  return Checkpoint(s, ds.keys, algo);
}

// ---- stream_ingest --------------------------------------------------------
// Small text batches through Matcher::IngestStream on a large session,
// each made durable in the write-ahead log by the observer. Open loop at a
// fixed rate first (ack latency), then the rest as a backlog (drain rate).

Status Bench::StreamIngest() {
  const Algorithm algo = Algorithm::kEmOptVc;
  GoogleSimConfig config;
  config.seed = opt_.seed;
  config.scale = kStreamScale;
  SyntheticDataset ds = GenerateGoogleSim(config);
  const std::vector<std::string> tokens = EntityTokens(ds.graph);
  const HeldOut split = HoldOut(SerializeGraph(ds.graph), kStreamStride,
                                kBatchLines, SIZE_MAX);
  const std::vector<std::string>& batches = split.batches;
  graph_fp_ = Fnv1a64(split.base);
  delta_fp_ = Fingerprint(batches);

  auto setup = Setup(split.base, ds.keys, algo, nullptr, 1);
  GKEYS_RETURN_IF_ERROR(setup.status());
  Session s = std::move(setup->back());

  // The log needs a generation to append to: save the base session first.
  auto dir = storage::DurableDir::Open(WorkDir("wal"));
  GKEYS_RETURN_IF_ERROR(dir.status());
  GKEYS_RETURN_IF_ERROR(dir->SaveSnapshot(s.lg->graph, ds.keys, s.plan,
                                          s.result, algo, &s.lg->entities));

  const Matcher matcher = Matcher(algo).processors(kProcessors);
  const IngestSession session{&s.lg->graph, &s.plan, &s.result,
                              &s.lg->entities};
  // Per-phase observations, summed over the phase's IngestStream calls.
  // The observer runs on this thread; the source runs on the pipeline's
  // tokenize thread and only writes `due`/`max_lag_s`, which the queue
  // hand-off orders before the observer reads them.
  struct Phase {
    double rate = 0;                      // batches/s; 0 = backlog
    size_t offset = 0;                    // next batch to hand over
    Clock::time_point start;              // of the current call
    std::vector<Clock::time_point> due;   // current call, per batch
    std::vector<Interval> acks;           // per batch: due → WAL append
    std::vector<Interval> calls;
    double wal_s = 0, max_lag_s = 0, lines = 0, seeded = 0;
    size_t batches = 0, commits = 0;
    IngestStageSeconds sec;
    PatchTotals patches, call_patches;  // the phase's; the current call's

    double busy_s() const {
      return sec.bind + sec.apply + sec.patch + sec.rematch + wal_s;
    }
  };
  const ContextPatchInfo* last_commit = nullptr;
  auto observer_for = [&](Phase& ph) {
    return [&](const IngestBatch& batch) -> Status {
      Span span(tracer_, "storage.wal_append");
      Status st = dir->AppendDeltaText(*batch.text);
      const Interval append = span.Stop();
      ph.wal_s += append.seconds();
      ph.acks.push_back({ph.due[batch.index], append.end});
      ph.lines += static_cast<double>(LineCount(*batch.text));
      if (s.plan.patch_info() != last_commit) {  // first batch of a commit
        last_commit = s.plan.patch_info();
        ph.call_patches.Add(s.plan);
        ph.seeded += static_cast<double>(batch.result->stats.rematch_seeded);
      }
      return st;
    };
  };
  // One IngestStream call over the next `count` batches.
  auto run_call = [&](Phase& ph, const char* name, size_t count) -> Status {
    ph.due.assign(count, Clock::time_point());
    ph.call_patches = PatchTotals();
    ph.start = Clock::now();
    size_t next = 0;
    auto source = [&]() -> std::optional<std::string> {
      if (next == count) return std::nullopt;
      Clock::time_point due = ph.start;
      if (ph.rate > 0) {
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(static_cast<double>(next) /
                                          ph.rate));
        std::this_thread::sleep_until(due);
        ph.max_lag_s =
            std::max(ph.max_lag_s, SecondsBetween(due, Clock::now()));
      }
      ph.due[next] = due;
      return batches[ph.offset + next++];
    };
    IngestOptions opts;
    opts.cancelled = [this] { return !WindowOpen(); };
    Span op(tracer_, name, /*window=*/true);
    Span call(tracer_, "ingest.stream");
    IngestStats stats =
        matcher.IngestStream(session, source, opts, observer_for(ph));
    call.Stop();
    ph.calls.push_back(op.Stop());
    probe_.Sample();
    tracer_.Derived(call.id(), "io.bind", stats.seconds.bind);
    tracer_.Derived(call.id(), "graph.apply", stats.seconds.apply);
    ph.call_patches.Trace(
        tracer_, tracer_.Derived(call.id(), "plan.patch", stats.seconds.patch));
    ph.patches.Merge(ph.call_patches);
    tracer_.Derived(call.id(), "engine.rematch", stats.seconds.rematch);
    ph.offset += stats.batches;
    ph.batches += stats.batches;
    ph.commits += stats.commits;
    ph.sec.parse += stats.seconds.parse;
    ph.sec.bind += stats.seconds.bind;
    ph.sec.apply += stats.seconds.apply;
    ph.sec.patch += stats.seconds.patch;
    ph.sec.rematch += stats.seconds.rematch;
    attempted_ += stats.batches;
    if (stats.status.code() == StatusCode::kCancelled) return Status::OK();
    return Op(stats.status);
  };

  probe_.Sample();
  StartWindow();
  Phase paced, drain;
  paced.rate = kPacedRate;
  const size_t paced_end = std::min(
      batches.size(),
      static_cast<size_t>(kPacedRate * kPacedShare * opt_.seconds));
  while (paced.offset < paced_end && WindowOpen()) {
    GKEYS_RETURN_IF_ERROR(
        run_call(paced, "op.ingest_paced",
                 std::min(kPacedChunk, paced_end - paced.offset)));
  }
  drain.offset = paced.offset;
  while (drain.offset < batches.size() && WindowOpen()) {
    GKEYS_RETURN_IF_ERROR(
        run_call(drain, "op.ingest_drain",
                 std::min(kDrainChunk, batches.size() - drain.offset)));
  }

  // Whatever the window cut off is ingested untimed, so every held-out
  // triple is back before the check.
  size_t next = drain.offset;
  IngestStats rest = matcher.IngestStream(
      session, [&]() -> std::optional<std::string> {
        if (next == batches.size()) return std::nullopt;
        return batches[next++];
      });
  GKEYS_RETURN_IF_ERROR(rest.status);
  auto want = ExpectedPairs(ds.planted, tokens, s.lg->entities);
  GKEYS_RETURN_IF_ERROR(want.status());
  GKEYS_RETURN_IF_ERROR(Op(SamePairs(s.result.pairs, *want,
                                     "ingested session vs planted truth")));

  std::vector<double> ack_ms;
  for (const Interval& i : paced.acks) {
    ack_ms.push_back(probe_.Normalize(i) * 1e3);
  }
  e2e_["op_p50_ms"] = Median(ack_ms);
  info_["raw_op_p50_ms"] = RawMedian(paced.acks) * 1e3;
  e2e_["triples_per_s"] = Ratio(drain.lines, NormalSum(drain.calls));
  info_["batches"] = static_cast<double>(batches.size());
  info_["paced_batches"] = static_cast<double>(paced.batches);
  info_["drained_batches"] = static_cast<double>(drain.batches);

  PatchTotals all = paced.patches;
  all.Merge(drain.patches);
  RecordPatches(all);

  const double commits = static_cast<double>(paced.commits + drain.commits);
  const double busy_s = paced.busy_s() + drain.busy_s();
  const double wal_bytes =
      static_cast<double>(fs::file_size(dir->WalPath(dir->generation())));
  layer_["engine.seeded_fraction"] =
      Ratio(paced.seeded + drain.seeded, commits);
  layer_["ingest.commits"] = commits;
  layer_["ingest.batches_per_commit"] =
      Ratio(static_cast<double>(paced.batches + drain.batches), commits);
  double paced_s = 0;
  for (const Interval& i : paced.calls) paced_s += i.seconds();
  layer_["ingest.engine_busy_fraction"] = Ratio(paced.busy_s(), paced_s);
  layer_["ingest.source_lag_intervals"] = paced.max_lag_s * kPacedRate;
  layer_["ingest.parse_fraction"] =
      Ratio(paced.sec.parse + drain.sec.parse, busy_s);
  layer_["ingest.bind_fraction"] =
      Ratio(paced.sec.bind + drain.sec.bind, busy_s);
  layer_["ingest.wal_fraction"] = Ratio(paced.wal_s + drain.wal_s, busy_s);
  layer_["ingest.ack_p98_over_p50"] =
      Ratio(Percentile(ack_ms, 0.98), Median(ack_ms));
  layer_["storage.wal_bytes_per_triple"] =
      Ratio(wal_bytes, paced.lines + drain.lines);
  return Checkpoint(s, ds.keys, algo);
}

// ---- recover --------------------------------------------------------------
// Checkpoint a session, log a few batches, and rebuild it with
// Matcher::Recover: both storage paths plus write-ahead-log replay.

Status Bench::RecoverWorkload() {
  const Algorithm algo = Algorithm::kEmOptVc;
  DBpediaSimConfig config;
  config.seed = opt_.seed;
  config.scale = kRecoverScale;
  SyntheticDataset ds = GenerateDBpediaSim(config);
  const std::vector<std::string> tokens = EntityTokens(ds.graph);
  const std::string text = SerializeGraph(ds.graph);
  const size_t held = kRecoverBatches * kBatchLines;
  const HeldOut split =
      HoldOut(text, LineCount(text) / held, kBatchLines, held);
  graph_fp_ = Fnv1a64(split.base);
  delta_fp_ = Fingerprint(split.batches);

  // Two identical sessions: the twin ingests the batches live and its
  // result is the answer every recovery must reproduce byte for byte.
  auto setup = Setup(split.base, ds.keys, algo, nullptr, 2);
  GKEYS_RETURN_IF_ERROR(setup.status());
  Session& base = (*setup)[1];
  Session& twin = (*setup)[0];
  const Matcher matcher = Matcher(algo).processors(kProcessors);
  size_t next = 0;
  const Clock::time_point live_start = Clock::now();
  IngestStats live = matcher.IngestStream(
      IngestSession{&twin.lg->graph, &twin.plan, &twin.result,
                    &twin.lg->entities},
      [&]() -> std::optional<std::string> {
        if (next == split.batches.size()) return std::nullopt;
        return split.batches[next++];
      });
  const Interval live_ingest{live_start, Clock::now()};
  probe_.Sample();
  GKEYS_RETURN_IF_ERROR(live.status);
  auto want = ExpectedPairs(ds.planted, tokens, twin.lg->entities);
  GKEYS_RETURN_IF_ERROR(want.status());
  GKEYS_RETURN_IF_ERROR(
      SamePairs(twin.result.pairs, *want, "live twin vs planted truth"));
  const PairList& expected = twin.result.pairs;

  std::vector<Interval> recoveries;
  std::vector<double> replay_s, snapshot_bytes, wal_bytes;
  StartWindow();
  for (int rep = 0; rep == 0 || WindowOpen(); ++rep) {
    const std::string path = WorkDir("rep" + std::to_string(rep));
    fs::remove_all(path);
    auto dir = storage::DurableDir::Open(path);
    GKEYS_RETURN_IF_ERROR(dir.status());
    Status st;
    {
      Span op(tracer_, "op.checkpoint", /*window=*/true);
      Span save(tracer_, "storage.save");
      st = dir->SaveSnapshot(base.lg->graph, ds.keys, base.plan, base.result,
                             algo, &base.lg->entities);
      save_.push_back(save.Stop());
    }
    probe_.Sample();
    GKEYS_RETURN_IF_ERROR(Op(st));
    const std::string snap = dir->SnapshotPath(dir->generation());
    snapshot_bytes.push_back(static_cast<double>(fs::file_size(snap)));
    for (const std::string& batch : split.batches) {
      GKEYS_RETURN_IF_ERROR(dir->AppendDeltaText(batch));
    }
    wal_bytes.push_back(
        static_cast<double>(fs::file_size(dir->WalPath(dir->generation()))));

    std::optional<storage::RecoveredSession> recovered;
    int call_id = -1;
    st = [&]() -> Status {
      Span op(tracer_, "op.recover", /*window=*/true);
      Span call(tracer_, "storage.recover");
      call_id = call.id();
      auto r = matcher.Recover(path);
      recoveries.push_back(call.Stop());
      GKEYS_RETURN_IF_ERROR(r.status());
      recovered.emplace(std::move(*r));
      return Status::OK();
    }();
    probe_.Sample();
    if (st.ok() && recovered->report.batches_replayed != split.batches.size()) {
      st = Status::DataLoss(
          "recovery replayed " +
          std::to_string(recovered->report.batches_replayed) + " of " +
          std::to_string(split.batches.size()) + " batches");
    }
    if (st.ok()) {
      st = SamePairs(recovered->snapshot.result().pairs, expected,
                     "recovered session vs live twin");
    }
    GKEYS_RETURN_IF_ERROR(Op(st));
    recovered.reset();
    if (tracer_.enabled()) {
      // Load alone, timed separately, splits the recovery into its load
      // and its replay.
      GKEYS_RETURN_IF_ERROR(LoadSnapshot(snap));
      const double load = probe_.Normalize(load_.back());
      replay_s.push_back(probe_.Normalize(recoveries.back()) - load);
      tracer_.Derived(call_id, "storage.load", load_.back().seconds());
      tracer_.Derived(call_id, "storage.replay",
                      recoveries.back().seconds() - load_.back().seconds());
    }
    fs::remove_all(path);
  }

  e2e_["op_p50_ms"] = NormalMedian(recoveries) * 1e3;
  info_["raw_op_p50_ms"] = RawMedian(recoveries) * 1e3;
  e2e_["triples_per_s"] =
      Ratio(static_cast<double>(triples_ * recoveries.size()),
            NormalSum(recoveries));
  e2e_["checkpoint_s"] = NormalMedian(save_);
  e2e_["snapshot_bytes_per_triple"] =
      Ratio(Median(snapshot_bytes), static_cast<double>(triples_));
  info_["ops"] = static_cast<double>(recoveries.size());
  layer_["storage.snapshot_bytes"] = Median(snapshot_bytes);
  layer_["storage.wal_bytes_per_triple"] =
      Ratio(Median(wal_bytes), static_cast<double>(held));
  layer_["plan.bytes"] = static_cast<double>(base.plan.memory_bytes());
  if (!replay_s.empty()) {
    layer_["storage.load_fraction_of_recover"] =
        Ratio(NormalMedian(load_), NormalMedian(recoveries));
    layer_["storage.replay_over_live_batch"] =
        Ratio(Median(replay_s), probe_.Normalize(live_ingest));
  }
  return Status::OK();
}

int Bench::Main() {
  // Every per-layer metric is reported by every workload; a layer a
  // workload does not exercise reads 0.
  for (const char* name : {
           "plan.patch_over_compile", "plan.patch.keys_fraction",
           "plan.patch.affected_fraction", "plan.patch.dneighbor_fraction",
           "plan.patch.enumerate_fraction", "plan.patch.pairing_fraction",
           "plan.patch.depindex_fraction",
           "plan.patch.product_graph_fraction", "plan.dirty_candidates",
           "plan.affected_entities", "plan.dirty_per_affected",
           "engine.seeded_fraction", "engine.derivations_retracted",
           "ingest.commits", "ingest.batches_per_commit",
           "ingest.engine_busy_fraction", "ingest.source_lag_intervals",
           "ingest.parse_fraction", "ingest.bind_fraction",
           "ingest.wal_fraction", "ingest.ack_p98_over_p50",
           "storage.wal_bytes_per_triple", "storage.load_fraction_of_recover",
           "storage.replay_over_live_batch"}) {
    layer_[name] = 0;
  }
  fs::create_directories(opt_.workdir);

  Status st;
  if (opt_.workload == "cold_match") {
    st = ColdMatch();
  } else if (opt_.workload == "hub_patch") {
    st = HubPatch();
  } else if (opt_.workload == "stream_ingest") {
    st = StreamIngest();
  } else if (opt_.workload == "recover") {
    st = RecoverWorkload();
  } else {
    std::fprintf(stderr, "gkeys_bench: unknown workload '%s'\n",
                 opt_.workload.c_str());
    return 2;
  }
  fs::remove_all(opt_.workdir);

  layer_["io.parse_s"] = NormalMedian(parse_);
  layer_["io.parse_triples_per_s"] =
      Ratio(static_cast<double>(triples_), layer_["io.parse_s"]);
  layer_["plan.compile_s"] = NormalMedian(compile_);
  layer_["engine.run_s"] = NormalMedian(run_);
  layer_["storage.save_s"] = NormalMedian(save_);
  layer_["storage.load_s"] = NormalMedian(load_);
  info_["speed_factor"] = probe_.MedianFactor();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  e2e_["peak_rss_mb"] =
      static_cast<double>(usage.ru_maxrss) / 1024.0 -
      static_cast<double>(SpeedProbe::kBufferBytes >> 20);

  if (tracer_.enabled()) {
    double window_s = 0;
    size_t spans = 0;
    tracer_.WindowTotals(&window_s, &spans);
    layer_["trace_overhead"] =
        Ratio(static_cast<double>(spans) * SpanCostSeconds(), window_s);
    Status written = tracer_.Write(opt_.trace_path);
    if (st.ok()) st = written;
  }
  Print(st);
  return st.ok() ? 0 : 1;
}

void Bench::Print(const Status& st) const {
  auto object = [](const std::map<std::string, double>& m) {
    std::string out = "{";
    char buf[64];
    for (const auto& [key, value] : m) {
      if (out.size() > 1) out += ", ";
      out += "\"";
      AppendJsonEscaped(key, &out);
      std::snprintf(buf, sizeof buf, "\": %.17g", value);
      out += buf;
    }
    return out + "}";
  };
  char fp[96];
  std::snprintf(fp, sizeof fp,
                "{\"graph\": \"%016llx\", \"deltas\": \"%016llx\"}",
                static_cast<unsigned long long>(graph_fp_),
                static_cast<unsigned long long>(delta_fp_));
  std::string out =
      "{\"workload\": \"" + JsonEscaped(opt_.workload) +
      "\", \"seed\": " + std::to_string(opt_.seed) +
      ", \"ok\": " + (st.ok() ? "true" : "false") + ", \"error\": \"" +
      JsonEscaped(st.ok() ? "" : st.ToString()) +
      "\", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) + ", \"fingerprint\": " + fp +
      ", \"end_to_end\": " + object(e2e_) +
      ", \"per_layer\": " + object(layer_) + ", \"info\": " + object(info_) +
      "}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&](std::string_view flag) -> std::optional<std::string> {
      if (arg.substr(0, flag.size()) != flag) return std::nullopt;
      return std::string(arg.substr(flag.size()));
    };
    if (auto v = value("--workload=")) {
      opt->workload = *v;
    } else if (auto v = value("--seed=")) {
      opt->seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seconds=")) {
      opt->seconds = std::strtod(v->c_str(), nullptr);
    } else if (auto v = value("--workdir=")) {
      opt->workdir = *v;
    } else if (auto v = value("--trace=")) {
      opt->trace_path = *v;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && !opt->workdir.empty() && opt->seconds > 0;
}

}  // namespace
}  // namespace bench
}  // namespace gkeys

int main(int argc, char** argv) {
  gkeys::bench::Options opt;
  if (!gkeys::bench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: gkeys_bench --workload=NAME --seed=N --seconds=S "
                 "--workdir=DIR [--trace=FILE]\n");
    return 2;
  }
  return gkeys::bench::Bench(std::move(opt)).Main();
}
