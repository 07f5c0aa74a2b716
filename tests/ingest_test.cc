// High-throughput ingest equivalence suite (docs/ARCHITECTURE.md
// "Ingest pipeline"):
//   (a) the parsers (io/fast_triples.h) against the reference parsers
//       (tests/triples_reference.h) — identical output on every
//       accepted input, error-for-error agreement on mangled input,
//       property-tested over random valid and byte-flipped texts;
//   (b) the sharded derivation log against a single shard, and runs at
//       1, 2 and 4 processors (one log shard each) against each other
//       across all six algorithms;
//   (c) the staged ingest pipeline against the serial
//       parse → Apply → Patch → Rematch chain, batch for batch,
//       including mid-stream parse errors and cancellation.

#include "io/fast_triples.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/fixpoint.h"
#include "core/matcher.h"
#include "core/provenance.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "graph/delta.h"
#include "io/triples.h"
#include "test_util.h"
#include "triples_reference.h"

namespace gkeys {
namespace {

// ---------------------------------------------------------------------------
// (a) parser == reference parser
// ---------------------------------------------------------------------------

/// Asserts the two graph parses agree completely: acceptance, NodeIds
/// (via re-serialization, which is NodeId- and interner-order
/// sensitive), and the entity binding table.
void ExpectSameGraphParse(std::string_view text) {
  auto scalar = reference::DeserializeGraphWithNames(text);
  auto fast = FastDeserializeGraphWithNames(text);
  ASSERT_EQ(scalar.ok(), fast.ok())
      << "scalar: " << scalar.status().ToString()
      << " fast: " << fast.status().ToString();
  if (!scalar.ok()) {
    EXPECT_EQ(scalar.status().ToString(), fast.status().ToString());
    return;
  }
  EXPECT_EQ(SerializeGraph(scalar->graph), SerializeGraph(fast->graph));
  EXPECT_EQ(scalar->graph.NumNodes(), fast->graph.NumNodes());
  EXPECT_EQ(scalar->entities, fast->entities);
}

/// Extracts the 1-based line number from a parser error message
/// ("line N: ..." / "delta line N: ..."), or -1.
int ErrorLineOf(const Status& st) {
  const std::string& msg = st.message();
  size_t at = msg.find("line ");
  if (at == std::string::npos) return -1;
  return std::atoi(msg.c_str() + at + 5);
}

/// Delta parses must agree on acceptance, staged content (compared by
/// applying to graph copies and re-serializing), and new bindings. On
/// rejection both paths must name the same line (messages may name a
/// different field of that line — documented in io/fast_triples.h).
void ExpectSameDeltaParse(std::string_view delta_text,
                          const LoadedGraph& lg) {
  std::unordered_map<std::string, NodeId> scalar_bindings, fast_bindings;
  auto scalar = reference::ParseDelta(delta_text, lg.graph, lg.entities,
                                      &scalar_bindings);
  auto fast =
      FastParseDelta(delta_text, lg.graph, lg.entities, &fast_bindings);
  ASSERT_EQ(scalar.ok(), fast.ok())
      << "scalar: " << scalar.status().ToString()
      << " fast: " << fast.status().ToString();
  if (!scalar.ok()) {
    EXPECT_EQ(scalar.status().code(), fast.status().code());
    EXPECT_EQ(ErrorLineOf(scalar.status()), ErrorLineOf(fast.status()));
    return;
  }
  EXPECT_EQ(scalar->num_added_triples(), fast->num_added_triples());
  EXPECT_EQ(scalar->num_removed_triples(), fast->num_removed_triples());
  Graph a = lg.graph;
  Graph b = lg.graph;
  auto da = a.Apply(*scalar);
  auto db = b.Apply(*fast);
  ASSERT_EQ(da.ok(), db.ok());
  if (da.ok()) {
    EXPECT_EQ(SerializeGraph(a), SerializeGraph(b));
  }
  EXPECT_EQ(scalar_bindings, fast_bindings);
}

TEST(FastParser, GraphMusicRoundTrip) {
  auto m = testing::MakeG1();
  std::string text = SerializeGraph(m.g);
  ExpectSameGraphParse(text);
}

TEST(FastParser, GraphQuirks) {
  // The scalar grammar's corners, accepted and rejected alike: escapes,
  // lone trailing backslash, @exists with an unvalidated object, empty
  // ids, comments, blank lines, values with spaces.
  const char* cases[] = {
      "",
      "# only a comment\n",
      "ent:artist:0 name_of val:\"A B  C\"\n",
      "ent:artist:0 name_of val:\"esc \\\" quote\\\\\"\n",
      "ent:artist:0 name_of val:\"trailing\\\"\n",
      "ent:artist:0 @exists anything-goes-here\n",
      "ent:artist:0 @exists\n",            // 2 fields only: rejected
      "ent:artist: name_of val:\"x\"\n",   // empty id: graph format accepts
      "ent:artist name_of val:\"x\"\n",    // no id separator: rejected
      "ent::3 name_of val:\"x\"\n",        // empty type: rejected
      "val:\"a\" p val:\"b\"\n",           // value subject: bind rejects
      "ent:a:0  doublespace val:\"x\"\n",  // empty predicate: accepted
      "ent:a:0 p val:\"unterminated\n",
      "bogus p val:\"x\"\n",
      "ent:a:0 p\n",
      "ent:a:0 p ent:a:0\nent:a:0 p ent:a:0\n",  // duplicate triple
      "ent:a:0 p val:\"x\"",                     // no trailing newline
      "ent:a:0 p val:\"x\"\r\nent:a:1 p val:\"x\"\r\n",  // CRLF
      "# c\r\n\r\nent:a:0 p val:\"x\"\r",                // stray final CR
      // Across lines the first failing line wins, whichever check fails:
      "val:\"a\" p val:\"b\"\nbogus p val:\"x\"\n",  // line 1: value subject
      "bogus p val:\"x\"\nval:\"a\" p val:\"b\"\n",  // line 1: malformed ref
  };
  for (const char* text : cases) {
    SCOPED_TRACE(std::string("text: ") + text);
    ExpectSameGraphParse(text);
  }
}

TEST(FastParser, ValueSubjectIsALineNumberedParseError) {
  const char* text =
      "ent:a:1 p val:\"x\"\n"
      "ent:a:2 p val:\"y\"\n"
      "val:\"x\" q ent:a:1\n";
  auto scalar = reference::DeserializeGraphWithNames(text);
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(scalar.status().code(), StatusCode::kParseError);
  EXPECT_EQ(scalar.status().message(), "line 3: subject must be an entity");
  auto fast = FastDeserializeGraphWithNames(text);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status().ToString(), scalar.status().ToString());
}

TEST(FastParser, CrlfEqualsLf) {
  auto m = testing::MakeG1();
  std::string lf = SerializeGraph(m.g);
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf.push_back('\r');
    crlf.push_back(c);
  }
  // Drop the final newline too: both robustness fixes at once.
  std::string crlf_no_tail = crlf.substr(0, crlf.size() - 2);
  for (const std::string& variant : {crlf, crlf_no_tail}) {
    auto from_lf = reference::DeserializeGraphWithNames(lf);
    auto scalar = reference::DeserializeGraphWithNames(variant);
    auto fast = FastDeserializeGraphWithNames(variant);
    ASSERT_TRUE(from_lf.ok());
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(SerializeGraph(scalar->graph), SerializeGraph(from_lf->graph));
    EXPECT_EQ(SerializeGraph(fast->graph), SerializeGraph(from_lf->graph));
  }
}

/// A random syntactically valid delta against `lg`: additions of new
/// triples (sometimes through brand-new entities), removals of present
/// triples, comments, and CRLF line endings sprinkled in.
std::string RandomDeltaText(const LoadedGraph& lg, Rng& rng, size_t ops) {
  std::vector<std::string> ent_tokens;
  for (const auto& [token, id] : lg.entities) ent_tokens.push_back(token);
  std::sort(ent_tokens.begin(), ent_tokens.end());
  std::vector<Triple> triples;
  lg.graph.ForEachTriple([&](const Triple& t) { triples.push_back(t); });
  std::unordered_map<NodeId, std::string> token_of;
  for (const auto& [token, id] : lg.entities) token_of[id] = token;

  std::string out;
  for (size_t i = 0; i < ops; ++i) {
    switch (rng.Below(6)) {
      case 0:
        out += "# comment\n";
        break;
      case 1: {  // new entity with a value edge
        out += "+ ent:artist:new" + std::to_string(rng.Below(8)) +
               " name_of val:\"v" + std::to_string(rng.Below(16)) + "\"\n";
        break;
      }
      case 2: {  // edge between existing entities
        if (ent_tokens.empty()) break;
        out += "+ " + ent_tokens[rng.Below(ent_tokens.size())] + " linked " +
               ent_tokens[rng.Below(ent_tokens.size())] + "\n";
        break;
      }
      case 3: {  // value edge with escapes
        if (ent_tokens.empty()) break;
        out += "+ " + ent_tokens[rng.Below(ent_tokens.size())] +
               " tagged val:\"a\\\"b\\\\c " + std::to_string(rng.Below(9)) +
               "\"\n";
        break;
      }
      default: {  // removal of a present entity→value triple
        if (triples.empty()) break;
        const Triple& t = triples[rng.Below(triples.size())];
        auto s_tok = token_of.find(t.subject);
        if (s_tok == token_of.end() || !lg.graph.IsValue(t.object)) break;
        std::string lit;
        for (char c : lg.graph.value_str(t.object)) {
          if (c == '"' || c == '\\') lit.push_back('\\');
          lit.push_back(c);
        }
        out += "- " + s_tok->second + " " +
               lg.graph.interner().Resolve(t.pred) + " val:\"" + lit +
               "\"\n";
        break;
      }
    }
    if (rng.Chance(0.1) && !out.empty() && out.back() == '\n') {
      out.back() = '\r';
      out.push_back('\n');
    }
  }
  return out;
}

TEST(FastParser, DeltaPropertyRandomValid) {
  auto m = testing::MakeG1();
  auto lg = FastDeserializeGraphWithNames(SerializeGraph(m.g));
  ASSERT_TRUE(lg.ok());
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    std::string text = RandomDeltaText(*lg, rng, 1 + rng.Below(20));
    SCOPED_TRACE("trial " + std::to_string(trial) + "\n" + text);
    ExpectSameDeltaParse(text, *lg);
  }
}

TEST(FastParser, DeltaQuirks) {
  auto m = testing::MakeG1();
  auto lg = FastDeserializeGraphWithNames(SerializeGraph(m.g));
  ASSERT_TRUE(lg.ok());
  const char* cases[] = {
      "",
      "# nothing\n",
      "+ ent:artist:0 p val:\"x\"\n",
      "+ ent:artist:9 p val:\"x\"\n",    // unseen token: stages new entity
      "- ent:artist:9 p val:\"x\"\n",    // unknown entity removal: rejected
      "- ent:artist:0 name_of val:\"The Beatles\"\n",
      "- ent:artist:0 name_of val:\"NoSuchValue\"\n",  // unknown value
      "- ent:artist:0 bogus_pred val:\"The Beatles\"\n",
      "+ ent:artist: p val:\"x\"\n",     // empty id: delta format rejects
      "+ ent::3 p val:\"x\"\n",          // empty type: rejected
      "+ ent:artist:0  p val:\"x\"\n",   // empty predicate: rejected
      "+ ent:artist:0 p val:\"x\"",      // no trailing newline
      "+ ent:artist:0 p val:\"x\"\r\n",  // CRLF
      "* ent:artist:0 p val:\"x\"\n",    // bad op
      "+ent:artist:0 p val:\"x\"\n",     // missing space after op
      "+ ent:artist:0 p\n",              // 2 fields
      "+ bogus p val:\"x\"\n",
      "+ ent:artist:0 p val:\"open\n",
      "+ val:\"a\" p val:\"b\"\n",       // value subject in a delta
      "- val:\"The Beatles\" x val:\"1996\"\n",
  };
  for (const char* text : cases) {
    SCOPED_TRACE(std::string("text: ") + text);
    ExpectSameDeltaParse(text, *lg);
  }
}

TEST(FastParser, FuzzGraphByteFlips) {
  SyntheticConfig cfg;
  cfg.entities_per_type = 60;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  std::string base = SerializeGraph(ds.graph);
  Rng rng(1234);
  for (int trial = 0; trial < 120; ++trial) {
    std::string mangled = base;
    size_t flips = 1 + rng.Below(4);
    for (size_t f = 0; f < flips; ++f) {
      mangled[rng.Below(mangled.size())] =
          static_cast<char>(rng.Below(256));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameGraphParse(mangled);
  }
}

TEST(FastParser, FuzzDeltaByteFlips) {
  auto m = testing::MakeG1();
  auto lg = FastDeserializeGraphWithNames(SerializeGraph(m.g));
  ASSERT_TRUE(lg.ok());
  Rng rng(99);
  std::string base = RandomDeltaText(*lg, rng, 24);
  ASSERT_FALSE(base.empty());
  for (int trial = 0; trial < 200; ++trial) {
    std::string mangled = base;
    size_t flips = 1 + rng.Below(3);
    for (size_t f = 0; f < flips; ++f) {
      mangled[rng.Below(mangled.size())] =
          static_cast<char>(rng.Below(256));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameDeltaParse(mangled, *lg);
  }
}

// ---------------------------------------------------------------------------
// (b) sharded logs == one log
// ---------------------------------------------------------------------------

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm> algos = {
      Algorithm::kNaiveChase, Algorithm::kEmMr,  Algorithm::kEmVf2Mr,
      Algorithm::kEmOptMr,    Algorithm::kEmVc,  Algorithm::kEmOptVc};
  return algos;
}

SyntheticDataset ShardWorkload(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_groups = 2;
  cfg.chain_length = 2;
  cfg.radius = 2;
  cfg.entities_per_type = 18;
  return GenerateSynthetic(cfg);
}

std::string DerivationToString(const Derivation& d) {
  std::string s = std::to_string(d.e1) + "," + std::to_string(d.e2) + ",k" +
                  std::to_string(d.key) + ";";
  for (const auto& [a, b] : d.premises) {
    s += std::to_string(a) + "-" + std::to_string(b) + " ";
  }
  s += ";";
  for (const WitnessTriple& t : d.triples) {
    s += std::to_string(t.s) + "." + std::to_string(t.p) + "." +
         std::to_string(t.o) + " ";
  }
  return s;
}

std::vector<std::string> DerivationStrings(
    const std::vector<Derivation>& ds) {
  std::vector<std::string> out;
  out.reserve(ds.size());
  for (const Derivation& d : ds) out.push_back(DerivationToString(d));
  return out;
}

TEST(ShardedLogs, PairsAndClosureMatchAcrossProcessorCounts) {
  // The logs keep one shard per processor. The pair set is schedule-
  // independent, so runs at 1, 2 and 4 processors must produce byte-
  // identical pairs; the recorded derivations, whatever schedule produced
  // them, must close to exactly those pairs with nothing retracted on the
  // unchanged graph (i.e. stamp-merged shard order is replayable, same as
  // a single log's order). Every run lists its pairs from the merges its
  // workers logged, so the sparse layout (the same graph padded with
  // isolated values) checks that listing under every shard count.
  const SyntheticDataset ds = ShardWorkload(21);
  const Graph sparse = testing::PadWithIsolatedValues(ds.graph);
  for (const Graph* g : {&ds.graph, &sparse}) {
    SCOPED_TRACE(g == &sparse ? "sparse" : "dense");
    for (Algorithm algo : AllAlgorithms()) {
      SCOPED_TRACE(AlgorithmName(algo));
      auto plan = Matcher::Compile(*g, ds.keys, PlanOptions::For(algo, 2));
      ASSERT_TRUE(plan.ok());
      auto single = Matcher(algo).processors(1).Run(*plan);
      ASSERT_TRUE(single.ok());
      ASSERT_FALSE(single->pairs.empty()) << "workload too boring";
      for (int p : {1, 2, 4}) {
        SCOPED_TRACE("processors " + std::to_string(p));
        auto sharded = Matcher(algo).processors(p).Run(*plan);
        ASSERT_TRUE(sharded.ok());
        EXPECT_EQ(single->pairs, sharded->pairs);
        RetractionResult retr = RetractDerivations(*g, sharded->derivations);
        EXPECT_EQ(retr.retracted, 0u);
        EXPECT_EQ(retr.seed_pairs, sharded->pairs);
      }
    }
  }

  // A seeded rematch whose first round re-checks at least
  // kParallelBreakEven unidentified candidates runs on every worker (a
  // smaller round runs inline): re-add a third of a larger workload's
  // triples and rematch at 1, 2 and 4 processors. The pairs must equal a
  // fresh serial run's.
  DBpediaSimConfig cfg;
  cfg.seed = 21;
  cfg.scale = 3;
  const SyntheticDataset big = GenerateDBpediaSim(cfg);
  std::vector<Triple> all;
  big.graph.ForEachTriple([&](const Triple& t) { all.push_back(t); });
  std::vector<uint8_t> keep(all.size(), 1);
  for (size_t i = 0; i < all.size(); i += 3) keep[i] = 0;
  for (Algorithm algo : AllAlgorithms()) {
    // The naive chase runs sequentially, and pairs every two entities.
    if (algo == Algorithm::kNaiveChase) continue;
    SCOPED_TRACE(std::string("seeded ") + AlgorithmName(algo));
    Graph g = testing::RebuildWithout(big.graph, all, keep);
    auto plan = Matcher::Compile(g, big.keys, PlanOptions::For(algo, 2));
    ASSERT_TRUE(plan.ok());
    auto base = Matcher(algo).processors(2).Run(*plan);
    ASSERT_TRUE(base.ok());
    GraphDelta delta(g);
    for (size_t i = 0; i < all.size(); ++i) {
      if (keep[i]) continue;
      ASSERT_TRUE(delta
                      .AddTriple(all[i].subject,
                                 big.graph.interner().Resolve(all[i].pred),
                                 all[i].object)
                      .ok());
    }
    ASSERT_TRUE(g.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok());
    size_t unidentified = 0;
    for (uint32_t i : patched->dirty_candidates()) {
      const Candidate& c = patched->context().candidates()[i];
      unidentified += !std::binary_search(base->pairs.begin(),
                                          base->pairs.end(),
                                          std::pair(c.e1, c.e2));
    }
    ASSERT_GE(unidentified, kParallelBreakEven);
    auto fresh = Matcher::Compile(g, big.keys, PlanOptions::For(algo, 1));
    ASSERT_TRUE(fresh.ok());
    auto want = Matcher(algo).processors(1).Run(*fresh);
    ASSERT_TRUE(want.ok());
    for (int p : {1, 2, 4}) {
      SCOPED_TRACE("processors " + std::to_string(p));
      auto rematched = Matcher(algo).processors(p).Rematch(*patched, *base,
                                                           delta);
      ASSERT_TRUE(rematched.ok()) << rematched.status().ToString();
      EXPECT_EQ(rematched->stats.rematch_seeded, 1u);
      EXPECT_EQ(rematched->pairs, want->pairs);
    }
  }
}

Derivation NumberedDerivation(NodeId i) {
  Derivation d;
  d.e1 = i;
  d.e2 = i + 1;
  d.key = static_cast<int>(i % 3);
  d.premises = {{i, i + 2}};
  d.triples = {WitnessTriple{i, 0, i + 1}};
  return d;
}

TEST(ShardedLogs, DerivationLogTakesEntriesInRecordOrder) {
  // One recording thread always lands on one shard, and the stamp merge
  // keeps its record order: four shards take exactly what one shard
  // takes.
  internal::DerivationLog one(1);
  internal::DerivationLog four(4);
  for (NodeId i = 0; i < 64; ++i) {
    one.Record(NumberedDerivation(i));
    four.Record(NumberedDerivation(i));
  }
  std::vector<Derivation> taken = one.Take();
  ASSERT_EQ(taken.size(), 64u);
  EXPECT_EQ(DerivationStrings(taken), DerivationStrings(four.Take()));

  // Four threads, one shard each, recording in one global order (the
  // mutex serializes them): the stamp merge restores that order across
  // shards — what lets RetractDerivations replay a supporter before its
  // dependents.
  internal::DerivationLog log(4);
  Mutex mu;
  NodeId next = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < 50; ++k) {
        MutexLock lock(mu);
        log.Record(NumberedDerivation(next++));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  taken = log.Take();
  ASSERT_EQ(taken.size(), 200u);
  for (NodeId i = 0; i < taken.size(); ++i) {
    EXPECT_EQ(DerivationToString(taken[i]),
              DerivationToString(NumberedDerivation(i)));
  }
}

TEST(ShardedLogs, RematchRemovalsStayExactWithShardedLogs) {
  // Incremental path: a removal delta seeds from the provenance index
  // that a SHARDED log recorded, so the retraction really runs. The
  // result must be byte-identical to a from-scratch run on the mutated
  // graph, for one log shard and for several alike.
  SyntheticDataset ds = ShardWorkload(23);
  for (int p : {1, 2, 4}) {
    SCOPED_TRACE("processors " + std::to_string(p));
    Graph g = ds.graph;
    std::vector<Triple> present;
    g.ForEachTriple([&](const Triple& t) { present.push_back(t); });
    Matcher matcher(Algorithm::kEmOptVc);
    matcher.processors(p);
    auto plan = Matcher::Compile(g, ds.keys,
                                 PlanOptions::For(Algorithm::kEmOptVc, 2));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto r = matcher.Run(*plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->pairs.empty()) << "workload too boring";

    GraphDelta delta(g);
    Rng rng(5);
    for (int i = 0; i < 8 && !present.empty(); ++i) {
      size_t pick = rng.Below(present.size());
      const Triple t = present[pick];
      ASSERT_TRUE(delta
                      .RemoveTriple(t.subject, g.interner().Resolve(t.pred),
                                    t.object)
                      .ok());
      present.erase(present.begin() + pick);
    }
    ASSERT_TRUE(delta.has_removals());
    ASSERT_TRUE(g.Apply(delta).ok());
    auto patched = plan->Patch(delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    auto inc = matcher.Rematch(*patched, *r, delta);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_EQ(inc->stats.rematch_seeded, 1u);

    auto scratch_plan = Matcher::Compile(
        g, ds.keys, PlanOptions::For(Algorithm::kEmOptVc, 2));
    ASSERT_TRUE(scratch_plan.ok());
    auto scratch = matcher.Run(*scratch_plan);
    ASSERT_TRUE(scratch.ok());
    EXPECT_EQ(inc->pairs, scratch->pairs);
  }
}

// ---------------------------------------------------------------------------
// (c) staged pipeline == serial chain
// ---------------------------------------------------------------------------

/// One batch's committed outcome, captured identically from the serial
/// oracle and the pipeline observer: the full serialized graph (NodeId-
/// and interner-order sensitive) plus the result pairs.
struct BatchOutcome {
  std::string graph;
  std::vector<std::pair<NodeId, NodeId>> pairs;
};

bool operator==(const BatchOutcome& a, const BatchOutcome& b) {
  return a.graph == b.graph && a.pairs == b.pairs;
}

/// A live in-memory ingest session (graph + plan + result + bindings)
/// rooted at ShardWorkload(seed)'s graph, compiled for EMOptVC.
struct PipeFixture {
  LoadedGraph lg;
  KeySet keys;
  MatchPlan plan;
  MatchResult result;
  Matcher matcher{Algorithm::kEmOptVc};

  static PipeFixture Make(uint64_t seed) {
    SyntheticDataset ds = ShardWorkload(seed);
    auto lg = FastDeserializeGraphWithNames(SerializeGraph(ds.graph));
    EXPECT_TRUE(lg.ok());
    PipeFixture f;
    f.lg = *std::move(lg);
    f.keys = std::move(ds.keys);
    auto plan = Matcher::Compile(f.lg.graph, f.keys,
                                 PlanOptions::For(Algorithm::kEmOptVc, 2));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    f.plan = *std::move(plan);
    f.matcher.processors(2);
    auto r = f.matcher.Run(f.plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    f.result = *std::move(r);
    return f;
  }

  BatchOutcome Outcome() const {
    return BatchOutcome{SerializeGraph(lg.graph), result.pairs};
  }

  /// The serial chain, one batch: reference parse → Apply → Patch →
  /// Rematch. Returns the failing stage's status unchanged.
  Status SerialStep(const std::string& text) {
    std::unordered_map<std::string, NodeId> nb;
    auto delta = reference::ParseDelta(text, lg.graph, lg.entities, &nb);
    GKEYS_RETURN_IF_ERROR(delta.status());
    if (!delta->empty()) {
      auto dirty = lg.graph.Apply(*delta);
      GKEYS_RETURN_IF_ERROR(dirty.status());
      auto patched = plan.Patch(*delta);
      GKEYS_RETURN_IF_ERROR(patched.status());
      auto rematched = matcher.Rematch(*patched, result, *delta);
      GKEYS_RETURN_IF_ERROR(rematched.status());
      plan = *std::move(patched);
      result = *std::move(rematched);
    }
    for (auto& [token, id] : nb) lg.entities.emplace(token, id);
    return Status::OK();
  }

  IngestSession Session() {
    IngestSession s;
    s.graph = &lg.graph;
    s.plan = &plan;
    s.result = &result;
    s.entity_names = &lg.entities;
    return s;
  }
};

IngestSource VectorSource(const std::vector<std::string>& batches,
                          size_t* next) {
  return [&batches, next]() -> std::optional<std::string> {
    if (*next >= batches.size()) return std::nullopt;
    return batches[(*next)++];
  };
}

TEST(IngestPipeline, MatchesSerialChainPerBatch) {
  PipeFixture base = PipeFixture::Make(31);
  Rng rng(77);
  std::vector<std::string> batches;
  for (int i = 0; i < 6; ++i) {
    batches.push_back(RandomDeltaText(base.lg, rng, 10));
  }
  // An empty batch (comments only) mid-stream: commits as a no-op.
  batches.insert(batches.begin() + 3, "# nothing to see\n\n");

  PipeFixture serial = PipeFixture::Make(31);
  std::vector<BatchOutcome> serial_outcomes;
  for (const std::string& text : batches) {
    ASSERT_TRUE(serial.SerialStep(text).ok());
    serial_outcomes.push_back(serial.Outcome());
  }

  PipeFixture piped = PipeFixture::Make(31);
  std::vector<BatchOutcome> piped_outcomes;
  size_t next = 0;
  // max_coalesce = 1: this test pins PER-BATCH observer granularity, so
  // group commit (whose intermediate states are coarser) must be off.
  IngestOptions opts;
  opts.max_coalesce = 1;
  IngestStats stats = piped.matcher.IngestStream(
      piped.Session(), VectorSource(batches, &next), opts,
      [&](const IngestBatch& b) {
        piped_outcomes.push_back(
            BatchOutcome{SerializeGraph(piped.lg.graph), b.result->pairs});
        return Status::OK();
      });
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_EQ(stats.batches, batches.size());
  EXPECT_EQ(stats.empty_batches, 1u);
  ASSERT_EQ(piped_outcomes.size(), serial_outcomes.size());
  for (size_t i = 0; i < serial_outcomes.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    EXPECT_TRUE(piped_outcomes[i] == serial_outcomes[i]);
  }
  // Final sessions agree completely, binding tables included.
  EXPECT_TRUE(piped.Outcome() == serial.Outcome());
  EXPECT_EQ(piped.lg.entities, serial.lg.entities);
}

TEST(IngestPipeline, MidStreamErrorStopsWhereSerialStops) {
  PipeFixture base = PipeFixture::Make(32);
  Rng rng(78);
  std::vector<std::string> batches = {
      RandomDeltaText(base.lg, rng, 8),
      "+ ent:company:c1 broken\n",  // malformed: too few fields
      RandomDeltaText(base.lg, rng, 8),
  };

  PipeFixture serial = PipeFixture::Make(32);
  ASSERT_TRUE(serial.SerialStep(batches[0]).ok());
  Status serial_error = serial.SerialStep(batches[1]);
  ASSERT_FALSE(serial_error.ok());

  PipeFixture piped = PipeFixture::Make(32);
  size_t next = 0;
  IngestStats stats = piped.matcher.IngestStream(
      piped.Session(), VectorSource(batches, &next));
  EXPECT_EQ(stats.status.code(), serial_error.code());
  EXPECT_EQ(ErrorLineOf(stats.status), ErrorLineOf(serial_error));
  EXPECT_EQ(stats.batches, 1u);
  // The session stopped exactly where the serial chain stopped: after
  // batch 0, with batch 1 leaving no trace.
  EXPECT_TRUE(piped.Outcome() == serial.Outcome());
  EXPECT_EQ(piped.lg.entities, serial.lg.entities);
}

TEST(IngestPipeline, CancellationStopsCleanlyBetweenBatches) {
  PipeFixture base = PipeFixture::Make(33);
  Rng rng(79);
  std::vector<std::string> batches;
  for (int i = 0; i < 5; ++i) {
    batches.push_back(RandomDeltaText(base.lg, rng, 6));
  }

  PipeFixture serial = PipeFixture::Make(33);
  ASSERT_TRUE(serial.SerialStep(batches[0]).ok());

  // The flag flips on the engine thread as batch 0 commits, so the
  // engine must stop before binding batch 1 — deterministically.
  PipeFixture piped = PipeFixture::Make(33);
  std::atomic<bool> cancel{false};
  IngestOptions opts;
  opts.max_coalesce = 1;  // per-batch commits keep the stop point exact
  opts.cancelled = [&]() { return cancel.load(); };
  size_t next = 0;
  IngestStats stats = piped.matcher.IngestStream(
      piped.Session(), VectorSource(batches, &next), opts,
      [&](const IngestBatch&) {
        cancel.store(true);
        return Status::OK();
      });
  EXPECT_EQ(stats.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_TRUE(piped.Outcome() == serial.Outcome());
  EXPECT_EQ(piped.lg.entities, serial.lg.entities);
}

TEST(IngestPipeline, ObserverRejectionStopsTheStream) {
  PipeFixture base = PipeFixture::Make(34);
  Rng rng(80);
  std::vector<std::string> batches;
  for (int i = 0; i < 3; ++i) {
    batches.push_back(RandomDeltaText(base.lg, rng, 6));
  }
  PipeFixture piped = PipeFixture::Make(34);
  size_t next = 0;
  IngestOptions opts;
  opts.max_coalesce = 1;  // the batch count below assumes one per commit
  IngestStats stats = piped.matcher.IngestStream(
      piped.Session(), VectorSource(batches, &next), opts,
      [&](const IngestBatch& b) {
        return b.index == 1 ? Status::IoError("disk full") : Status::OK();
      });
  EXPECT_EQ(stats.status.code(), StatusCode::kIoError);
  // Batch 1 itself committed (the observer runs post-commit, like the
  // serial WAL append) but the stream went no further.
  EXPECT_EQ(stats.batches, 2u);
}

/// Deterministic group-commit harness: holds the ENGINE thread (which
/// runs on the caller's thread — construct the gate on it) at its first
/// cancellation poll until the tokenize thread has pushed every batch,
/// so the engine's first Pop+TryPop sweep sees the whole stream as one
/// backlog. `queue_depth` must be >= the batch count (the producer must
/// never block on a full queue, or both threads wait forever). The
/// cancel callback never cancels — it only gates.
struct BacklogGate {
  std::atomic<bool> all_pushed{false};
  std::thread::id engine_id = std::this_thread::get_id();

  IngestSource Source(const std::vector<std::string>& batches,
                      size_t* next) {
    return [this, &batches, next]() -> std::optional<std::string> {
      if (*next >= batches.size()) {
        // The last batch was already pushed before this call (the
        // producer pushes, then pulls again), so the backlog is whole.
        all_pushed.store(true);
        return std::nullopt;
      }
      return batches[(*next)++];
    };
  }

  std::function<bool()> Cancelled() {
    return [this]() {
      if (std::this_thread::get_id() == engine_id) {
        while (!all_pushed.load()) std::this_thread::yield();
      }
      return false;
    };
  }
};

TEST(IngestPipeline, GroupCommitCoalescesTheBacklog) {
  PipeFixture base = PipeFixture::Make(35);
  Rng rng(81);
  std::vector<std::string> batches;
  for (int i = 0; i < 5; ++i) {
    batches.push_back(RandomDeltaText(base.lg, rng, 8));
  }
  batches.insert(batches.begin() + 2, "# no-op batch\n");

  PipeFixture serial = PipeFixture::Make(35);
  for (const std::string& text : batches) {
    ASSERT_TRUE(serial.SerialStep(text).ok());
  }

  PipeFixture piped = PipeFixture::Make(35);
  BacklogGate gate;
  IngestOptions opts;
  opts.queue_depth = batches.size();
  opts.max_coalesce = batches.size();
  opts.cancelled = gate.Cancelled();
  size_t next = 0;
  std::vector<std::pair<size_t, bool>> seen;  // (index, contributed)
  IngestStats stats = piped.matcher.IngestStream(
      piped.Session(), gate.Source(batches, &next), opts,
      [&](const IngestBatch& b) {
        seen.emplace_back(b.index, b.contributed);
        return Status::OK();
      });
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();

  // The whole stream committed as ONE engine pass...
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.batches, batches.size());
  EXPECT_EQ(stats.empty_batches, 1u);
  // ...the observer still saw every batch, in order, with the no-op
  // batch (and only it) flagged as non-contributing...
  ASSERT_EQ(seen.size(), batches.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, i);
    EXPECT_EQ(seen[i].second, i != 2);
  }
  // ...and the final session is exactly the per-batch serial one.
  EXPECT_TRUE(piped.Outcome() == serial.Outcome());
  EXPECT_EQ(piped.lg.entities, serial.lg.entities);
}

TEST(IngestPipeline, GroupCommitFallsBackWhenBatchesInterdepend) {
  // Batch 1 removes the triple batch 0 added: one GraphDelta cannot
  // express that (removals must reference base-graph nodes), so the
  // group bind fails and the engine replays the group per batch — which
  // is exactly the serial chain.
  std::vector<std::string> batches = {
      "+ ent:person:fresh name val:\"temp\"\n",
      "- ent:person:fresh name val:\"temp\"\n",
  };

  PipeFixture serial = PipeFixture::Make(36);
  for (const std::string& text : batches) {
    ASSERT_TRUE(serial.SerialStep(text).ok()) << text;
  }

  PipeFixture piped = PipeFixture::Make(36);
  BacklogGate gate;
  IngestOptions opts;
  opts.queue_depth = batches.size();
  opts.max_coalesce = batches.size();
  opts.cancelled = gate.Cancelled();
  size_t next = 0;
  IngestStats stats = piped.matcher.IngestStream(
      piped.Session(), gate.Source(batches, &next), opts);
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.commits, 2u);  // the fallback committed per batch
  EXPECT_TRUE(piped.Outcome() == serial.Outcome());
  EXPECT_EQ(piped.lg.entities, serial.lg.entities);
}

/// Delta-line text ("<s> <p> <o>") of a base triple a matched pair
/// depends on: an entity→value edge out of the first matched entity.
std::string MatchedValueTriple(const PipeFixture& f) {
  std::unordered_map<NodeId, std::string> token_of;
  for (const auto& [token, id] : f.lg.entities) token_of[id] = token;
  const Graph& g = f.lg.graph;
  EXPECT_FALSE(f.result.pairs.empty());
  const NodeId s = f.result.pairs.front().first;
  for (const Edge& e : g.Out(s)) {
    if (!g.IsValue(e.dst)) continue;
    const std::string& lit = g.value_str(e.dst);
    if (lit.find_first_of("\"\\") != std::string::npos) continue;
    return token_of.at(s) + " " + g.interner().Resolve(e.pred) + " val:\"" +
           lit + "\"";
  }
  ADD_FAILURE() << "matched entity has no plain value edge";
  return "";
}

/// Runs `batches` through the pipeline as ONE backlog (see BacklogGate).
IngestStats IngestAsOneBacklog(PipeFixture& f,
                               const std::vector<std::string>& batches) {
  BacklogGate gate;
  IngestOptions opts;
  opts.queue_depth = batches.size();
  opts.max_coalesce = batches.size();
  opts.cancelled = gate.Cancelled();
  size_t next = 0;
  return f.matcher.IngestStream(f.Session(), gate.Source(batches, &next),
                                opts);
}

TEST(IngestPipeline, GroupCommitKeepsATripleReAddedAfterItsRemoval) {
  // Graph::Apply runs a delta's adds before its removals, so one delta
  // holding "- t" then "+ t" would erase t. The binder must split the
  // group at the re-add instead.
  PipeFixture serial = PipeFixture::Make(38);
  const std::string triple = MatchedValueTriple(serial);
  const std::vector<std::string> batches = {"- " + triple + "\n",
                                            "+ " + triple + "\n"};
  const size_t triples_before = serial.lg.graph.NumTriples();
  for (const std::string& text : batches) {
    ASSERT_TRUE(serial.SerialStep(text).ok()) << text;
  }
  ASSERT_EQ(serial.lg.graph.NumTriples(), triples_before);

  PipeFixture piped = PipeFixture::Make(38);
  IngestStats stats = IngestAsOneBacklog(piped, batches);
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.commits, 2u);  // split at the re-add
  EXPECT_EQ(piped.lg.graph.NumTriples(), triples_before);
  EXPECT_TRUE(piped.Outcome() == serial.Outcome());
  EXPECT_EQ(piped.lg.entities, serial.lg.entities);
}

TEST(IngestPipeline, GroupCommitFailsASecondRemovalWhereSerialFails) {
  // The serial chain commits the first removal and rejects the second;
  // the group must do the same, not fail both inside one Apply.
  Rng rng(84);
  PipeFixture serial = PipeFixture::Make(39);
  const std::string triple = MatchedValueTriple(serial);
  const std::vector<std::string> batches = {
      RandomDeltaText(serial.lg, rng, 6) + "- " + triple + "\n",
      "- " + triple + "\n",
      RandomDeltaText(serial.lg, rng, 6),
  };
  ASSERT_TRUE(serial.SerialStep(batches[0]).ok());
  const Status serial_error = serial.SerialStep(batches[1]);
  ASSERT_EQ(serial_error.code(), StatusCode::kNotFound);

  PipeFixture piped = PipeFixture::Make(39);
  IngestStats stats = IngestAsOneBacklog(piped, batches);
  EXPECT_EQ(stats.status.ToString(), serial_error.ToString());
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_TRUE(piped.Outcome() == serial.Outcome());
  EXPECT_EQ(piped.lg.entities, serial.lg.entities);
}

TEST(IngestPipeline, BatchThatBindsButFailsApplyLeavesTheSession) {
  // The failing batch adds a fresh entity and removes a triple that is
  // not there: it binds, then Graph::Apply rejects it. Apply is all or
  // nothing, so the session stays exactly at the batches before it.
  PipeFixture base = PipeFixture::Make(40);
  Rng rng(85);
  std::vector<std::string> batches = {
      RandomDeltaText(base.lg, rng, 8),
      RandomDeltaText(base.lg, rng, 8),
  };
  const std::string& ent =
      std::min_element(base.lg.entities.begin(), base.lg.entities.end())
          ->first;
  const std::string missing = ent + " never_linked " + ent;
  batches.push_back("+ ent:person:fresh name val:\"x\"\n- " + missing + "\n");

  PipeFixture serial = PipeFixture::Make(40);
  ASSERT_TRUE(serial.SerialStep(batches[0]).ok());
  ASSERT_TRUE(serial.SerialStep(batches[1]).ok());

  PipeFixture piped = PipeFixture::Make(40);
  IngestStats stats = IngestAsOneBacklog(piped, batches);
  EXPECT_EQ(stats.status.code(), StatusCode::kNotFound)
      << stats.status.ToString();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_TRUE(piped.lg.graph.finalized());
  EXPECT_EQ(piped.lg.graph.NumNodes(), serial.lg.graph.NumNodes());
  EXPECT_TRUE(piped.Outcome() == serial.Outcome());
  EXPECT_EQ(piped.lg.entities, serial.lg.entities);
}

TEST(FastDelta, DeltaBinderGroupEqualsConcatenatedText) {
  PipeFixture base = PipeFixture::Make(37);
  Rng rng(83);
  std::vector<std::string> batches;
  std::string concat;
  for (int i = 0; i < 4; ++i) {
    batches.push_back(RandomDeltaText(base.lg, rng, 10));
    concat += batches.back();
  }

  DeltaBinder binder(base.lg.graph, base.lg.entities);
  for (const std::string& text : batches) {
    ASSERT_TRUE(binder.Append(TokenizeDeltaText(text)).ok());
  }
  std::unordered_map<std::string, NodeId> group_nb;
  GraphDelta group_delta = binder.Take(&group_nb);

  std::unordered_map<std::string, NodeId> concat_nb;
  auto concat_delta =
      FastParseDelta(concat, base.lg.graph, base.lg.entities, &concat_nb);
  ASSERT_TRUE(concat_delta.ok());

  EXPECT_EQ(group_nb, concat_nb);
  // Same effect on the graph, NodeIds included.
  Graph a = base.lg.graph;
  Graph b = base.lg.graph;
  ASSERT_TRUE(a.Apply(group_delta).ok());
  ASSERT_TRUE(b.Apply(*concat_delta).ok());
  EXPECT_EQ(SerializeGraph(a), SerializeGraph(b));
}

}  // namespace
}  // namespace gkeys
