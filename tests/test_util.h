#ifndef GKEYS_TESTS_TEST_UTIL_H_
#define GKEYS_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/matcher.h"
#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "keys/key.h"
#include "pattern/parser.h"
#include "storage/store.h"

namespace gkeys {
namespace testing {

/// Parses exactly one key; error if the input holds zero or several.
inline StatusOr<NamedPattern> ParseKey(std::string_view text) {
  auto keys = ParseKeys(text);
  if (!keys.ok()) return keys.status();
  if (keys->size() != 1) {
    return Status::ParseError("expected exactly one key, found " +
                              std::to_string(keys->size()));
  }
  return std::move((*keys)[0]);
}

/// Number of triples of `g` induced by `nodes` (|Gd| in the paper's cost
/// analysis).
inline size_t InducedTripleCount(const Graph& g, const NodeSet& nodes) {
  size_t count = 0;
  for (NodeId n : nodes) {
    if (!g.IsEntity(n)) continue;
    for (const Edge& e : g.Out(n)) {
      if (nodes.Contains(e.dst)) ++count;
    }
  }
  return count;
}

/// The paper's Fig. 2 graph G1 (music fragment). Node handles exposed for
/// assertions.
struct MusicGraph {
  Graph g;
  NodeId alb1, alb2, alb3;
  NodeId art1, art2, art3;
};

inline MusicGraph MakeG1() {
  MusicGraph m;
  Graph& g = m.g;
  m.art1 = g.AddEntity("artist");
  m.art2 = g.AddEntity("artist");
  m.art3 = g.AddEntity("artist");
  m.alb1 = g.AddEntity("album");
  m.alb2 = g.AddEntity("album");
  m.alb3 = g.AddEntity("album");
  NodeId beatles = g.AddValue("The Beatles");
  NodeId farnham = g.AddValue("John Farnham");
  NodeId anthology = g.AddValue("Anthology 2");
  NodeId y1996 = g.AddValue("1996");
  NodeId y1997 = g.AddValue("1997");
  g.AddTriple(m.art1, "name_of", beatles).IgnoreError();
  g.AddTriple(m.art2, "name_of", beatles).IgnoreError();
  g.AddTriple(m.art3, "name_of", farnham).IgnoreError();
  g.AddTriple(m.alb1, "name_of", anthology).IgnoreError();
  g.AddTriple(m.alb2, "name_of", anthology).IgnoreError();
  g.AddTriple(m.alb3, "name_of", anthology).IgnoreError();
  g.AddTriple(m.alb1, "release_year", y1996).IgnoreError();
  g.AddTriple(m.alb2, "release_year", y1996).IgnoreError();
  g.AddTriple(m.alb3, "release_year", y1997).IgnoreError();
  g.AddTriple(m.alb1, "recorded_by", m.art1).IgnoreError();
  g.AddTriple(m.alb2, "recorded_by", m.art2).IgnoreError();
  g.AddTriple(m.alb3, "recorded_by", m.art3).IgnoreError();
  g.Finalize();
  return m;
}

/// Σ1 = {Q1, Q2, Q3} from Fig. 1: the mutually recursive music keys.
inline KeySet MakeSigma1() {
  KeySet keys;
  Status st = keys.AddFromDsl(R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    }
    key Q2 for album {
      x -[name_of]-> n*
      x -[release_year]-> yr*
    }
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
  )");
  (void)st;
  return keys;
}

/// The paper's Fig. 2 graph G2 (company fragment): com0 ("AT&T") is the
/// parent of com1, com2 ("AT&T") and com3 ("SBC"); com4 has parents
/// com1 + com3; com5 has parents com2 + com3; com4/com5 named "AT&T".
struct CompanyGraph {
  Graph g;
  NodeId com0, com1, com2, com3, com4, com5;
};

inline CompanyGraph MakeG2() {
  CompanyGraph c;
  Graph& g = c.g;
  c.com0 = g.AddEntity("company");
  c.com1 = g.AddEntity("company");
  c.com2 = g.AddEntity("company");
  c.com3 = g.AddEntity("company");
  c.com4 = g.AddEntity("company");
  c.com5 = g.AddEntity("company");
  NodeId att = g.AddValue("AT&T");
  NodeId sbc = g.AddValue("SBC");
  g.AddTriple(c.com0, "name_of", att).IgnoreError();
  g.AddTriple(c.com1, "name_of", att).IgnoreError();
  g.AddTriple(c.com2, "name_of", att).IgnoreError();
  g.AddTriple(c.com3, "name_of", sbc).IgnoreError();
  g.AddTriple(c.com4, "name_of", att).IgnoreError();
  g.AddTriple(c.com5, "name_of", att).IgnoreError();
  g.AddTriple(c.com0, "parent_of", c.com1).IgnoreError();
  g.AddTriple(c.com0, "parent_of", c.com2).IgnoreError();
  g.AddTriple(c.com0, "parent_of", c.com3).IgnoreError();
  g.AddTriple(c.com1, "parent_of", c.com4).IgnoreError();
  g.AddTriple(c.com2, "parent_of", c.com5).IgnoreError();
  g.AddTriple(c.com3, "parent_of", c.com4).IgnoreError();
  g.AddTriple(c.com3, "parent_of", c.com5).IgnoreError();
  g.Finalize();
  return c;
}

/// Σ2 = {Q4, Q5}: merge/split company keys (Fig. 1).
inline KeySet MakeSigma2() {
  KeySet keys;
  Status st = keys.AddFromDsl(R"(
    key Q4 for company {
      x -[name_of]-> n*
      _p:company -[name_of]-> n*
      _p -[parent_of]-> x
      y:company -[parent_of]-> x
    }
    key Q5 for company {
      x -[name_of]-> n*
      _p:company -[name_of]-> n*
      _p -[parent_of]-> x
      _p -[parent_of]-> y:company
    }
  )");
  (void)st;
  return keys;
}

/// Isolated value nodes PadWithIsolatedValues puts ahead of each node in
/// the sparse test layouts: the classes then sit in a node-id space
/// kSparsePad + 1 times larger than the graph's own.
inline constexpr size_t kSparsePad = 20;

/// Where PadWithIsolatedValues(src, pad) puts node n of `src`.
inline NodeId PaddedId(NodeId n, size_t pad = kSparsePad) {
  return static_cast<NodeId>((n + 1) * (pad + 1) - 1);
}

/// `src` rebuilt with `pad` fresh isolated value nodes ahead of each of
/// its nodes, every triple kept (node n becomes PaddedId(n, pad)).
/// Matching answers the same, but a step that walks every node now
/// walks mostly singletons.
inline Graph PadWithIsolatedValues(const Graph& src, size_t pad = kSparsePad) {
  Graph g;
  size_t next_pad = 0;
  for (NodeId n = 0; n < src.NumNodes(); ++n) {
    for (size_t k = 0; k < pad; ++k) {
      g.AddValue("isolated pad " + std::to_string(next_pad++));
    }
    if (src.IsEntity(n)) {
      g.AddEntity(src.interner().Resolve(src.entity_type(n)));
    } else {
      g.AddValue(src.value_str(n));
    }
  }
  src.ForEachTriple([&](const Triple& t) {
    g.AddTriple(PaddedId(t.subject, pad), src.interner().Resolve(t.pred),
                PaddedId(t.object, pad))
        .IgnoreError();
  });
  g.Finalize();
  return g;
}

/// `src` rebuilt node for node (same NodeIds) with only the triples of
/// `triples` that `keep[i]` flags, so a test can stage the rest as
/// additions.
inline Graph RebuildWithout(const Graph& src,
                            const std::vector<Triple>& triples,
                            const std::vector<uint8_t>& keep) {
  Graph g;
  for (NodeId n = 0; n < src.NumNodes(); ++n) {
    NodeId id = src.IsEntity(n)
                    ? g.AddEntity(src.interner().Resolve(src.entity_type(n)))
                    : g.AddValue(src.value_str(n));
    EXPECT_EQ(id, n);
  }
  for (size_t i = 0; i < triples.size(); ++i) {
    if (!keep[i]) continue;
    const Triple& t = triples[i];
    EXPECT_TRUE(
        g.AddTriple(t.subject, src.interner().Resolve(t.pred), t.object)
            .ok());
  }
  g.Finalize();
  return g;
}

/// A scratch path `name` in ::testing::TempDir()/gkeys_<pid>/: the pid
/// keeps two runs of one suite at once out of each other's files. The
/// directory is made on first use and removed, with all in it, at exit.
inline std::string TempPath(std::string_view name) {
  static const struct ScratchDir {
    std::filesystem::path path = std::filesystem::path(::testing::TempDir()) /
                                 ("gkeys_" + std::to_string(::getpid()));
    ScratchDir() { std::filesystem::create_directories(path); }
    ~ScratchDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return (dir.path / name).string();
}

/// Normalizes a pair list for comparison.
inline std::vector<std::pair<NodeId, NodeId>> Pairs(
    std::initializer_list<std::pair<NodeId, NodeId>> pairs) {
  std::vector<std::pair<NodeId, NodeId>> v;
  for (auto [a, b] : pairs) {
    if (a > b) std::swap(a, b);
    v.emplace_back(a, b);
  }
  std::sort(v.begin(), v.end());
  return v;
}

/// The candidate list L of `plan` as (e1, e2) pairs, in order.
inline std::vector<std::pair<NodeId, NodeId>> CandidatePairs(
    const MatchPlan& plan) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Candidate& c : plan.context().candidates()) {
    pairs.emplace_back(c.e1, c.e2);
  }
  return pairs;
}

/// Matcher::Compile with `popts`, then `matcher`'s Run. A Status error
/// fails the calling test and yields an empty result.
inline MatchResult CompileAndRun(const Graph& g, const KeySet& keys,
                                 const Matcher& matcher,
                                 const PlanOptions& popts) {
  const std::string name = AlgorithmName(matcher.algorithm());
  auto plan = Matcher::Compile(g, keys, popts);
  if (!plan.ok()) {
    ADD_FAILURE() << name << ": " << plan.status().ToString();
    return {};
  }
  auto r = matcher.Run(*plan);
  if (!r.ok()) {
    ADD_FAILURE() << name << ": " << r.status().ToString();
    return {};
  }
  return *std::move(r);
}

/// Same, running the algorithm's run preset at popts.processors workers.
inline MatchResult CompileAndRun(const Graph& g, const KeySet& keys,
                                 Algorithm a, const PlanOptions& popts) {
  return CompileAndRun(g, keys, Matcher(a).processors(popts.processors),
                       popts);
}

/// Same, compiling with the algorithm's plan preset.
inline MatchResult CompileAndRun(const Graph& g, const KeySet& keys,
                                 Algorithm a, int processors) {
  return CompileAndRun(g, keys, a, PlanOptions::For(a, processors));
}

/// Compiles the algorithm's plan preset at opts.processors, then runs
/// algorithm family `a` with exactly `opts` — how the engine tests vary
/// one run knob at a time.
inline MatchResult CompileAndRun(const Graph& g, const KeySet& keys,
                                 Algorithm a, const EmOptions& opts) {
  return CompileAndRun(g, keys, Matcher(a).options(opts),
                       PlanOptions::For(a, opts.processors));
}

/// Ordered in-memory Store: codecs write their records here so a test
/// can digest them in key order, or hand-build records to decode,
/// without touching the filesystem.
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

}  // namespace testing
}  // namespace gkeys

#endif  // GKEYS_TESTS_TEST_UTIL_H_
