// Deterministic differential fuzzing of the triple/delta parsers
// (io/fast_triples.h) against the reference parsers
// (tests/triples_reference.h). Seeds are valid corpora; each iteration
// flips/inserts/deletes a few bytes and asserts the two agree: identical
// results on accepted inputs (serialization, entity tables, staged ops),
// and on rejected inputs the same StatusCode and the same 1-based failing
// line. Seeded Rng => every run fuzzes the same inputs; a failure is a
// plain regression, not a flake.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "gen/datasets.h"
#include "graph/delta.h"
#include "io/fast_triples.h"
#include "io/triples.h"
#include "triples_reference.h"

namespace gkeys {
namespace {

/// 1-based line number named by a parse error, or -1 when the message
/// names none.
int ErrorLine(const Status& s) {
  const std::string& m = s.message();
  size_t pos = m.find("line ");
  if (pos == std::string::npos) return -1;
  return std::atoi(m.c_str() + pos + 5);
}

std::string Mutate(const std::string& seed, Rng& rng) {
  // Interesting bytes first: structural characters of the formats, which
  // turn valid lines into near-miss invalid ones (and vice versa).
  static constexpr char kInteresting[] = {'\n', ' ',  '"', '\\', '+', '-',
                                          ':',  '#',  'e', 'v',  '@', '\t',
                                          '\r', '\0', '_'};
  std::string m = seed;
  int edits = 1 + static_cast<int>(rng.Below(3));
  for (int i = 0; i < edits && !m.empty(); ++i) {
    size_t pos = rng.Below(m.size());
    char b = rng.Chance(0.7)
                 ? kInteresting[rng.Below(sizeof kInteresting)]
                 : static_cast<char>(rng.Below(256));
    switch (rng.Below(3)) {
      case 0: m[pos] = b; break;                    // flip
      case 1: m.insert(m.begin() + pos, b); break;  // insert
      default: m.erase(m.begin() + pos); break;     // delete
    }
  }
  return m;
}

std::vector<std::tuple<NodeId, std::string, NodeId>> Ops(
    const std::vector<GraphDelta::DeltaTriple>& ts) {
  std::vector<std::tuple<NodeId, std::string, NodeId>> out;
  for (const auto& t : ts) out.emplace_back(t.subject, t.pred, t.object);
  return out;
}

/// Both paths rejected: codes and failing line must agree (message
/// wording may differ — see fast_triples.h's error-equivalence contract).
void ExpectSameRejection(const Status& scalar, const Status& fast,
                         const std::string& input) {
  EXPECT_EQ(scalar.code(), fast.code())
      << "scalar: " << scalar.ToString() << "\nfast: " << fast.ToString()
      << "\ninput:\n" << input;
  EXPECT_EQ(ErrorLine(scalar), ErrorLine(fast))
      << "scalar: " << scalar.ToString() << "\nfast: " << fast.ToString()
      << "\ninput:\n" << input;
}

TEST(ParserFuzz, GraphTextDifferential) {
  std::vector<std::string> corpus = {
      "ent:person:p0 name val:\"alice\"\n"
      "ent:person:p1 name val:\"bob\"\n"
      "ent:person:p0 knows ent:person:p1\n"
      "ent:org:o0 label val:\"acme \\\"inc\\\" \\\\ co\"\n"
      "ent:person:p9 @exists ent:person:p9\n",
  };
  {
    GoogleSimConfig cfg;
    cfg.scale = 0.15;
    corpus.push_back(SerializeGraph(GenerateGoogleSim(cfg).graph));
  }

  Rng rng(20260808);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const std::string& seed = corpus[rng.Below(corpus.size())];
    std::string input = Mutate(seed, rng);

    StatusOr<LoadedGraph> scalar = reference::DeserializeGraphWithNames(input);
    StatusOr<LoadedGraph> fast = FastDeserializeGraphWithNames(input);
    ASSERT_EQ(scalar.ok(), fast.ok())
        << "iter=" << iter
        << (scalar.ok() ? "\nfast: " + fast.status().ToString()
                        : "\nscalar: " + scalar.status().ToString())
        << "\ninput:\n" << input;
    if (scalar.ok()) {
      // Accepted: byte-identical graphs and entity tables.
      EXPECT_EQ(SerializeGraph(scalar->graph), SerializeGraph(fast->graph))
          << "iter=" << iter;
      EXPECT_EQ(scalar->entities, fast->entities) << "iter=" << iter;
    } else {
      ExpectSameRejection(scalar.status(), fast.status(), input);
    }
    scalar.ok() ? ++accepted : ++rejected;
  }
  // The mutator must exercise both sides of the contract.
  EXPECT_GT(accepted, 10);
  EXPECT_GT(rejected, 10);
}

TEST(ParserFuzz, DeltaTextDifferential) {
  auto base = FastDeserializeGraphWithNames(
      "ent:person:p0 name val:\"alice\"\n"
      "ent:person:p1 name val:\"bob\"\n"
      "ent:person:p0 knows ent:person:p1\n"
      "ent:org:o0 label val:\"acme\"\n");
  ASSERT_TRUE(base.ok());

  std::vector<std::string> corpus = {
      "+ ent:person:p2 name val:\"carol\"\n"
      "- ent:person:p0 knows ent:person:p1\n"
      "# comment line\n"
      "\n"
      "+ ent:person:p2 knows ent:person:p0\n",
      "- ent:person:p1 name val:\"bob\"\n",
      "+ ent:org:o1 label val:\"esc \\\\ and \\\" quote\"\n"
      "+ ent:org:o1 part_of ent:org:o0\n",
  };

  Rng rng(873251);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const std::string& seed = corpus[rng.Below(corpus.size())];
    std::string input = Mutate(seed, rng);

    std::unordered_map<std::string, NodeId> scalar_new, fast_new;
    StatusOr<GraphDelta> scalar = reference::ParseDelta(
        input, base->graph, base->entities, &scalar_new);
    StatusOr<GraphDelta> fast =
        FastParseDelta(input, base->graph, base->entities, &fast_new);
    ASSERT_EQ(scalar.ok(), fast.ok())
        << "iter=" << iter
        << (scalar.ok() ? "\nfast: " + fast.status().ToString()
                        : "\nscalar: " + scalar.status().ToString())
        << "\ninput:\n" << input;
    if (scalar.ok()) {
      // Accepted: identical staged ops, staged nodes, and new-token
      // bindings (the WAL replay path depends on the latter).
      EXPECT_EQ(Ops(scalar->added()), Ops(fast->added())) << "iter=" << iter;
      EXPECT_EQ(Ops(scalar->removed()), Ops(fast->removed()))
          << "iter=" << iter;
      ASSERT_EQ(scalar->new_nodes().size(), fast->new_nodes().size())
          << "iter=" << iter;
      for (size_t i = 0; i < scalar->new_nodes().size(); ++i) {
        EXPECT_EQ(scalar->new_nodes()[i].kind, fast->new_nodes()[i].kind);
        EXPECT_EQ(scalar->new_nodes()[i].label, fast->new_nodes()[i].label);
      }
      EXPECT_EQ(scalar_new, fast_new) << "iter=" << iter;
    } else {
      ExpectSameRejection(scalar.status(), fast.status(), input);
    }
    scalar.ok() ? ++accepted : ++rejected;
  }
  EXPECT_GT(accepted, 10);
  EXPECT_GT(rejected, 10);
}

}  // namespace
}  // namespace gkeys
