#include "discovery/key_discovery.h"

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

/// A small library domain: isbn is a single-attribute key; (title, year)
/// is a composite key (titles repeat, years repeat, combos do not);
/// shelf is NOT a key (shared).
Graph LibraryGraph() {
  Graph g;
  struct Row {
    const char* isbn;
    const char* title;
    const char* year;
    const char* shelf;
  };
  const Row rows[] = {
      {"i1", "Dune", "1965", "A"},
      {"i2", "Dune", "1984", "A"},   // same title, other year
      {"i3", "Emma", "1965", "B"},   // same year, other title
      {"i4", "Emma", "1815", "B"},
  };
  for (const Row& r : rows) {
    NodeId b = g.AddEntity("book");
    g.AddTriple(b, "isbn", g.AddValue(r.isbn)).IgnoreError();
    g.AddTriple(b, "title", g.AddValue(r.title)).IgnoreError();
    g.AddTriple(b, "year", g.AddValue(r.year)).IgnoreError();
    g.AddTriple(b, "shelf", g.AddValue(r.shelf)).IgnoreError();
  }
  g.Finalize();
  return g;
}

bool HasKeyNamed(const std::vector<DiscoveredKey>& keys,
                 const std::string& name) {
  for (const auto& dk : keys) {
    if (dk.key.name() == name) return true;
  }
  return false;
}

TEST(Discovery, FindsSingleAttributeKey) {
  Graph g = LibraryGraph();
  auto keys = DiscoverKeys(g, "book");
  EXPECT_TRUE(HasKeyNamed(keys, "disc_book_isbn"));
  // shelf is shared: never a key on its own.
  EXPECT_FALSE(HasKeyNamed(keys, "disc_book_shelf"));
}

TEST(Discovery, FindsCompositeKeyAndPrunesSupersets) {
  Graph g = LibraryGraph();
  auto keys = DiscoverKeys(g, "book");
  EXPECT_TRUE(HasKeyNamed(keys, "disc_book_title_year") ||
              HasKeyNamed(keys, "disc_book_year_title"));
  // Supersets of the holding {isbn} must be pruned (minimality).
  for (const auto& dk : keys) {
    if (dk.arity >= 2) {
      EXPECT_EQ(dk.key.name().find("isbn"), std::string::npos)
          << dk.key.name();
    }
  }
}

TEST(Discovery, DiscoveredKeysHoldOnTheGraph) {
  Graph g = LibraryGraph();
  for (const auto& dk : DiscoverKeys(g, "book")) {
    EXPECT_TRUE(Satisfies(g, dk.key)) << dk.key.name();
    EXPECT_GE(dk.coverage, 0.6);
  }
}

TEST(Discovery, RecursiveCandidates) {
  // Two employees share a name but work at different firms: (name, firm)
  // is a recursive key candidate; name alone is not a key.
  Graph g;
  NodeId f1 = g.AddEntity("firm");
  NodeId f2 = g.AddEntity("firm");
  NodeId e1 = g.AddEntity("employee");
  NodeId e2 = g.AddEntity("employee");
  NodeId n = g.AddValue("Ann");
  g.AddTriple(e1, "name", n).IgnoreError();
  g.AddTriple(e2, "name", n).IgnoreError();
  g.AddTriple(e1, "works_at", f1).IgnoreError();
  g.AddTriple(e2, "works_at", f2).IgnoreError();
  g.Finalize();
  auto keys = DiscoverKeys(g, "employee");
  EXPECT_FALSE(HasKeyNamed(keys, "disc_employee_name"));
  ASSERT_TRUE(HasKeyNamed(keys, "disc_employee_name_works_at"));
  for (const auto& dk : keys) {
    if (dk.key.name() == "disc_employee_name_works_at") {
      EXPECT_TRUE(dk.key.recursive());
      EXPECT_EQ(dk.key.dependency_types(),
                std::vector<std::string>{"firm"});
    }
  }
}

TEST(Discovery, RecursiveCanBeDisabled) {
  Graph g;
  NodeId f1 = g.AddEntity("firm");
  NodeId e1 = g.AddEntity("employee");
  NodeId e2 = g.AddEntity("employee");
  g.AddTriple(e1, "name", g.AddValue("Ann")).IgnoreError();
  g.AddTriple(e2, "name", g.AddValue("Ann")).IgnoreError();
  g.AddTriple(e1, "works_at", f1).IgnoreError();
  g.AddTriple(e2, "works_at", f1).IgnoreError();
  g.Finalize();
  DiscoveryConfig cfg;
  cfg.include_recursive = false;
  for (const auto& dk : DiscoverKeys(g, "employee", cfg)) {
    EXPECT_FALSE(dk.key.recursive());
  }
}

TEST(Discovery, CoverageThresholdFilters) {
  Graph g;
  // Only 1 of 4 entities carries `rare`.
  for (int i = 0; i < 4; ++i) {
    NodeId e = g.AddEntity("t");
    g.AddTriple(e, "common", g.AddValue("c" + std::to_string(i))).IgnoreError();
    if (i == 0) g.AddTriple(e, "rare", g.AddValue("r")).IgnoreError();
  }
  g.Finalize();
  DiscoveryConfig cfg;
  cfg.min_coverage = 0.9;
  auto keys = DiscoverKeys(g, "t", cfg);
  EXPECT_TRUE(HasKeyNamed(keys, "disc_t_common"));
  EXPECT_FALSE(HasKeyNamed(keys, "disc_t_rare"));
}

TEST(Discovery, UnknownTypeYieldsNothing) {
  Graph g = LibraryGraph();
  EXPECT_TRUE(DiscoverKeys(g, "martian").empty());
}

TEST(Discovery, SingleEntityTypeYieldsNothing) {
  Graph g;
  NodeId e = g.AddEntity("lone");
  g.AddTriple(e, "p", g.AddValue("v")).IgnoreError();
  g.Finalize();
  EXPECT_TRUE(DiscoverKeys(g, "lone").empty());
}

TEST(Discovery, KeysOfEveryTypeHold) {
  DBpediaSimConfig cfg;
  cfg.scale = 0.3;
  SyntheticDataset ds = GenerateDBpediaSim(cfg);
  // Discovery runs on the FUSED (deduplicated) graph — on the raw graph
  // planted duplicates would suppress the very keys that identify them.
  // Every type is mined, as `gkeys discover` does.
  for (Symbol t : ds.graph.EntityTypes()) {
    const std::string& type = ds.graph.interner().Resolve(t);
    for (const DiscoveredKey& dk : DiscoverKeys(ds.graph, type)) {
      EXPECT_TRUE(Satisfies(ds.graph, dk.key)) << dk.key.name();
    }
  }
}

TEST(Discovery, MinedKeysDetectFreshDuplicates) {
  // Mine keys from a clean graph, then inject a duplicate; the mined key
  // must catch it — the discovery -> enforcement loop.
  Graph g = LibraryGraph();
  auto mined = DiscoverKeys(g, "book");
  ASSERT_FALSE(mined.empty());
  KeySet keys;
  for (auto& dk : mined) keys.Add(std::move(dk.key));

  Graph dirty = g;
  NodeId dup = dirty.AddEntity("book");
  dirty.AddTriple(dup, "isbn", dirty.AddValue("i1")).IgnoreError();  // reuse i1!
  dirty.AddTriple(dup, "title", dirty.AddValue("Dune")).IgnoreError();
  dirty.AddTriple(dup, "year", dirty.AddValue("1965")).IgnoreError();
  dirty.Finalize();
  MatchResult r = Chase(dirty, keys);
  ASSERT_EQ(r.pairs.size(), 1u);
  EXPECT_EQ(r.pairs[0].second, dup);
}

}  // namespace
}  // namespace gkeys
