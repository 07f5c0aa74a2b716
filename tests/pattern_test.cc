#include "pattern/pattern.h"

#include <gtest/gtest.h>

#include "pattern/parser.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::ParseKey;

Pattern MusicKeyQ1() {
  // Q1: album by name + recording artist (recursive).
  Pattern p;
  int x = p.AddDesignated("album");
  int n = p.AddValueVar("n");
  int y = p.AddEntityVar("y", "artist");
  EXPECT_TRUE(p.AddTriple(x, "name_of", n).ok());
  EXPECT_TRUE(p.AddTriple(x, "recorded_by", y).ok());
  return p;
}

TEST(Pattern, BuilderAndValidate) {
  Pattern p = MusicKeyQ1();
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.designated_type(), "album");
  EXPECT_TRUE(p.IsRecursive());
  EXPECT_EQ(p.Radius(), 1);
}

TEST(Pattern, ValueBasedIsNotRecursive) {
  Pattern p;
  int x = p.AddDesignated("album");
  int n = p.AddValueVar("n");
  ASSERT_TRUE(p.AddTriple(x, "name_of", n).ok());
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_FALSE(p.IsRecursive());
}

TEST(Pattern, WildcardDoesNotMakeRecursive) {
  Pattern p;
  int x = p.AddDesignated("company");
  int w = p.AddWildcard("w", "company");
  ASSERT_TRUE(p.AddTriple(w, "parent_of", x).ok());
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_FALSE(p.IsRecursive());
}

TEST(Pattern, ValidateRejectsNoDesignated) {
  Pattern p;
  int a = p.AddEntityVar("a", "t");
  int v = p.AddValueVar("v");
  ASSERT_TRUE(p.AddTriple(a, "p", v).ok());
  EXPECT_FALSE(p.Validate().ok());
}

TEST(Pattern, ValidateRejectsNoTriples) {
  Pattern p;
  p.AddDesignated("t");
  EXPECT_FALSE(p.Validate().ok());
}

TEST(Pattern, ValidateRejectsDisconnected) {
  Pattern p;
  int x = p.AddDesignated("t");
  int v = p.AddValueVar("v");
  int a = p.AddEntityVar("a", "t");
  int w = p.AddValueVar("w");
  ASSERT_TRUE(p.AddTriple(x, "p", v).ok());
  ASSERT_TRUE(p.AddTriple(a, "p", w).ok());  // island
  EXPECT_FALSE(p.Validate().ok());
}

TEST(Pattern, ValidateRejectsDuplicateNames) {
  Pattern p;
  int x = p.AddDesignated("t");
  int a = p.AddEntityVar("dup", "t");
  int b = p.AddEntityVar("dup", "t");
  ASSERT_TRUE(p.AddTriple(x, "p", a).ok());
  ASSERT_TRUE(p.AddTriple(x, "p", b).ok());
  EXPECT_FALSE(p.Validate().ok());
}

TEST(Pattern, AddTripleRejectsValueSubject) {
  Pattern p;
  int x = p.AddDesignated("t");
  int v = p.AddValueVar("v");
  EXPECT_FALSE(p.AddTriple(v, "p", x).ok());
}

TEST(Pattern, ConstantsWithEqualTextShareNode) {
  Pattern p;
  int a = p.AddConstant("UK");
  int b = p.AddConstant("UK");
  int c = p.AddConstant("US");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Pattern, RadiusOfDeepPath) {
  Pattern p;
  int x = p.AddDesignated("t");
  int w1 = p.AddWildcard("w1", "a");
  int w2 = p.AddWildcard("w2", "a");
  int v = p.AddValueVar("v");
  ASSERT_TRUE(p.AddTriple(x, "p", w1).ok());
  ASSERT_TRUE(p.AddTriple(w1, "p", w2).ok());
  ASSERT_TRUE(p.AddTriple(w2, "p", v).ok());
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.Radius(), 3);
}

TEST(Pattern, RadiusIgnoresEdgeDirection) {
  Pattern p;
  int x = p.AddDesignated("artist");
  int y = p.AddEntityVar("y", "album");
  int v = p.AddValueVar("v");
  ASSERT_TRUE(p.AddTriple(y, "recorded_by", x).ok());  // edge INTO x
  ASSERT_TRUE(p.AddTriple(y, "name_of", v).ok());
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.Radius(), 2);
}

// ---- Compile ----

TEST(Compile, ResolvesSymbolsAndPlan) {
  Graph g;
  NodeId alb = g.AddEntity("album");
  NodeId art = g.AddEntity("artist");
  g.AddTriple(alb, "name_of", g.AddValue("A")).IgnoreError();
  g.AddTriple(alb, "recorded_by", art).IgnoreError();
  g.Finalize();

  Pattern p = MusicKeyQ1();
  ASSERT_TRUE(p.Validate().ok());
  CompiledPattern cp = Compile(p, g);
  EXPECT_TRUE(cp.matchable);
  // Plan covers every node except x, each reachable from earlier ones.
  EXPECT_EQ(cp.plan.size(), p.nodes().size() - 1);
  std::vector<bool> placed(p.nodes().size(), false);
  placed[cp.designated] = true;
  for (const SearchStep& s : cp.plan) {
    const CompiledTriple& t = cp.triples[s.via_triple];
    int anchor = s.forward ? t.subject : t.object;
    EXPECT_TRUE(placed[anchor]) << "anchor must be already placed";
    placed[s.node] = true;
  }
  for (bool b : placed) EXPECT_TRUE(b);
}

TEST(Compile, UnmatchableWhenPredicateMissing) {
  Graph g;
  g.AddEntity("album");
  g.AddEntity("artist");
  g.Finalize();
  Pattern p = MusicKeyQ1();
  CompiledPattern cp = Compile(p, g);
  EXPECT_FALSE(cp.matchable);  // name_of never occurs in g
}

TEST(Compile, UnmatchableWhenConstantMissing) {
  Graph g;
  NodeId s = g.AddEntity("street");
  g.AddTriple(s, "nation_of", g.AddValue("US")).IgnoreError();
  g.Finalize();
  Pattern p;
  int x = p.AddDesignated("street");
  int c = p.AddConstant("UK");
  ASSERT_TRUE(p.AddTriple(x, "nation_of", c).ok());
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_FALSE(Compile(p, g).matchable);
}

// ---- Parser ----

TEST(Parser, ParsesPaperKeys) {
  auto keys = ParseKeys(R"(
    # music keys
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    }
    key Q6 for street {
      x -[zip_code]-> code*
      x -[nation_of]-> "UK"
    }
  )");
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  ASSERT_EQ(keys->size(), 2u);
  EXPECT_EQ((*keys)[0].name, "Q1");
  EXPECT_EQ((*keys)[0].pattern.designated_type(), "album");
  EXPECT_TRUE((*keys)[0].pattern.IsRecursive());
  EXPECT_EQ((*keys)[1].name, "Q6");
  EXPECT_FALSE((*keys)[1].pattern.IsRecursive());
  // The "UK" constant parsed as a constant node.
  bool has_constant = false;
  for (const auto& n : (*keys)[1].pattern.nodes()) {
    if (n.kind == VarKind::kConstant) {
      has_constant = true;
      EXPECT_EQ(n.name, "UK");
    }
  }
  EXPECT_TRUE(has_constant);
}

TEST(Parser, WildcardForms) {
  auto key = ParseKey(R"(
    key K for company {
      _p:company -[parent_of]-> x
      _p -[name_of]-> n*
      _:person -[runs]-> x
    }
  )");
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  int wildcards = 0;
  for (const auto& n : key->pattern.nodes()) {
    if (n.kind == VarKind::kWildcard) ++wildcards;
  }
  EXPECT_EQ(wildcards, 2);
}

TEST(Parser, EntityVarSubject) {
  auto key = ParseKey(R"(
    key Q3 for artist {
      x -[name_of]-> n*
      y:album -[recorded_by]-> x
    }
  )");
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_TRUE(key->pattern.IsRecursive());
  EXPECT_EQ(key->pattern.Radius(), 1);
}

TEST(Parser, RejectsUnknownBareName) {
  auto r = ParseKey(R"(
    key K for t {
      x -[p]-> ghost
    }
  )");
  EXPECT_FALSE(r.ok());
}

TEST(Parser, RejectsConflictingRedeclaration) {
  auto r = ParseKey(R"(
    key K for t {
      x -[p]-> y:a
      x -[q]-> y:b
    }
  )");
  EXPECT_FALSE(r.ok());
}

TEST(Parser, RejectsMalformedEdge) {
  EXPECT_FALSE(ParseKey("key K for t {\n x -> n*\n}").ok());
  EXPECT_FALSE(ParseKey("key K for t {\n x -[]-> n*\n}").ok());
}

TEST(Parser, RejectsUnterminatedBlock) {
  EXPECT_FALSE(ParseKey("key K for t {\n x -[p]-> n*\n").ok());
}

TEST(Parser, RejectsTripleOutsideBlock) {
  EXPECT_FALSE(ParseKeys("x -[p]-> n*").ok());
}

TEST(Parser, RejectsEmptyInput) {
  EXPECT_FALSE(ParseKeys("  \n # just a comment\n").ok());
}

TEST(Parser, RejectsUnterminatedString) {
  EXPECT_FALSE(ParseKey("key K for t {\n x -[p]-> \"oops\n}").ok());
}

TEST(Parser, ConstantsMayContainSpaces) {
  auto key = ParseKey(R"(
    key K for band {
      x -[name_of]-> "The Beatles"
    }
  )");
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_EQ(key->pattern.nodes()[1].name, "The Beatles");
}

TEST(Parser, SelfLoopTriple) {
  auto key = ParseKey(R"(
    key K for page {
      x -[links_to]-> x
      x -[url]-> u*
    }
  )");
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_EQ(key->pattern.size(), 2u);
}

}  // namespace
}  // namespace gkeys
