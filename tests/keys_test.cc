#include "keys/key.h"

#include <gtest/gtest.h>

#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::ParseKey;

TEST(Key, CachesDerivedProperties) {
  auto parsed = ParseKey(R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    }
  )");
  ASSERT_TRUE(parsed.ok());
  Key k(parsed->name, std::move(parsed->pattern));
  EXPECT_EQ(k.name(), "Q1");
  EXPECT_EQ(k.type(), "album");
  EXPECT_EQ(k.size(), 2u);
  EXPECT_EQ(k.radius(), 1);
  EXPECT_TRUE(k.recursive());
  ASSERT_EQ(k.dependency_types().size(), 1u);
  EXPECT_EQ(k.dependency_types()[0], "artist");
}

TEST(KeySet, SizesAndLookup) {
  KeySet keys = testing::MakeSigma1();
  EXPECT_EQ(keys.count(), 3u);          // ||Σ||
  EXPECT_EQ(keys.TotalSize(), 6u);      // |Σ| = Σ|Q|
  EXPECT_TRUE(keys.HasKeyForType("album"));
  EXPECT_FALSE(keys.HasKeyForType("ghost"));
  auto types = keys.KeyedTypes();
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], "album");
  EXPECT_EQ(types[1], "artist");
}

TEST(KeySet, MaxRadius) {
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key A for t { x -[p]-> v* }
    key B for t {
      x -[p]-> _w:a
      _w -[q]-> u*
    }
  )").ok());
  EXPECT_EQ(keys.MaxRadius(), 2);
}

TEST(KeySet, DependencyChainMutualRecursion) {
  // album -> artist -> album: the cycle contributes its 2 distinct types.
  KeySet keys = testing::MakeSigma1();
  EXPECT_EQ(keys.LongestDependencyChain(), 2);
}

TEST(KeySet, DependencyChainValueBasedOnly) {
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl("key A for t { x -[p]-> v* }").ok());
  EXPECT_EQ(keys.LongestDependencyChain(), 1);
}

TEST(KeySet, DependencyChainLinear) {
  KeySet keys;
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key A for t0 {
      x -[p]-> v*
      x -[r]-> y:t1
    }
    key B for t1 {
      x -[p]-> v*
      x -[r]-> y:t2
    }
    key C for t2 { x -[p]-> v* }
  )").ok());
  EXPECT_EQ(keys.LongestDependencyChain(), 3);
}

TEST(KeySet, DependencyChainIgnoresUnkeyedTypes) {
  KeySet keys;
  // y's type has no key: the chain cannot extend through it.
  ASSERT_TRUE(keys.AddFromDsl(R"(
    key A for t0 {
      x -[p]-> v*
      x -[r]-> y:unkeyed
    }
  )").ok());
  EXPECT_EQ(keys.LongestDependencyChain(), 1);
}

TEST(KeySet, DependencyChainSelfRecursion) {
  // company -> company: a self-loop, chain of one distinct type.
  KeySet keys = testing::MakeSigma2();
  EXPECT_EQ(keys.LongestDependencyChain(), 1);
}

TEST(KeySet, EmptySet) {
  KeySet keys;
  EXPECT_TRUE(keys.empty());
  EXPECT_EQ(keys.LongestDependencyChain(), 0);
  EXPECT_EQ(keys.MaxRadius(), 0);
}

TEST(KeySet, AddFromDslPropagatesParseErrors) {
  KeySet keys;
  EXPECT_FALSE(keys.AddFromDsl("key broken {").ok());
  EXPECT_TRUE(keys.empty());
}

// ---- DSL round-tripping: ToDsl → AddFromDsl reproduces the key set ---------

// Structural equivalence of two keys: same name, type, size, radius,
// recursiveness, and dependency types.
void ExpectEquivalent(const Key& a, const Key& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.type(), b.type());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.radius(), b.radius());
  EXPECT_EQ(a.recursive(), b.recursive());
  EXPECT_EQ(a.dependency_types(), b.dependency_types());
}

TEST(KeyDsl, SingleKeyRoundTrip) {
  auto parsed = ParseKey(R"(
    key Q1 for album {
      x -[name_of]-> n*
      x -[recorded_by]-> y:artist
    }
  )");
  ASSERT_TRUE(parsed.ok());
  Key original(parsed->name, std::move(parsed->pattern));

  auto reparsed = ParseKey(ToDsl(original));
  ASSERT_TRUE(reparsed.ok()) << ToDsl(original);
  Key round_tripped(reparsed->name, std::move(reparsed->pattern));
  ExpectEquivalent(original, round_tripped);
  // The rendering is canonical: a second round trip is a fixed point.
  EXPECT_EQ(ToDsl(original), ToDsl(round_tripped));
}

TEST(KeyDsl, KeySetRoundTripMutuallyRecursive) {
  KeySet original = testing::MakeSigma1();  // Q1–Q3, mutual recursion
  KeySet round_tripped;
  ASSERT_TRUE(round_tripped.AddFromDsl(ToDsl(original)).ok())
      << ToDsl(original);
  ASSERT_EQ(round_tripped.count(), original.count());
  for (size_t i = 0; i < original.count(); ++i) {
    ExpectEquivalent(original.key(i), round_tripped.key(i));
  }
  EXPECT_EQ(round_tripped.TotalSize(), original.TotalSize());
  EXPECT_EQ(round_tripped.KeyedTypes(), original.KeyedTypes());
  EXPECT_EQ(round_tripped.LongestDependencyChain(),
            original.LongestDependencyChain());
  EXPECT_EQ(ToDsl(original), ToDsl(round_tripped));
}

TEST(KeyDsl, KeySetRoundTripWildcardsValuesAndConstants) {
  // Every variable kind the DSL can express: value variables, entity
  // variables (recursion), wildcards, and a constant literal.
  KeySet original;
  ASSERT_TRUE(original.AddFromDsl(R"(
    key WildValue for doc {
      x -[first]-> _l:sec
      x -[second]-> _r:sec
      _l -[hash]-> h1*
      _r -[hash]-> h2*
    }
    key WithConstant for doc {
      x -[lang]-> "en"
      x -[title]-> t*
    }
    key Recursive for sec {
      x -[hash]-> h*
      y:doc -[first]-> x
    }
  )").ok());
  KeySet round_tripped;
  ASSERT_TRUE(round_tripped.AddFromDsl(ToDsl(original)).ok())
      << ToDsl(original);
  ASSERT_EQ(round_tripped.count(), original.count());
  for (size_t i = 0; i < original.count(); ++i) {
    ExpectEquivalent(original.key(i), round_tripped.key(i));
  }
  EXPECT_EQ(ToDsl(original), ToDsl(round_tripped));
}

TEST(KeyDsl, RoundTrippedKeysMatchTheSameEntities) {
  // The behavioral check: the round-tripped Σ1 identifies exactly the
  // same pairs on the paper's G1.
  auto m = testing::MakeG1();
  KeySet original = testing::MakeSigma1();
  KeySet round_tripped;
  ASSERT_TRUE(round_tripped.AddFromDsl(ToDsl(original)).ok());
  EXPECT_EQ(Chase(m.g, original).pairs, Chase(m.g, round_tripped).pairs);
}

}  // namespace
}  // namespace gkeys
