#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"
#include "io/triples.h"

namespace gkeys {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(Status, AllConstructorsProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::Internal("").code(),        Status::IoError("").code(),
      Status::ParseError("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::string> v = std::string("payload");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

Status Inner() { return Status::Internal("boom"); }
Status Outer() {
  GKEYS_RETURN_IF_ERROR(Inner());
  return Status::OK();
}

TEST(Status, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(Outer().code(), StatusCode::kInternal);
}

TEST(Interner, RoundTrip) {
  StringInterner in;
  Symbol a = in.Intern("alpha");
  Symbol b = in.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("alpha"), a);  // stable
  EXPECT_EQ(in.Resolve(a), "alpha");
  EXPECT_EQ(in.Resolve(b), "beta");
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, LookupDoesNotIntern) {
  StringInterner in;
  EXPECT_EQ(in.Lookup("ghost"), kNoSymbol);
  EXPECT_EQ(in.size(), 0u);
  in.Intern("real");
  EXPECT_NE(in.Lookup("real"), kNoSymbol);
}

TEST(Interner, CopyIsIndependent) {
  StringInterner a;
  a.Intern("x");
  StringInterner b = a;
  b.Intern("y");
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.Resolve(a.Lookup("x")), "x");
}

TEST(Interner, MoveKeepsStorage) {
  static_assert(std::is_nothrow_move_constructible_v<StringInterner>);
  static_assert(std::is_nothrow_move_constructible_v<Graph>);
  static_assert(std::is_nothrow_move_constructible_v<LoadedGraph>);
  StringInterner a;
  a.Intern("alpha");
  a.Intern("beta");
  const std::string* first = &a.Resolve(0);
  StringInterner b = std::move(a);
  EXPECT_EQ(&b.Resolve(0), first);  // moved, not copied
  EXPECT_EQ(b.Lookup("beta"), 1u);
  StringInterner c;
  c.Intern("gamma");
  c = std::move(b);
  EXPECT_EQ(&c.Resolve(0), first);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Lookup("gamma"), kNoSymbol);
}

TEST(Interner, MatchesAHashMapAcrossGrowth) {
  // Strings that stress hashing and probing: the empty string, embedded
  // NULs, 1 KiB strings, and long shared prefixes.
  std::vector<std::string> corpus = {"", std::string("\0", 1),
                                     std::string("\0\0", 2),
                                     std::string("a\0b", 3), "a"};
  const std::string prefix(200, 'p');
  for (int i = 0; i < 1000; ++i) {
    corpus.push_back(std::string(1024 - 4, 'k') + std::to_string(1000 + i));
    corpus.push_back(std::string("z\0", 2) + std::to_string(i));
  }
  for (int i = 0; i < 50000; ++i) {
    corpus.push_back(prefix + std::to_string(i));
    corpus.push_back(std::to_string(i * 7919));  // short, some repeats
  }
  ASSERT_GE(corpus.size(), 100000u);

  Rng rng(99);
  auto shuffle = [&rng](std::vector<std::string>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Below(i)]);
  };
  StringInterner in;
  std::unordered_map<std::string, Symbol> reference;
  for (int pass = 0; pass < 2; ++pass) {
    shuffle(corpus);
    for (const std::string& s : corpus) {
      Symbol want =
          reference.try_emplace(s, static_cast<Symbol>(reference.size()))
              .first->second;
      ASSERT_EQ(in.Intern(s), want) << "pass " << pass;
    }
  }
  ASSERT_EQ(in.size(), reference.size());
  for (const auto& [s, sym] : reference) {
    ASSERT_EQ(in.Lookup(s), sym);
    ASSERT_EQ(in.Resolve(sym), s);
  }
  for (const std::string& absent :
       {std::string("a\0c", 3), prefix, std::string(1024, 'k'),
        std::string("b")}) {
    EXPECT_EQ(in.Lookup(absent), kNoSymbol);
  }
  EXPECT_EQ(in.size(), reference.size());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(13), 13u);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = r.Range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Chance(0.0));
    EXPECT_TRUE(r.Chance(1.0));
  }
}

TEST(Rng, ForkIndependentStream) {
  Rng a(5);
  Rng fork = a.Fork();
  EXPECT_NE(a.Next(), fork.Next());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  ParallelFor(8, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsFine) {
  ParallelFor(4, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelShards, ShardsPartitionTheRange) {
  std::vector<int> owner(100, -1);
  ParallelShards(7, owner.size(), [&](int shard, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) owner[i] = shard;
  });
  for (int o : owner) EXPECT_GE(o, 0);
}

TEST(ParallelShards, ThrowingShardSurfacesOnCaller) {
  // An exception escaping a shard's std::thread would terminate the
  // process; it must be captured and rethrown on the calling thread,
  // after every other shard ran to completion.
  std::atomic<int> completed{0};
  EXPECT_THROW(ParallelShards(4, 100,
                              [&](int shard, size_t, size_t) {
                                if (shard == 1) {
                                  throw std::runtime_error("shard failed");
                                }
                                completed.fetch_add(1);
                              }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 3);
}

TEST(ParallelFor, ThrowingIterationSurfacesOnCaller) {
  EXPECT_THROW(ParallelFor(4, 100,
                           [](size_t i) {
                             if (i == 37) {
                               throw std::runtime_error("iteration failed");
                             }
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace gkeys
