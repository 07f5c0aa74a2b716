// ChunkTable (core/em_common.h): the copy-on-write table of immutable
// 32-position chunks behind the d-neighbor table and the candidates'
// pairing outputs. Sharing is observed through value addresses: two
// tables share a chunk exactly when a position reads the same element.
#include "core/em_common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace gkeys {
namespace {

constexpr size_t kSpan = 32;  // ChunkTable's chunk span

using Table = ChunkTable<int>;

/// Position i of the result holds 10 * i + 1 (never V{}).
Table Filled(size_t n) {
  std::vector<int64_t> all_new(n, -1);
  std::vector<int> fresh(n);
  for (size_t i = 0; i < n; ++i) fresh[i] = static_cast<int>(10 * i + 1);
  return Table::Remap(Table(), all_new, std::move(fresh));
}

std::vector<int64_t> Identity(size_t n) {
  std::vector<int64_t> map(n);
  std::iota(map.begin(), map.end(), 0);
  return map;
}

/// Whether every position of chunk c (below both sizes) reads the same
/// element in a and b.
bool SharesChunk(const Table& a, const Table& b, size_t c) {
  for (size_t i = c * kSpan; i < (c + 1) * kSpan; ++i) {
    if (i >= a.size() || i >= b.size()) break;
    if (&a[i] != &b[i]) return false;
  }
  return true;
}

TEST(ChunkTable, RemapSharesAChunkExactlyWhenItsPositionsCarryInPlace) {
  const Table prev = Filled(80);  // chunks of 32, 32 and 16 positions
  ASSERT_EQ(prev.size(), 80u);
  EXPECT_EQ(&prev[31] - &prev[0], 31);  // one chunk's values are contiguous

  // Every position carried in place: every chunk is shared.
  const Table same = Table::Remap(prev, Identity(80), {});
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(SharesChunk(same, prev, c)) << c;

  // One recompiled position clones its chunk only, and takes the fresh
  // value.
  std::vector<int64_t> map = Identity(80);
  map[40] = -1;
  const Table one = Table::Remap(prev, map, {7});
  EXPECT_EQ(one[40], 7);
  EXPECT_EQ(one[41], prev[41]);
  EXPECT_NE(&one[41], &prev[41]);
  EXPECT_TRUE(SharesChunk(one, prev, 0));
  EXPECT_FALSE(SharesChunk(one, prev, 1));
  EXPECT_TRUE(SharesChunk(one, prev, 2));

  // The last chunk is shared only while it covers as many positions:
  // growing L or shrinking it rebuilds it, with its carried values.
  for (size_t n : {90u, 70u}) {
    SCOPED_TRACE(n);
    std::vector<int64_t> grown = Identity(std::min<size_t>(n, 80));
    grown.resize(n, -1);
    const Table t =
        Table::Remap(prev, grown, std::vector<int>(n > 80 ? n - 80 : 0, 5));
    ASSERT_EQ(t.size(), n);
    EXPECT_TRUE(SharesChunk(t, prev, 0));
    EXPECT_TRUE(SharesChunk(t, prev, 1));
    EXPECT_FALSE(SharesChunk(t, prev, 2));
    EXPECT_NE(&t[64], &prev[64]);
    for (size_t i = 64; i < std::min<size_t>(n, 80); ++i) {
      EXPECT_EQ(t[i], prev[i]);
    }
    for (size_t i = 80; i < n; ++i) EXPECT_EQ(t[i], 5);
  }
}

TEST(ChunkTable, AnInsertionClonesEveryLaterChunk) {
  const Table prev = Filled(80);
  // A fresh position inserted at 40: chunk 0 is untouched, every later
  // position holds its predecessor's value.
  std::vector<int64_t> map;
  for (int64_t i = 0; i < 40; ++i) map.push_back(i);
  map.push_back(-1);
  for (int64_t i = 40; i < 80; ++i) map.push_back(i);
  const Table t = Table::Remap(prev, map, {-3});
  ASSERT_EQ(t.size(), 81u);
  EXPECT_TRUE(SharesChunk(t, prev, 0));
  EXPECT_FALSE(SharesChunk(t, prev, 1));
  EXPECT_FALSE(SharesChunk(t, prev, 2));
  EXPECT_EQ(t[40], -3);
  for (size_t i = 41; i < 81; ++i) EXPECT_EQ(t[i], prev[i - 1]) << i;
  for (size_t i = 0; i < 40; ++i) EXPECT_EQ(t[i], prev[i]) << i;
}

TEST(ChunkTable, AWriteClonesOnlyTheChunksItWrites) {
  // Written out of order: positions 5 and 6 land in one chunk.
  Table t;
  t.Write(128, {{70, 2}, {5, 1}, {6, 3}});
  ASSERT_EQ(t.size(), 128u);
  EXPECT_EQ(t[5], 1);
  EXPECT_EQ(t[6], 3);
  EXPECT_EQ(t[70], 2);
  EXPECT_EQ(&t[6] - &t[5], 1);
  EXPECT_EQ(t[40], 0);   // null chunk 1
  EXPECT_EQ(t[100], 0);  // null chunk 3

  Table u = t;
  u.Write(128, {{6, 9}});
  EXPECT_EQ(u[6], 9);
  EXPECT_EQ(t[6], 3);  // the source's chunk is not mutated
  EXPECT_EQ(u[5], 1);
  EXPECT_NE(&u[5], &t[5]);
  EXPECT_EQ(&u[70], &t[70]);  // chunk 2 stays shared
  EXPECT_EQ(&u[40], &t[40]);  // and chunk 1 null
}

TEST(ChunkTable, GrowingKeepsThePartialChunkAndNullChunksReadZero) {
  Table t;
  t.Write(40, {{33, 4}});  // chunk 1 covers positions 32..39
  Table u = t;
  u.Write(130, {{120, 8}});
  ASSERT_EQ(u.size(), 130u);
  EXPECT_EQ(&u[33], &t[33]);  // the partial chunk is shared
  EXPECT_EQ(u[33], 4);
  EXPECT_EQ(u[45], 0);   // past the old size, inside the partial chunk
  EXPECT_EQ(u[0], 0);    // chunk 0 was never written: null
  EXPECT_EQ(u[70], 0);   // a new null chunk
  EXPECT_EQ(u[120], 8);
  EXPECT_EQ(u[129], 0);  // the new last chunk, null
  EXPECT_EQ(&u[0], &u[70]);  // null chunks read one shared V{}
}

TEST(ChunkTable, MemoryBytesSkipsNullChunksAndCountsEachChunkOnce) {
  size_t calls = 0;
  auto value_bytes = [&](int v) {
    ++calls;
    return v != 0 ? size_t{1000} : 0;
  };
  Table empty;
  empty.Write(128, {});
  const size_t pointers = empty.MemoryBytes(value_bytes);
  EXPECT_EQ(calls, 0u);  // four null chunks hold no value

  Table one;
  one.Write(128, {{5, 1}, {6, 1}});
  calls = 0;
  const size_t one_bytes = one.MemoryBytes(value_bytes);
  EXPECT_EQ(calls, kSpan);  // the written chunk's values, once each
  const size_t chunk = one_bytes - pointers - 2000;

  Table two = one;
  two.Write(128, {{100, 1}});
  calls = 0;
  const size_t two_bytes = two.MemoryBytes(value_bytes);
  EXPECT_EQ(calls, 2 * kSpan);
  EXPECT_EQ(two_bytes, pointers + 2 * chunk + 3000);
  EXPECT_GE(chunk, kSpan * sizeof(int));
}

}  // namespace
}  // namespace gkeys
