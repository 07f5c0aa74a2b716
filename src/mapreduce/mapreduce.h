#ifndef GKEYS_MAPREDUCE_MAPREDUCE_H_
#define GKEYS_MAPREDUCE_MAPREDUCE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace gkeys {
namespace mapreduce {

/// Collects (key, value) pairs emitted by a mapper or reducer.
template <typename K, typename V>
class Emitter {
 public:
  void Emit(K key, V value) {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  std::vector<std::pair<K, V>>& pairs() { return pairs_; }
  const std::vector<std::pair<K, V>>& pairs() const { return pairs_; }

 private:
  std::vector<std::pair<K, V>> pairs_;
};

/// Per-round counters exposed so the harness can report shuffle volumes.
struct RoundStats {
  size_t map_inputs = 0;
  size_t map_outputs = 0;      // intermediate pairs shuffled
  size_t reduce_groups = 0;    // distinct intermediate keys
  size_t reduce_outputs = 0;
};

/// An in-process MapReduce runtime that simulates Hadoop for the EMMR
/// family (paper §4): `p` worker threads stand in for `p` processors.
///
/// Execution of one job faithfully follows the model:
///   1. map phase   — inputs are split into contiguous chunks, one mapper
///                    task per chunk, all `p` workers run concurrently;
///   2. shuffle     — intermediate pairs are hash-partitioned by key into
///                    `p` partitions and grouped (sort within partition);
///   3. barrier     — reducers start only after every mapper finished
///                    (the synchronization policy whose stragglers §5
///                    blames for EMMR's overhead — deliberately kept);
///   4. reduce phase— one reducer task per partition.
///
/// Invariant inputs (the graph, keys, d-neighbors) are captured by the
/// mapper closures, standing in for Haloop-style distributed-cache files.
///
/// K2 must be hashable and `<`-comparable with std::hash / operator<.
template <typename K1, typename V1, typename K2, typename V2, typename K3,
          typename V3>
class Job {
 public:
  using MapFn =
      std::function<void(const K1&, const V1&, Emitter<K2, V2>&)>;
  using ReduceFn = std::function<void(const K2&, const std::vector<V2>&,
                                      Emitter<K3, V3>&)>;

  Job(MapFn map, ReduceFn reduce)
      : map_(std::move(map)), reduce_(std::move(reduce)) {}

  /// Runs one MapReduce round over `inputs` with `p` workers.
  std::vector<std::pair<K3, V3>> Run(
      const std::vector<std::pair<K1, V1>>& inputs, int p,
      RoundStats* stats = nullptr) {
    p = std::max(1, p);
    // ---- Map phase: each mapper writes p partitioned spill buckets
    // (like Hadoop's partitioned map output files). ----
    std::vector<Emitter<K2, V2>> map_out(p);
    std::vector<std::vector<std::vector<std::pair<K2, V2>>>> spills(
        p, std::vector<std::vector<std::pair<K2, V2>>>(p));
    ParallelShards(p, inputs.size(), [&](int shard, size_t begin, size_t end) {
      auto& em = map_out[shard];
      for (size_t i = begin; i < end; ++i) {
        map_(inputs[i].first, inputs[i].second, em);
        for (auto& kv : em.pairs()) {
          size_t part = std::hash<K2>{}(kv.first) % p;
          spills[shard][part].push_back(std::move(kv));
        }
        em.pairs().clear();
      }
    });
    size_t total_intermediate = 0;
    for (const auto& shard : spills) {
      for (const auto& bucket : shard) total_intermediate += bucket.size();
    }
    // ---- Barrier, then shuffle-merge + reduce, one task per partition.
    std::vector<Emitter<K3, V3>> red_out(p);
    std::vector<size_t> group_counts(p, 0);
    ParallelShards(p, static_cast<size_t>(p),
                   [&](int, size_t begin, size_t end) {
      for (size_t part = begin; part < end; ++part) {
        std::vector<std::pair<K2, V2>> pairs;
        for (int shard = 0; shard < p; ++shard) {
          auto& bucket = spills[shard][part];
          std::move(bucket.begin(), bucket.end(),
                    std::back_inserter(pairs));
          bucket.clear();
        }
        std::sort(pairs.begin(), pairs.end(),
                  [](const auto& a, const auto& b) {
                    return a.first < b.first;
                  });
        size_t i = 0;
        while (i < pairs.size()) {
          size_t j = i;
          std::vector<V2> values;
          while (j < pairs.size() && pairs[j].first == pairs[i].first) {
            values.push_back(std::move(pairs[j].second));
            ++j;
          }
          reduce_(pairs[i].first, values, red_out[part]);
          ++group_counts[part];
          i = j;
        }
      }
    });
    // ---- Collect ----
    std::vector<std::pair<K3, V3>> output;
    size_t groups = 0, outputs = 0;
    for (size_t part = 0; part < red_out.size(); ++part) {
      groups += group_counts[part];
      outputs += red_out[part].pairs().size();
      for (auto& kv : red_out[part].pairs()) output.push_back(std::move(kv));
    }
    if (stats != nullptr) {
      stats->map_inputs = inputs.size();
      stats->map_outputs = total_intermediate;
      stats->reduce_groups = groups;
      stats->reduce_outputs = outputs;
    }
    return output;
  }

 private:
  MapFn map_;
  ReduceFn reduce_;
};

}  // namespace mapreduce
}  // namespace gkeys

#endif  // GKEYS_MAPREDUCE_MAPREDUCE_H_
