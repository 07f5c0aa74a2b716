#ifndef GKEYS_COMMON_PARALLEL_H_
#define GKEYS_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace gkeys {

/// Runs `fn(i)` for i in [0, n) across `num_threads` threads, blocking until
/// all iterations finish. Work is divided into contiguous chunks. If an
/// iteration throws, the first exception is rethrown on the calling thread
/// after all chunks finish (see ParallelShards).
void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& fn);

/// Runs `fn(shard, begin, end)` for `num_threads` contiguous shards of
/// [0, n). Useful when per-thread state (e.g., a local buffer) is needed.
/// If a shard throws, the remaining shards still run to completion and the
/// first captured exception is rethrown on the calling thread afterwards
/// (an exception escaping a worker thread would std::terminate).
void ParallelShards(int num_threads, size_t n,
                    const std::function<void(int, size_t, size_t)>& fn);

}  // namespace gkeys

#endif  // GKEYS_COMMON_PARALLEL_H_
