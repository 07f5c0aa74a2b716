#include "common/parallel.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace gkeys {

void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  ParallelShards(num_threads, n, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ParallelShards(int num_threads, size_t n,
                    const std::function<void(int, size_t, size_t)>& fn) {
  int p = std::max(1, num_threads);
  if (n == 0) return;
  if (p == 1) {
    fn(0, 0, n);
    return;
  }
  // A shard exception must not escape its std::thread (std::terminate);
  // the first one is captured and rethrown on the calling thread after
  // every shard has joined.
  Mutex error_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(p);
  size_t chunk = (n + p - 1) / p;
  for (int t = 0; t < p; ++t) {
    size_t begin = std::min(n, static_cast<size_t>(t) * chunk);
    size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back([&fn, &error_mu, &first_error, t, begin, end] {
      try {
        fn(t, begin, end);
      } catch (...) {
        MutexLock lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace gkeys
