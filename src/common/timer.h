#ifndef GKEYS_COMMON_TIMER_H_
#define GKEYS_COMMON_TIMER_H_

#include <chrono>

namespace gkeys {

/// Wall-clock stopwatch for the benchmark harness and algorithm stats.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gkeys

#endif  // GKEYS_COMMON_TIMER_H_
