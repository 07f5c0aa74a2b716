#ifndef GKEYS_TESTS_ALLOC_LEDGER_H_
#define GKEYS_TESTS_ALLOC_LEDGER_H_

// An allocation ledger: this header replaces the global operator new and
// delete, the throwing and the nothrow forms (std::stable_sort's buffer
// takes the latter), and counts, process-wide, every allocation (calls
// and requested bytes) and the live bytes the allocator hands out
// (malloc_usable_size), with their peak. Include it in exactly one translation unit of a test
// executable; an AllocScope reads the ledger over a region of code.

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace gkeys {
namespace testing {
namespace ledger {

inline std::atomic<int64_t> calls{0};
inline std::atomic<int64_t> bytes{0};
inline std::atomic<int64_t> live{0};
inline std::atomic<int64_t> peak{0};

inline void Took(void* p, std::size_t size) {
  calls.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  const int64_t now =
      live.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed) +
      static_cast<int64_t>(malloc_usable_size(p));
  int64_t high = peak.load(std::memory_order_relaxed);
  while (now > high &&
         !peak.compare_exchange_weak(high, now, std::memory_order_relaxed)) {
  }
}

/// Frees a block operator new took from malloc. Out of line, so that
/// GCC does not read the free() as the mismatched release of an
/// operator new block (-Wmismatched-new-delete).
[[gnu::noinline]] inline void Release(void* p) {
  live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                 std::memory_order_relaxed);
  std::free(p);
}

}  // namespace ledger

/// What the code between construction and a read allocated: calls,
/// requested bytes, the change in live heap bytes, and the peak of live
/// heap bytes above the starting level. Peaks are process-wide, so use
/// one scope at a time.
class AllocScope {
 public:
  AllocScope()
      : calls_(ledger::calls.load(std::memory_order_relaxed)),
        bytes_(ledger::bytes.load(std::memory_order_relaxed)),
        live_(ledger::live.load(std::memory_order_relaxed)) {
    ledger::peak.store(live_, std::memory_order_relaxed);
  }
  int64_t calls() const {
    return ledger::calls.load(std::memory_order_relaxed) - calls_;
  }
  int64_t bytes() const {
    return ledger::bytes.load(std::memory_order_relaxed) - bytes_;
  }
  int64_t live() const {
    return ledger::live.load(std::memory_order_relaxed) - live_;
  }
  int64_t peak_live() const {
    return ledger::peak.load(std::memory_order_relaxed) - live_;
  }

 private:
  int64_t calls_, bytes_, live_;
};

}  // namespace testing
}  // namespace gkeys

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  gkeys::testing::ledger::Took(p, size);
  return p;
}

void operator delete(void* p) noexcept {
  if (p != nullptr) gkeys::testing::ledger::Release(p);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) gkeys::testing::ledger::Took(p, size);
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return operator new(size, t);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

#endif  // GKEYS_TESTS_ALLOC_LEDGER_H_
