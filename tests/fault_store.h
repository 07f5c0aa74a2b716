#ifndef GKEYS_TESTS_FAULT_STORE_H_
#define GKEYS_TESTS_FAULT_STORE_H_

#include <cerrno>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "storage/file_ops.h"
#include "storage/store.h"

namespace gkeys {
namespace storage {

/// A test double that injects scripted failures at the Store seam — the
/// FESTIval-style layering: the fault layer is a wrapper any backend
/// slots under, not a fork of one. Where the fileops shim
/// (storage/file_ops.h) faults the OS primitives BELOW MmapStore and
/// DeltaLog, this wrapper faults the four Store calls ABOVE any backend,
/// which is what the codec robustness tests need: what do Snapshot::Save
/// and Load do when the Nth Put dies with ENOSPC, when Flush fails, when
/// a Get hands back flipped or truncated bytes?
///
/// All scripting is by 0-based operation index per call kind. Counters
/// keep counting after a fault fires, so a dry run (no script) measures
/// how many injection points a scenario has and a harness can then
/// enumerate them.
class FaultInjectingStore : public Store {
 public:
  struct Script {
    /// Fail the Nth Put / Flush / Get / Scan with `error` (-1 = never).
    int64_t fail_put_at = -1;
    int64_t fail_flush_at = -1;
    int64_t fail_get_at = -1;
    int64_t fail_scan_at = -1;
    Status error = Status::IoError("injected fault");
    /// When set, Get/Scan of exactly this key serve a tampered value:
    /// byte `corrupt_at` XOR `corrupt_mask` (if in range), and the value
    /// truncated to `truncate_to` bytes when that is shorter.
    std::string corrupt_key;
    size_t corrupt_at = 0;
    uint8_t corrupt_mask = 0;
    size_t truncate_to = SIZE_MAX;
  };

  /// Wraps `base`, which must outlive this store.
  explicit FaultInjectingStore(Store& base) : base_(base) {}

  FaultInjectingStore& script(Script s) {
    script_ = std::move(s);
    return *this;
  }
  const Script& script() const { return script_; }

  int64_t puts() const { return puts_; }
  int64_t flushes() const { return flushes_; }
  int64_t gets() const { return gets_; }
  int64_t scans() const { return scans_; }

  Status Put(std::string key, std::string value) override {
    if (puts_++ == script_.fail_put_at) return script_.error;
    return base_.Put(std::move(key), std::move(value));
  }

  Status Flush() override {
    if (flushes_++ == script_.fail_flush_at) return script_.error;
    return base_.Flush();
  }

  StatusOr<std::string_view> Get(std::string_view key) const override {
    if (gets_++ == script_.fail_get_at) return script_.error;
    auto value = base_.Get(key);
    if (!value.ok()) return value;
    return Tamper(key, *value);
  }

  Status Scan(std::string_view prefix, const ScanFn& fn) const override {
    if (scans_++ == script_.fail_scan_at) return script_.error;
    return base_.Scan(prefix, [this, &fn](std::string_view key,
                                          std::string_view value) {
      return fn(key, Tamper(key, value));
    });
  }

 private:
  /// Applies the corrupt_key tampering to a served value, materializing
  /// it into `scratch_` (views into the base store stay untouched).
  std::string_view Tamper(std::string_view key,
                          std::string_view value) const {
    if (script_.corrupt_key.empty() || key != script_.corrupt_key) {
      return value;
    }
    scratch_.assign(value);
    if (script_.corrupt_at < scratch_.size()) {
      scratch_[script_.corrupt_at] = static_cast<char>(
          scratch_[script_.corrupt_at] ^ script_.corrupt_mask);
    }
    if (script_.truncate_to < scratch_.size()) {
      scratch_.resize(script_.truncate_to);
    }
    return scratch_;
  }

  Store& base_;
  Script script_;
  // Read-side counters are mutable: Get/Scan are const on Store.
  int64_t puts_ = 0;
  int64_t flushes_ = 0;
  mutable int64_t gets_ = 0;
  mutable int64_t scans_ = 0;
  mutable std::string scratch_;
};

namespace fileops {

inline const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kOpen: return "open";
    case OpKind::kWrite: return "write";
    case OpKind::kFsync: return "fsync";
    case OpKind::kRename: return "rename";
    case OpKind::kFsyncDir: return "fsync_dir";
    case OpKind::kTruncate: return "truncate";
  }
  return "unknown";
}

/// A scriptable injector at the file-ops seam (storage/file_ops.h),
/// covering the fault menu the tests need: fail the `fail_at`-th
/// faultable op (0-based, counted across every kind, or only ops of
/// `only_kind` when set); optionally enter a crashed state where all
/// later ops fail EIO — the in-process stand-in for SIGKILL, after which
/// the test discards its in-memory state and runs recovery on whatever
/// reached the filesystem.
class ScriptedFaultInjector : public FaultInjector {
 public:
  int64_t fail_at = -1;  // -1 = never fire (pure op counting)
  bool has_kind_filter = false;
  OpKind only_kind = OpKind::kWrite;
  FaultAction action{/*fail_errno=*/EIO};
  bool crash_after = false;

  /// Faultable ops observed so far (matching the kind filter). A dry run
  /// with fail_at = -1 counts the injection points of a schedule; the
  /// harness then replays it once per point.
  int64_t ops_seen = 0;
  bool fired = false;
  bool crashed = false;

  FaultAction OnOp(OpKind kind, const std::string&) override {
    if (crashed) return FaultAction{/*fail_errno=*/EIO};
    if (has_kind_filter && kind != only_kind) return {};
    const int64_t index = ops_seen++;
    if (fail_at < 0 || index != fail_at) return {};
    fired = true;
    if (crash_after) crashed = true;
    return action;
  }
};

/// RAII installer so a test failure cannot leak an injector into later
/// tests.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector) {
    SetFaultInjector(injector);
  }
  ~ScopedFaultInjector() { SetFaultInjector(nullptr); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;
};

}  // namespace fileops
}  // namespace storage
}  // namespace gkeys

#endif  // GKEYS_TESTS_FAULT_STORE_H_
