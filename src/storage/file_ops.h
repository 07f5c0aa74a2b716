#ifndef GKEYS_STORAGE_FILE_OPS_H_
#define GKEYS_STORAGE_FILE_OPS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gkeys {
namespace storage {
namespace fileops {

/// The faultable file primitives MmapStore and DeltaLog write through.
/// Production behavior is the plain POSIX call (with the full-write /
/// EINTR loop the raw syscalls need); tests install a FaultInjector
/// (tests/fault_store.h has a scripted one) to script the Nth write
/// failing with ENOSPC, a short (torn) write, a bit flip that reaches
/// disk, or a hard crash point after which every later operation fails —
/// which is how the crash-point enumeration harness walks a save →
/// append×k → save schedule and proves recovery lands on exactly the
/// last durable state at every point.
///
/// Durability contract the callers build on:
///   - WriteFull returns OK only when every byte was accepted by the
///     kernel (short writes and EINTR are retried, not surfaced).
///   - Fsync / FsyncDir return OK only when the kernel acknowledged the
///     flush — an acknowledged record or rename survives a crash.
///   - Rename is atomic; combined with "fsync the temp file first, fsync
///     the parent directory after", a crash never leaves a half-replaced
///     file behind the old name.

enum class OpKind : uint8_t {
  kOpen = 0,
  kWrite,
  kFsync,
  kRename,
  kFsyncDir,
  kTruncate,
};

/// What the injector tells one faultable primitive to do.
struct FaultAction {
  /// Nonzero: fail the op with this errno (nothing is performed, except
  /// see write_prefix below).
  int fail_errno = 0;
  /// kWrite with fail_errno set: persist this many leading bytes before
  /// failing — a torn write whose prefix reached the file.
  size_t write_prefix = 0;
  /// kWrite only: XOR this mask into the buffer byte at flip_at before
  /// writing, so the corruption reaches disk and only checksums can
  /// catch it. Independent of fail_errno (the write itself succeeds).
  uint8_t flip_mask = 0;
  size_t flip_at = 0;
};

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// Consulted before every faultable primitive; return a default
  /// FaultAction to let the op proceed.
  virtual FaultAction OnOp(OpKind kind, const std::string& path) = 0;
};

/// Installs a process-wide injector (nullptr restores production
/// behavior). Test-only and not synchronized: install before exercising
/// the storage layer, from the thread that will drive it.
void SetFaultInjector(FaultInjector* injector);

// ---- Faultable primitives ---------------------------------------------

/// Opens `path` for writing (O_CREAT; O_TRUNC or O_APPEND per flags).
StatusOr<int> OpenForWrite(const std::string& path, bool truncate,
                           bool append);
/// Opens `path` read-only. Not faultable: reads are not durability
/// points, so routing them here keeps the crash-point op counts of a
/// write schedule stable while still funneling every file descriptor
/// through this seam (the repo linter bans raw ::open elsewhere).
StatusOr<int> OpenForRead(const std::string& path);
/// Writes all of `data`, looping over EINTR and short writes. IoError
/// (with the op's errno) when the kernel rejects bytes.
Status WriteFull(int fd, std::string_view data, const std::string& path);
Status Fsync(int fd, const std::string& path);
Status Rename(const std::string& from, const std::string& to);
/// fsyncs the directory containing `path` (the file's parent), making a
/// rename or creation of `path` itself durable.
Status FsyncParentDir(const std::string& path);
Status Truncate(const std::string& path, uint64_t size);
/// Not faultable: closing is cleanup, never a durability point.
void Close(int fd);

}  // namespace fileops
}  // namespace storage
}  // namespace gkeys

#endif  // GKEYS_STORAGE_FILE_OPS_H_
