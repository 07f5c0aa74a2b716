#include "storage/file_ops.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace gkeys {
namespace storage {
namespace fileops {

namespace {

FaultInjector* g_injector = nullptr;

Status ErrnoError(const std::string& what, const std::string& path, int err) {
  return Status::IoError(what + " " + path + ": " + std::strerror(err));
}

/// Consults the installed injector; returns the action to apply.
FaultAction Consult(OpKind kind, const std::string& path) {
  if (g_injector == nullptr) return {};
  return g_injector->OnOp(kind, path);
}

}  // namespace

void SetFaultInjector(FaultInjector* injector) { g_injector = injector; }

StatusOr<int> OpenForWrite(const std::string& path, bool truncate,
                           bool append) {
  FaultAction act = Consult(OpKind::kOpen, path);
  if (act.fail_errno != 0)
    return ErrnoError("cannot open", path, act.fail_errno);
  int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : 0) |
              (append ? O_APPEND : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return ErrnoError("cannot open", path, errno);
  return fd;
}

StatusOr<int> OpenForRead(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("cannot open", path, errno);
  return fd;
}

namespace {

/// The raw full-write loop: retries EINTR and short writes until every
/// byte is accepted or the kernel errors.
Status RawWriteFull(int fd, std::string_view data, const std::string& path) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write to", path, errno);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFull(int fd, std::string_view data, const std::string& path) {
  FaultAction act = Consult(OpKind::kWrite, path);
  if (act.flip_mask != 0 && act.flip_at < data.size()) {
    // Corrupt the byte on its way to disk; the write itself "succeeds",
    // so only a checksum can catch this downstream.
    std::string corrupted(data);
    corrupted[act.flip_at] =
        static_cast<char>(corrupted[act.flip_at] ^ act.flip_mask);
    if (act.fail_errno == 0) return RawWriteFull(fd, corrupted, path);
    // Torn prefix of the corrupted buffer, then the scripted failure.
    Status st = RawWriteFull(
        fd, std::string_view(corrupted).substr(
                0, std::min(act.write_prefix, corrupted.size())),
        path);
    if (!st.ok()) return st;
    return ErrnoError("write to", path, act.fail_errno);
  }
  if (act.fail_errno != 0) {
    // Torn write: the leading write_prefix bytes reach the file, then
    // the op fails (ENOSPC mid-record, a crash mid-write, ...).
    size_t prefix = std::min(act.write_prefix, data.size());
    if (prefix > 0) {
      Status st = RawWriteFull(fd, data.substr(0, prefix), path);
      if (!st.ok()) return st;
    }
    return ErrnoError("write to", path, act.fail_errno);
  }
  return RawWriteFull(fd, data, path);
}

Status Fsync(int fd, const std::string& path) {
  FaultAction act = Consult(OpKind::kFsync, path);
  if (act.fail_errno != 0) return ErrnoError("fsync", path, act.fail_errno);
  if (::fsync(fd) != 0) return ErrnoError("fsync", path, errno);
  return Status::OK();
}

Status Rename(const std::string& from, const std::string& to) {
  FaultAction act = Consult(OpKind::kRename, from);
  if (act.fail_errno != 0)
    return ErrnoError("cannot rename", from + " to " + to, act.fail_errno);
  if (::rename(from.c_str(), to.c_str()) != 0)
    return ErrnoError("cannot rename", from + " to " + to, errno);
  return Status::OK();
}

Status FsyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  FaultAction act = Consult(OpKind::kFsyncDir, dir);
  if (act.fail_errno != 0)
    return ErrnoError("fsync directory", dir, act.fail_errno);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoError("cannot open directory", dir, errno);
  int rc = ::fsync(fd);
  int err = errno;
  ::close(fd);
  if (rc != 0) return ErrnoError("fsync directory", dir, err);
  return Status::OK();
}

Status Truncate(const std::string& path, uint64_t size) {
  FaultAction act = Consult(OpKind::kTruncate, path);
  if (act.fail_errno != 0)
    return ErrnoError("cannot truncate", path, act.fail_errno);
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
    return ErrnoError("cannot truncate", path, errno);
  return Status::OK();
}

void Close(int fd) { ::close(fd); }

}  // namespace fileops
}  // namespace storage
}  // namespace gkeys
