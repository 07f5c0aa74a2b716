#include "storage/mmap_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/endian.h"
#include "common/hash.h"
#include "storage/file_ops.h"

namespace gkeys {
namespace storage {

namespace {

constexpr char kMagic[8] = {'G', 'K', 'E', 'Y', 'S', 'N', 'A', 'P'};
constexpr size_t kHeaderBytes = 36;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::ParseError("snapshot file " + path + ": " + what);
}

}  // namespace

StatusOr<std::unique_ptr<MmapStore>> MmapStore::Create(std::string path) {
  if (path.empty())
    return Status::InvalidArgument("MmapStore::Create: empty path");
  auto store = std::unique_ptr<MmapStore>(new MmapStore(std::move(path)));
  store->writable_ = true;
  return store;
}

StatusOr<std::unique_ptr<MmapStore>> MmapStore::Open(std::string path) {
  auto store = std::unique_ptr<MmapStore>(new MmapStore(std::move(path)));
  GKEYS_RETURN_IF_ERROR(store->MapFile());
  return store;
}

MmapStore::~MmapStore() { Unmap(); }

void MmapStore::Unmap() {
  if (mapped_ != nullptr) {
    ::munmap(mapped_, mapped_size_);
    mapped_ = nullptr;
    mapped_size_ = 0;
  }
  data_ = {};
  index_ = nullptr;
  record_count_ = 0;
}

Status MmapStore::Put(std::string key, std::string value) {
  if (!writable_)
    return Status::FailedPrecondition(
        "MmapStore: store opened read-only; Put requires Create()");
  staged_[std::move(key)] = std::move(value);
  return Status::OK();
}

Status MmapStore::Flush() {
  if (!writable_)
    return Status::FailedPrecondition(
        "MmapStore: store opened read-only; nothing to flush");

  // Data region: records sorted by key (std::map iteration order).
  std::string data;
  std::string index;
  for (const auto& [key, value] : staged_) {
    PutBe64(index, data.size());
    PutBe32(data, static_cast<uint32_t>(key.size()));
    PutBe32(data, static_cast<uint32_t>(value.size()));
    data += key;
    data += value;
  }

  std::string file;
  file.reserve(kHeaderBytes + data.size() + index.size());
  file.append(kMagic, sizeof(kMagic));
  PutBe32(file, kFormatVersion);
  PutBe64(file, staged_.size());
  PutBe64(file, data.size());
  PutBe64(file, Fnv1a64(data));
  file += data;
  file += index;

  // Write-temp, fsync, rename, fsync-parent-dir: a torn write never
  // replaces a good snapshot, and a survived rename always has the bytes
  // behind it (renaming an unfsynced temp can outlive its contents).
  // Every primitive goes through the fileops shim, so the fault-injection
  // tests can fail or tear any step. On any failure the previous file at
  // `path_` is untouched; the temp is removed best-effort.
  const std::string tmp = path_ + ".tmp";
  Status st;
  {
    auto fd = fileops::OpenForWrite(tmp, /*truncate=*/true, /*append=*/false);
    if (!fd.ok()) return fd.status();
    st = fileops::WriteFull(*fd, file, tmp);
    if (st.ok()) st = fileops::Fsync(*fd, tmp);
    fileops::Close(*fd);
  }
  if (st.ok()) st = fileops::Rename(tmp, path_);
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  GKEYS_RETURN_IF_ERROR(fileops::FsyncParentDir(path_));

  staged_.clear();
  writable_ = false;
  Unmap();
  return MapFile();
}

Status MmapStore::MapFile() {
  auto fd_or = fileops::OpenForRead(path_);
  if (!fd_or.ok()) return fd_or.status();
  int fd = *fd_or;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    fileops::Close(fd);
    return Status::IoError("cannot stat " + path_);
  }
  size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes) {
    fileops::Close(fd);
    return Corrupt(path_, "truncated header (" + std::to_string(size) +
                              " bytes)");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  fileops::Close(fd);
  if (map == MAP_FAILED)
    return Status::IoError("cannot mmap " + path_ + ": " +
                           std::strerror(errno));
  mapped_ = static_cast<char*>(map);
  mapped_size_ = size;
  file_bytes_ = size;

  const char* p = mapped_;
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    Unmap();
    return Corrupt(path_, "bad magic (not a gkeys snapshot)");
  }
  uint32_t version = GetBe32(p + 8);
  if (version != kFormatVersion) {
    Unmap();
    return Corrupt(path_, "format version " + std::to_string(version) +
                              " unsupported (this build reads version " +
                              std::to_string(kFormatVersion) + ")");
  }
  uint64_t count = GetBe64(p + 12);
  uint64_t data_size = GetBe64(p + 20);
  uint64_t checksum = GetBe64(p + 28);
  // count*8 overflow-safe bound: both factors fit the file size check.
  if (data_size > size - kHeaderBytes ||
      count > (size - kHeaderBytes - data_size) / 8 ||
      kHeaderBytes + data_size + count * 8 != size) {
    Unmap();
    return Corrupt(path_, "header geometry does not match file size");
  }
  data_ = std::string_view(p + kHeaderBytes, data_size);
  index_ = p + kHeaderBytes + data_size;
  record_count_ = count;
  if (Fnv1a64(data_) != checksum) {
    Unmap();
    return Corrupt(path_, "checksum mismatch (corrupted data region)");
  }
  // Validate every record's bounds once, so reads never have to.
  std::string_view prev_key;
  for (size_t i = 0; i < record_count_; ++i) {
    std::string_view key, value;
    if (!RecordAt(i, &key, &value)) {
      Unmap();
      return Corrupt(path_, "record " + std::to_string(i) +
                                " overruns the data region");
    }
    if (i > 0 && !(prev_key < key)) {
      Unmap();
      return Corrupt(path_, "records not in strictly ascending key order");
    }
    prev_key = key;
  }
  return Status::OK();
}

bool MmapStore::RecordAt(size_t i, std::string_view* key,
                         std::string_view* value) const {
  uint64_t off = GetBe64(index_ + i * 8);
  if (off > data_.size() || data_.size() - off < 8) return false;
  uint32_t klen = GetBe32(data_.data() + off);
  uint32_t vlen = GetBe32(data_.data() + off + 4);
  uint64_t payload = static_cast<uint64_t>(klen) + vlen;
  if (payload > data_.size() - off - 8) return false;
  *key = data_.substr(off + 8, klen);
  *value = data_.substr(off + 8 + klen, vlen);
  return true;
}

size_t MmapStore::LowerBound(std::string_view key) const {
  size_t lo = 0, hi = record_count_;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    std::string_view k, v;
    RecordAt(mid, &k, &v);  // bounds validated at open
    if (k < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<std::string_view> MmapStore::Get(std::string_view key) const {
  if (writable_) {
    auto it = staged_.find(key);
    if (it == staged_.end())
      return Status::NotFound("key not found: " + std::string(key));
    return std::string_view(it->second);
  }
  if (mapped_ == nullptr)
    return Status::FailedPrecondition("MmapStore: no file mapped");
  size_t i = LowerBound(key);
  std::string_view k, v;
  if (i < record_count_ && RecordAt(i, &k, &v) && k == key) return v;
  return Status::NotFound("key not found: " + std::string(key));
}

Status MmapStore::Scan(std::string_view prefix, const ScanFn& fn) const {
  if (writable_) {
    for (auto it = staged_.lower_bound(prefix); it != staged_.end(); ++it) {
      std::string_view key = it->first;
      if (key.substr(0, prefix.size()) != prefix) break;
      GKEYS_RETURN_IF_ERROR(fn(key, it->second));
    }
    return Status::OK();
  }
  if (mapped_ == nullptr)
    return Status::FailedPrecondition("MmapStore: no file mapped");
  for (size_t i = LowerBound(prefix); i < record_count_; ++i) {
    std::string_view key, value;
    RecordAt(i, &key, &value);  // bounds validated at open
    if (key.substr(0, prefix.size()) != prefix) break;
    GKEYS_RETURN_IF_ERROR(fn(key, value));
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace gkeys
