#ifndef GKEYS_STORAGE_MMAP_STORE_H_
#define GKEYS_STORAGE_MMAP_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "storage/store.h"

namespace gkeys {
namespace storage {

/// The first Store backend: one immutable snapshot file, mmap'd for
/// reading (stardust-style layout — sorted length-prefixed records plus
/// a fixed-width offset index, so Get is a binary search over the map
/// with zero deserialization).
///
/// File layout (all integers big-endian):
///
///     [0,  8)   magic "GKEYSNAP"
///     [8, 12)   format version (currently 3)
///     [12, 20)  record count
///     [20, 28)  data-region size in bytes
///     [28, 36)  FNV-1a-64 checksum of the data region
///     [36, ..)  data region: per record
///                   be32 key-length, be32 value-length, key, value
///               sorted ascending by key
///     tail      record count × be64 record offset (into the data region)
///
/// Write path: Create() stages Puts in memory; Flush() writes the whole
/// file to `path + ".tmp"` (full-write loop), fsyncs it, renames it into
/// place, and fsyncs the parent directory (a torn write never replaces a
/// previous good snapshot, and a rename that survives a crash always has
/// its bytes behind it), then maps it for reading. All file primitives
/// go through storage/file_ops.h, so tests can fault any step.
/// Read path: Open() maps an existing file read-only; Put on it is
/// FailedPrecondition. Every field of an opened file is bounds- and
/// checksum-validated before use, so truncated or corrupted files (and
/// version mismatches) surface as ParseError/IoError Status — never a
/// crash.
class MmapStore : public Store {
 public:
  /// A store that will write a new snapshot file at `path` on Flush.
  static StatusOr<std::unique_ptr<MmapStore>> Create(std::string path);

  /// Maps an existing snapshot file read-only, validating the header,
  /// the checksum, and every record's bounds. ParseError on corruption
  /// or a format-version mismatch; IoError when the file cannot be
  /// opened or mapped.
  static StatusOr<std::unique_ptr<MmapStore>> Open(std::string path);

  ~MmapStore() override;

  MmapStore(const MmapStore&) = delete;
  MmapStore& operator=(const MmapStore&) = delete;

  Status Put(std::string key, std::string value) override;
  Status Flush() override;
  StatusOr<std::string_view> Get(std::string_view key) const override;
  Status Scan(std::string_view prefix, const ScanFn& fn) const override;

  /// Size in bytes of the flushed / opened file (0 before Flush).
  uint64_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

  /// The current snapshot-file format version Create() writes.
  static constexpr uint32_t kFormatVersion = 3;

 private:
  explicit MmapStore(std::string path) : path_(std::move(path)) {}

  Status MapFile();
  void Unmap();
  /// Record `i`'s key/value views; false when its bounds are corrupt.
  bool RecordAt(size_t i, std::string_view* key, std::string_view* value) const;
  /// Index of the first record with key >= `key`.
  size_t LowerBound(std::string_view key) const;

  std::string path_;
  bool writable_ = false;
  // Write staging (Create path, before Flush).
  std::map<std::string, std::string, std::less<>> staged_;
  // Read state (after Open or Flush).
  char* mapped_ = nullptr;
  size_t mapped_size_ = 0;
  std::string_view data_;   // the record region
  const char* index_ = nullptr;  // record-offset index (be64 each)
  uint64_t record_count_ = 0;
  uint64_t file_bytes_ = 0;
};

}  // namespace storage
}  // namespace gkeys

#endif  // GKEYS_STORAGE_MMAP_STORE_H_
