#include "storage/delta_log.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "common/endian.h"
#include "common/hash.h"
#include "storage/file_ops.h"

namespace gkeys {
namespace storage {

namespace {

constexpr char kMagic[8] = {'G', 'K', 'E', 'Y', 'S', 'W', 'A', 'L'};

/// Frames one record: be32 length, be64 FNV-1a-64 over (length bytes ++
/// payload), payload. Checksumming the length bytes too means a bit flip
/// in the length is caught the same way as one in the payload.
std::string FrameRecord(std::string_view payload) {
  std::string rec;
  rec.reserve(DeltaLog::kRecordHeaderBytes + payload.size());
  PutBe32(rec, static_cast<uint32_t>(payload.size()));
  uint64_t sum = Fnv1a64(payload, Fnv1a64(std::string_view(rec.data(), 4)));
  PutBe64(rec, sum);
  rec.append(payload);
  return rec;
}

/// Does a complete, checksum-valid record start at `off`?
bool ValidRecordAt(std::string_view file, size_t off, uint32_t* len_out) {
  if (file.size() - off < DeltaLog::kRecordHeaderBytes) return false;
  uint32_t len = GetBe32(file.data() + off);
  if (len > file.size() - off - DeltaLog::kRecordHeaderBytes) return false;
  uint64_t stored = GetBe64(file.data() + off + 4);
  uint64_t sum = Fnv1a64(file.substr(off + DeltaLog::kRecordHeaderBytes, len),
                         Fnv1a64(file.substr(off, 4)));
  if (sum != stored) return false;
  *len_out = len;
  return true;
}

StatusOr<std::string> SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good())
    return Status::IoError("cannot open delta log " + path + ": " +
                           std::strerror(errno));
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad())
    return Status::IoError("cannot read delta log " + path);
  return bytes;
}

}  // namespace

StatusOr<std::unique_ptr<DeltaLog>> DeltaLog::Create(std::string path,
                                                     uint64_t generation) {
  std::string header;
  header.reserve(kHeaderBytes);
  header.append(kMagic, sizeof(kMagic));
  PutBe32(header, kFormatVersion);
  PutBe64(header, generation);

  auto fd = fileops::OpenForWrite(path, /*truncate=*/true, /*append=*/false);
  if (!fd.ok()) return fd.status();
  Status st = fileops::WriteFull(*fd, header, path);
  if (st.ok()) st = fileops::Fsync(*fd, path);
  if (st.ok()) st = fileops::FsyncParentDir(path);
  if (!st.ok()) {
    fileops::Close(*fd);
    return st;
  }
  return std::unique_ptr<DeltaLog>(
      new DeltaLog(std::move(path), generation, *fd));
}

StatusOr<DeltaLog::ReplayResult> DeltaLog::Replay(const std::string& path) {
  auto bytes = SlurpFile(path);
  if (!bytes.ok()) return bytes.status();
  std::string_view file = *bytes;

  ReplayResult out;
  if (file.size() < kHeaderBytes) {
    // The header write never became durable: the log holds nothing that
    // was ever acknowledged — a clean no-op (the PR-6 empty-delta
    // short-circuit, mirrored at the log level).
    out.truncated = file.empty() ? 0 : 1;
    return out;
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0)
    return Status::ParseError("delta log " + path +
                              ": bad magic (not a gkeys delta log)");
  uint32_t version = GetBe32(file.data() + 8);
  if (version != kFormatVersion)
    return Status::ParseError(
        "delta log " + path + ": format version " + std::to_string(version) +
        " unsupported (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  out.has_header = true;
  out.generation = GetBe64(file.data() + 12);
  out.valid_bytes = kHeaderBytes;

  size_t off = kHeaderBytes;
  while (off < file.size()) {
    uint32_t len = 0;
    if (ValidRecordAt(file, off, &len)) {
      out.records.emplace_back(file.substr(off + kRecordHeaderBytes, len));
      off += kRecordHeaderBytes + len;
      out.valid_bytes = off;
      continue;
    }
    // Bad record. Torn tail (crash mid-append, never acknowledged) or a
    // corrupted acknowledged batch? Later appends prove earlier acks, so
    // scan forward for any complete valid record — the bad length field
    // cannot be trusted to find the next frame, hence byte-by-byte.
    for (size_t probe = off + 1; probe < file.size(); ++probe) {
      uint32_t probe_len = 0;
      if (ValidRecordAt(file, probe, &probe_len)) {
        return Status::DataLoss(
            "delta log " + path + ": record at byte " + std::to_string(off) +
            " is corrupt but a later valid record exists at byte " +
            std::to_string(probe) +
            " — an acknowledged batch is unrecoverable");
      }
    }
    out.truncated = 1;
    break;
  }
  return out;
}

StatusOr<std::unique_ptr<DeltaLog>> DeltaLog::OpenForAppend(
    std::string path, ReplayResult* replayed) {
  auto replay = Replay(path);
  if (!replay.ok()) return replay.status();
  if (!replay->has_header)
    return Status::ParseError("delta log " + path +
                              ": no durable header; Create() a fresh log");
  if (replay->truncated > 0) {
    // Drop the torn tail so the next record starts on a clean frame.
    GKEYS_RETURN_IF_ERROR(fileops::Truncate(path, replay->valid_bytes));
  }
  auto fd = fileops::OpenForWrite(path, /*truncate=*/false, /*append=*/true);
  if (!fd.ok()) return fd.status();
  auto log = std::unique_ptr<DeltaLog>(
      new DeltaLog(std::move(path), replay->generation, *fd));
  log->records_appended_ = replay->records.size();
  if (replayed != nullptr) *replayed = std::move(*replay);
  return log;
}

DeltaLog::~DeltaLog() {
  if (fd_ >= 0) fileops::Close(fd_);
}

Status DeltaLog::Append(std::string_view payload) {
  if (poisoned_)
    return Status::FailedPrecondition(
        "delta log " + path_ +
        ": a previous append failed (possible torn tail); rotate to a new "
        "generation before appending again");
  std::string rec = FrameRecord(payload);
  Status st = fileops::WriteFull(fd_, rec, path_);
  if (st.ok()) st = fileops::Fsync(fd_, path_);
  if (!st.ok()) {
    poisoned_ = true;
    return st;
  }
  ++records_appended_;
  return Status::OK();
}

}  // namespace storage
}  // namespace gkeys
