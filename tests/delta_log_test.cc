// Write-ahead delta log and fault-injection seam tests: record framing
// and checksums (torn tails truncate, mid-log corruption is kDataLoss),
// the fileops shim driving MmapStore's fsync-discipline write path, and
// the FaultInjectingStore test double (fault_store.h) at the Store seam.
// The sanitize CI job runs all of this under ASan/UBSan.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/matcher.h"
#include "fault_store.h"
#include "storage/delta_log.h"
#include "storage/file_ops.h"
#include "storage/mmap_store.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace gkeys {
namespace {

using storage::DeltaLog;
using storage::FaultInjectingStore;
using storage::MmapStore;
using storage::Snapshot;
namespace fileops = storage::fileops;

using testing::TempPath;

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool Exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

// Three payloads exercising the framing edges: ordinary, empty, binary
// with embedded NULs.
std::vector<std::string> SamplePayloads() {
  static constexpr char kBinary[] = "bin\0\xff\x01 payload";
  return {"first batch", std::string(),
          std::string(kBinary, sizeof(kBinary) - 1)};
}

std::string MakeLogWith(const std::string& name,
                        const std::vector<std::string>& payloads,
                        uint64_t generation = 3) {
  std::string path = TempPath(name);
  auto log = DeltaLog::Create(path, generation);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  for (const std::string& p : payloads) {
    EXPECT_TRUE((*log)->Append(p).ok());
  }
  return path;
}

// ---- DeltaLog framing and recovery ------------------------------------

TEST(DeltaLog, CreateAppendReplayRoundTrip) {
  auto payloads = SamplePayloads();
  std::string path = MakeLogWith("roundtrip", payloads, /*generation=*/7);

  auto replay = DeltaLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->has_header);
  EXPECT_EQ(replay->generation, 7u);
  EXPECT_EQ(replay->truncated, 0u);
  ASSERT_EQ(replay->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(replay->records[i], payloads[i]) << "record " << i;
  }
  EXPECT_EQ(replay->valid_bytes, Slurp(path).size());
}

TEST(DeltaLog, EmptyFileIsCleanNoOp) {
  std::string path = TempPath("empty");
  Spit(path, "");
  auto replay = DeltaLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->has_header);
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->truncated, 0u);
}

TEST(DeltaLog, HeaderOnlyLogIsCleanNoOp) {
  std::string path = MakeLogWith("header_only", {});
  auto replay = DeltaLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->has_header);
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->truncated, 0u);
}

TEST(DeltaLog, TornHeaderIsCleanNoOp) {
  // A crash during Create can leave any prefix of the 20-byte header.
  std::string full = Slurp(MakeLogWith("torn_header_src", {}));
  for (size_t cut = 1; cut < DeltaLog::kHeaderBytes; ++cut) {
    std::string path = TempPath("torn_header");
    Spit(path, full.substr(0, cut));
    auto replay = DeltaLog::Replay(path);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut << ": "
                             << replay.status().ToString();
    EXPECT_FALSE(replay->has_header) << "cut=" << cut;
    EXPECT_TRUE(replay->records.empty()) << "cut=" << cut;
  }
}

TEST(DeltaLog, TornTailTruncatesAtEveryCutPoint) {
  auto payloads = SamplePayloads();
  std::string full = Slurp(MakeLogWith("torn_src", payloads));

  // Reconstruct the record boundaries to know what a cut must yield.
  std::vector<size_t> ends;  // file offset just past record i
  size_t off = DeltaLog::kHeaderBytes;
  for (const std::string& p : payloads) {
    off += DeltaLog::kRecordHeaderBytes + p.size();
    ends.push_back(off);
  }
  ASSERT_EQ(off, full.size());

  for (size_t cut = DeltaLog::kHeaderBytes; cut < full.size(); ++cut) {
    std::string path = TempPath("torn");
    Spit(path, full.substr(0, cut));
    auto replay = DeltaLog::Replay(path);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut << ": "
                             << replay.status().ToString();
    size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= cut) ++complete;
    EXPECT_EQ(replay->records.size(), complete) << "cut=" << cut;
    for (size_t i = 0; i < complete; ++i) {
      EXPECT_EQ(replay->records[i], payloads[i]) << "cut=" << cut;
    }
    // A cut exactly on a record boundary is a clean log; anything else
    // leaves exactly one torn tail record.
    size_t boundary =
        complete == 0 ? DeltaLog::kHeaderBytes : ends[complete - 1];
    EXPECT_EQ(replay->truncated, cut == boundary ? 0u : 1u) << "cut=" << cut;
  }
}

TEST(DeltaLog, BitFlipInLastRecordIsATornTail) {
  auto payloads = SamplePayloads();
  std::string path = MakeLogWith("flip_last", payloads);
  std::string bytes = Slurp(path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  Spit(path, bytes);

  // Indistinguishable from a torn final append: no later record proves
  // the flipped one was acknowledged, so recovery truncates it.
  auto replay = DeltaLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records.size(), payloads.size() - 1);
  EXPECT_EQ(replay->truncated, 1u);
}

TEST(DeltaLog, MidLogCorruptionIsDataLoss) {
  auto payloads = SamplePayloads();
  std::string path = MakeLogWith("flip_mid", payloads);
  std::string bytes = Slurp(path);
  // Flip one payload byte of the FIRST record; the later valid records
  // prove it was acknowledged.
  bytes[DeltaLog::kHeaderBytes + DeltaLog::kRecordHeaderBytes] ^= 0x01;
  Spit(path, bytes);

  auto replay = DeltaLog::Replay(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss)
      << replay.status().ToString();
}

TEST(DeltaLog, LengthFieldFlipIsCaughtByChecksum) {
  auto payloads = SamplePayloads();
  std::string path = MakeLogWith("flip_len", payloads);
  std::string bytes = Slurp(path);
  // The length field of record 0 (checksummed together with the
  // payload, so the flip cannot redirect the frame silently).
  bytes[DeltaLog::kHeaderBytes + 3] ^= 0x02;
  Spit(path, bytes);

  auto replay = DeltaLog::Replay(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
}

TEST(DeltaLog, BadMagicIsParseError) {
  std::string path = MakeLogWith("bad_magic", SamplePayloads());
  std::string bytes = Slurp(path);
  bytes[0] = 'X';
  Spit(path, bytes);
  auto replay = DeltaLog::Replay(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kParseError);
}

TEST(DeltaLog, UnsupportedVersionIsParseError) {
  std::string path = MakeLogWith("bad_version", {});
  std::string bytes = Slurp(path);
  bytes[11] = 9;  // version be32 at [8,12)
  Spit(path, bytes);
  auto replay = DeltaLog::Replay(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kParseError);
}

TEST(DeltaLog, OpenForAppendTruncatesTornTailAndContinues) {
  std::string path = MakeLogWith("reattach", {"one", "two"});
  // Crash mid-append: garbage after the last acknowledged record.
  Spit(path, Slurp(path) + "torn garbage");

  DeltaLog::ReplayResult survived;
  auto log = DeltaLog::OpenForAppend(path, &survived);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(survived.records.size(), 2u);
  EXPECT_EQ(survived.truncated, 1u);
  EXPECT_EQ((*log)->records_appended(), 2u);
  ASSERT_TRUE((*log)->Append("three").ok());

  auto replay = DeltaLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[2], "three");
  EXPECT_EQ(replay->truncated, 0u);
}

TEST(DeltaLog, FailedAppendPoisonsTheLog) {
  std::string path = TempPath("poison");
  auto log = DeltaLog::Create(path, 1);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE((*log)->Append("durable").ok());

  {
    fileops::ScriptedFaultInjector inject;
    inject.fail_at = 0;
    inject.has_kind_filter = true;
    inject.only_kind = fileops::OpKind::kFsync;
    inject.action.fail_errno = EIO;
    fileops::ScopedFaultInjector scoped(&inject);
    Status st = (*log)->Append("lost");
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(inject.fired);
  }
  // Injector gone, but the log stays poisoned: the file may hold a torn
  // tail only a rotation can clear.
  Status st = (*log)->Append("after");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);

  // The acknowledged prefix is untouched; the unacknowledged record is
  // at worst a torn tail recovery drops.
  auto replay = DeltaLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_GE(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0], "durable");
}

// ---- fileops shim under MmapStore's write path -------------------------

// Writes one valid store file at `path` and returns its bytes.
std::string SeedStoreFile(const std::string& path) {
  auto store = MmapStore::Create(path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->Put("k", "v1").ok());
  EXPECT_TRUE((*store)->Flush().ok());
  return Slurp(path);
}

// Flush through a scripted fault on `kind`; expects failure and that the
// previously installed file is untouched.
void ExpectFlushFaultKeepsOldFile(const std::string& name,
                                  fileops::OpKind kind,
                                  fileops::FaultAction action) {
  std::string path = TempPath(name);
  std::string before = SeedStoreFile(path);

  auto store = MmapStore::Create(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Put("k", "v2-much-longer-value").ok());
  {
    fileops::ScriptedFaultInjector inject;
    inject.fail_at = 0;
    inject.has_kind_filter = true;
    inject.only_kind = kind;
    inject.action = action;
    fileops::ScopedFaultInjector scoped(&inject);
    Status st = (*store)->Flush();
    ASSERT_FALSE(st.ok()) << "fault on " << fileops::OpKindName(kind);
    EXPECT_TRUE(inject.fired);
  }
  // The atomic-install discipline: any pre-rename failure leaves the old
  // file byte-identical, and the temp is cleaned up.
  EXPECT_EQ(Slurp(path), before);
  EXPECT_FALSE(Exists(path + ".tmp"));

  auto reopened = MmapStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto get = (*reopened)->Get("k");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(*get, "v1");
}

TEST(FileOpsFault, FlushWriteFailureKeepsOldFile) {
  ExpectFlushFaultKeepsOldFile("flush_write", fileops::OpKind::kWrite,
                               {/*fail_errno=*/ENOSPC});
}

TEST(FileOpsFault, FlushShortWriteKeepsOldFile) {
  fileops::FaultAction torn;
  torn.fail_errno = ENOSPC;
  torn.write_prefix = 10;  // a torn prefix reaches the temp file only
  ExpectFlushFaultKeepsOldFile("flush_torn", fileops::OpKind::kWrite, torn);
}

TEST(FileOpsFault, FlushFsyncFailureKeepsOldFile) {
  ExpectFlushFaultKeepsOldFile("flush_fsync", fileops::OpKind::kFsync,
                               {/*fail_errno=*/EIO});
}

TEST(FileOpsFault, FlushRenameFailureKeepsOldFile) {
  ExpectFlushFaultKeepsOldFile("flush_rename", fileops::OpKind::kRename,
                               {/*fail_errno=*/EACCES});
}

TEST(FileOpsFault, AppendEnospcKeepsAcknowledgedPrefix) {
  std::string path = TempPath("append_enospc");
  auto log = DeltaLog::Create(path, 1);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE((*log)->Append("acked").ok());

  {
    fileops::ScriptedFaultInjector inject;
    inject.fail_at = 0;
    inject.has_kind_filter = true;
    inject.only_kind = fileops::OpKind::kWrite;
    inject.action.fail_errno = ENOSPC;
    fileops::ScopedFaultInjector scoped(&inject);
    ASSERT_FALSE((*log)->Append("rejected").ok());
  }
  auto replay = DeltaLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0], "acked");
  EXPECT_EQ(replay->truncated, 0u);
}

// ---- FaultInjectingStore at the Store seam -----------------------------

TEST(FaultStore, ScriptedPutFailurePropagatesThroughSnapshotSave) {
  auto c = testing::MakeG2();
  KeySet keys = testing::MakeSigma2();
  auto plan = Matcher::Compile(c.g, keys, PlanOptions::For(
                                              Algorithm::kEmOptVc, 2));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto run = Matcher(Algorithm::kEmOptVc).processors(2).Run(*plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto base = MmapStore::Create(TempPath("fault_put"));
  ASSERT_TRUE(base.ok());

  // Dry run: count the Puts a save performs, then fail each one in turn.
  FaultInjectingStore counter(**base);
  ASSERT_TRUE(Snapshot::Save(counter, c.g, keys, *plan, *run,
                             Algorithm::kEmOptVc)
                  .ok());
  const int64_t total_puts = counter.puts();
  ASSERT_GT(total_puts, 0);

  for (int64_t n = 0; n < total_puts; n += std::max<int64_t>(1, total_puts / 7)) {
    auto victim = MmapStore::Create(TempPath("fault_put_victim"));
    ASSERT_TRUE(victim.ok());
    FaultInjectingStore faulty(**victim);
    FaultInjectingStore::Script script;
    script.fail_put_at = n;
    script.error = Status::IoError("no space left on device");
    faulty.script(script);
    Status st = Snapshot::Save(faulty, c.g, keys, *plan, *run,
                               Algorithm::kEmOptVc);
    EXPECT_FALSE(st.ok()) << "fail_put_at=" << n;
  }
}

TEST(FaultStore, FlushFailurePropagates) {
  auto base = MmapStore::Create(TempPath("fault_flush"));
  ASSERT_TRUE(base.ok());
  FaultInjectingStore faulty(**base);
  FaultInjectingStore::Script script;
  script.fail_flush_at = 0;
  faulty.script(script);
  ASSERT_TRUE(faulty.Put("k", "v").ok());
  EXPECT_FALSE(faulty.Flush().ok());
}

TEST(FaultStore, TamperedMetaRecordIsParseErrorNotCrash) {
  auto c = testing::MakeG2();
  KeySet keys = testing::MakeSigma2();
  auto plan = Matcher::Compile(c.g, keys, PlanOptions::For(
                                              Algorithm::kEmOptVc, 2));
  ASSERT_TRUE(plan.ok());
  auto run = Matcher(Algorithm::kEmOptVc).processors(2).Run(*plan);
  ASSERT_TRUE(run.ok());

  std::string path = TempPath("fault_tamper");
  auto store = MmapStore::Create(path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(Snapshot::Save(**store, c.g, keys, *plan, *run,
                             Algorithm::kEmOptVc)
                  .ok());
  ASSERT_TRUE((*store)->Flush().ok());

  auto reopened = MmapStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  for (size_t at : {size_t{0}, size_t{1}, size_t{5}, size_t{9}}) {
    FaultInjectingStore faulty(**reopened);
    FaultInjectingStore::Script script;
    script.corrupt_key = "M";  // SnapshotMeta record
    script.corrupt_at = at;
    script.corrupt_mask = 0xff;
    faulty.script(script);
    // A flip may land in a field where every byte is legal and decode to
    // a different-but-valid meta record; the invariant is "ParseError or
    // a valid parse, never a crash" (ASan enforces the latter).
    auto snap = Snapshot::Load(faulty);
    (void)snap;
  }
  // Truncating the meta record must also fail cleanly.
  FaultInjectingStore faulty(**reopened);
  FaultInjectingStore::Script script;
  script.corrupt_key = "M";
  script.truncate_to = 2;
  faulty.script(script);
  EXPECT_FALSE(Snapshot::Load(faulty).ok());
}

}  // namespace
}  // namespace gkeys
