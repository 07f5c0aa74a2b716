// Crash-point enumeration and recovery-state-machine tests: a
// save → ingest×k → save schedule is run against a DurableDir with an
// in-process "crash" injected at every faultable file operation in turn;
// after each crash the in-memory state is discarded and Matcher::Recover
// runs on whatever reached the filesystem. The invariant, checked at
// every point: the recovered pair set equals the state after some prefix
// of the batches, that prefix covers every ACKNOWLEDGED batch, and it is
// never a hybrid. Plus: graceful degradation (ENOSPC, time budgets) and
// the empty/header-only-log regression.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/matcher.h"
#include "fault_store.h"
#include "io/fast_triples.h"
#include "storage/delta_log.h"
#include "storage/durable_dir.h"
#include "storage/file_ops.h"
#include "storage/mmap_store.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace gkeys {
namespace {

using storage::DurableDir;
using storage::MmapStore;
using storage::RecoveredSession;
using storage::Snapshot;
namespace fileops = storage::fileops;

using PairVec = std::vector<std::pair<NodeId, NodeId>>;

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm> algos = {
      Algorithm::kNaiveChase, Algorithm::kEmMr,  Algorithm::kEmVf2Mr,
      Algorithm::kEmOptMr,    Algorithm::kEmVc,  Algorithm::kEmOptVc};
  return algos;
}

using testing::TempPath;

void RemoveTree(const std::string& dir) {
  // Test-only cleanup of a flat DurableDir (no subdirectories).
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

PairVec Sorted(const PairVec& pairs) {
  PairVec v = pairs;
  for (auto& p : v) {
    if (p.first > p.second) std::swap(p.first, p.second);
  }
  std::sort(v.begin(), v.end());
  return v;
}

// The company graph re-loaded from its text serialization so every base
// entity has an ent: token (exactly how the CLI sessions get theirs).
struct Base {
  LoadedGraph lg;
  KeySet keys;
};

Base MakeBase() {
  Base b;
  auto loaded =
      FastDeserializeGraphWithNames(SerializeGraph(testing::MakeG2().g));
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  b.lg = std::move(*loaded);
  b.keys = testing::MakeSigma2();
  return b;
}

// Four delta batches against the evolving session. Batch 1 references
// the entity batch 0 introduced by token — the replay path must carry
// new bindings forward — batch 2 removes a base triple, driving the
// retraction rematch, and batch 3 re-adds it: logged together, batches 2
// and 3 cannot share one group commit, so replay must split there.
std::vector<std::string> Batches() {
  return {
      "+ ent:company:6 name_of val:\"AT&T\"\n"
      "+ ent:company:0 parent_of ent:company:6\n",

      "+ ent:company:7 name_of val:\"AT&T\"\n"
      "+ ent:company:6 parent_of ent:company:7\n"
      "+ ent:company:3 parent_of ent:company:7\n",

      "- ent:company:3 parent_of ent:company:5\n"
      "+ ent:company:7 parent_of ent:company:5\n",

      "+ ent:company:3 parent_of ent:company:5\n",
  };
}

// Builds a live Snapshot session for `base` (saved through a throwaway
// store and loaded back, so it carries the entity-name table the way a
// recovered session would).
StatusOr<Snapshot> MakeSession(const Base& base, Algorithm algo,
                               const std::string& tag) {
  auto plan =
      Matcher::Compile(base.lg.graph, base.keys, PlanOptions::For(algo, 2));
  if (!plan.ok()) return plan.status();
  auto run = Matcher(algo).processors(2).Run(*plan);
  if (!run.ok()) return run.status();
  std::string path = TempPath("session_" + tag);
  auto store = MmapStore::Create(path);
  if (!store.ok()) return store.status();
  GKEYS_RETURN_IF_ERROR(Snapshot::Save(**store, base.lg.graph, base.keys,
                                       *plan, *run, algo,
                                       &base.lg.entities));
  GKEYS_RETURN_IF_ERROR((*store)->Flush());
  auto reopened = MmapStore::Open(path);
  if (!reopened.ok()) return reopened.status();
  return Snapshot::Load(**reopened);
}

// Fault-free oracle: the pair set after each prefix of `batches`.
// expected[k] = pairs once batches 0..k-1 are applied.
std::vector<PairVec> ExpectedPrefixes(const Base& base, Algorithm algo,
                                      const std::vector<std::string>& batches,
                                      const std::string& tag) {
  std::vector<PairVec> out;
  auto session = MakeSession(base, algo, "oracle_" + tag);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return out;
  auto names = session->entity_names();
  Matcher replayer(algo);
  replayer.processors(2);
  out.push_back(Sorted(session->result().pairs));
  for (const std::string& text : batches) {
    std::unordered_map<std::string, NodeId> fresh;
    auto delta = FastParseDelta(text, session->graph(), names, &fresh);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    if (!delta.ok()) break;
    IngestStats stats;
    Status res = CommitDelta(replayer, session->session(names), *delta, stats);
    EXPECT_TRUE(res.ok()) << res.ToString();
    if (!res.ok()) break;
    for (auto& [token, id] : fresh) names[token] = id;
    out.push_back(Sorted(session->result().pairs));
  }
  return out;
}

struct ScheduleOutcome {
  size_t saves_acked = 0;
  size_t appends_acked = 0;
};

// Runs a schedule against `dir` with `inject` installed for the duration
// of the durable operations. Steps: -1 = SaveSnapshot of the current
// in-memory state, i >= 0 = ingest batches[i] (apply in memory, then
// AppendDeltaText — the CLI's commit protocol). Durable-op failures are
// tolerated: they model the process dying mid-operation, and only
// acknowledged operations count toward `out`.
void RunScheduleChecked(const std::string& dir, const Base& base,
                        Algorithm algo,
                        const std::vector<std::string>& batches,
                        const std::vector<int>& steps,
                        fileops::ScriptedFaultInjector* inject,
                        ScheduleOutcome* out) {
  auto session = MakeSession(base, algo, "run");  // fault-free setup
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto names = session->entity_names();
  Matcher replayer(algo);
  replayer.processors(2);

  fileops::ScopedFaultInjector scoped(inject);
  auto ddir = DurableDir::Open(dir);
  if (!ddir.ok()) return;  // crashed before any durable state
  for (int step : steps) {
    if (step < 0) {
      Status st = ddir->SaveSnapshot(session->graph(), session->keys(),
                                     session->plan(), session->result(), algo,
                                     &names);
      if (st.ok()) ++out->saves_acked;
      continue;
    }
    const std::string& text = batches[static_cast<size_t>(step)];
    std::unordered_map<std::string, NodeId> fresh;
    auto delta = FastParseDelta(text, session->graph(), names, &fresh);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    IngestStats stats;  // in-memory, never faulted
    Status res = CommitDelta(replayer, session->session(names), *delta, stats);
    ASSERT_TRUE(res.ok()) << res.ToString();
    for (auto& [token, id] : fresh) names[token] = id;
    if (ddir->AppendDeltaText(text).ok()) ++out->appends_acked;
  }
}

// The central invariant: recovery lands on the state after some prefix
// of the batches; that prefix includes every acknowledged batch (nothing
// acknowledged is lost) and the pair set is byte-identical to that
// prefix state (never a hybrid of two states).
void CheckRecovery(const std::string& dir, Algorithm algo,
                   const ScheduleOutcome& out,
                   const std::vector<PairVec>& expected,
                   const std::string& ctx) {
  auto rec = Matcher(algo).processors(2).Recover(dir);
  if (!rec.ok()) {
    // Only legitimate when nothing was ever acknowledged: the crash hit
    // before the first snapshot install.
    EXPECT_EQ(rec.status().code(), StatusCode::kNotFound)
        << ctx << ": " << rec.status().ToString();
    EXPECT_EQ(out.saves_acked, 0u) << ctx << ": acknowledged save lost";
    EXPECT_EQ(out.appends_acked, 0u) << ctx << ": acknowledged batch lost";
    return;
  }
  PairVec got = Sorted(rec->snapshot.result().pairs);
  EXPECT_EQ(got.size(), rec->report.pairs) << ctx;
  bool is_prefix_state = false;
  bool covers_acked = false;
  for (size_t k = 0; k < expected.size(); ++k) {
    if (expected[k] != got) continue;
    is_prefix_state = true;
    if (k >= out.appends_acked) covers_acked = true;
  }
  EXPECT_TRUE(is_prefix_state)
      << ctx << ": recovered pair set matches NO prefix state (hybrid)";
  EXPECT_TRUE(covers_acked)
      << ctx << ": recovered state predates an acknowledged batch";
}

TEST(CrashPoints, EveryInjectionPointRecoversToAPrefix) {
  Base base = MakeBase();
  const Algorithm algo = Algorithm::kEmOptVc;
  auto batches = Batches();
  const std::vector<int> steps = {-1, 0, 1, -1, 2, 3};
  auto expected = ExpectedPrefixes(base, algo, batches, "enum");
  ASSERT_EQ(expected.size(), batches.size() + 1);

  // Dry run: count the schedule's injection points and sanity-check the
  // fault-free outcome against the full-prefix state.
  fileops::ScriptedFaultInjector dry;  // fail_at = -1: count only
  std::string dry_dir = TempPath("enum_dry");
  RemoveTree(dry_dir);
  ScheduleOutcome outcome;
  RunScheduleChecked(dry_dir, base, algo, batches, steps, &dry, &outcome);
  ASSERT_GT(dry.ops_seen, 0);
  EXPECT_EQ(outcome.saves_acked, 2u);
  EXPECT_EQ(outcome.appends_acked, 4u);
  CheckRecovery(dry_dir, algo, outcome, expected, "fault-free");
  {
    // Generation 2's log holds batches 2 and 3: the remove-then-re-add
    // pair, which replay must commit apart.
    auto rec = Matcher(algo).processors(2).Recover(dry_dir);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->report.batches_replayed, 2u);
    EXPECT_EQ(rec->report.commits, 2u);
  }

  // Kill the process (all file ops fail from that op on) at every point;
  // variant "torn" persists a 7-byte prefix of the write it dies on.
  for (int64_t p = 0; p < dry.ops_seen; ++p) {
    for (bool torn : {false, true}) {
      std::string ctx =
          "crash at op " + std::to_string(p) + (torn ? " torn" : "");
      std::string dir = TempPath("enum_pt");
      RemoveTree(dir);
      fileops::ScriptedFaultInjector inject;
      inject.fail_at = p;
      inject.crash_after = true;
      if (torn) inject.action.write_prefix = 7;
      ScheduleOutcome out;
      RunScheduleChecked(dir, base, algo, batches, steps, &inject, &out);
      EXPECT_TRUE(inject.fired) << ctx;
      CheckRecovery(dir, algo, out, expected, ctx);
    }
  }
}

TEST(CrashPoints, RandomSchedulesAllAlgorithms) {
  Base base = MakeBase();
  auto batches = Batches();
  std::mt19937 rng(20260808);
  for (Algorithm algo : AllAlgorithms()) {
    auto expected = ExpectedPrefixes(base, algo, batches, "rand");
    ASSERT_EQ(expected.size(), batches.size() + 1);
    for (int trial = 0; trial < 3; ++trial) {
      // Random schedule: always opens with a save (nothing is durable
      // before one), then batches in order with saves sprinkled in.
      std::vector<int> steps = {-1};
      for (int i = 0; i < static_cast<int>(batches.size()); ++i) {
        if (rng() % 3 == 0) steps.push_back(-1);
        steps.push_back(i);
      }
      std::string tag = "rand_t" + std::to_string(trial);

      fileops::ScriptedFaultInjector dry;
      std::string dry_dir = TempPath(tag + "_dry");
      RemoveTree(dry_dir);
      ScheduleOutcome dry_out;
      RunScheduleChecked(dry_dir, base, algo, batches, steps, &dry,
                         &dry_out);
      ASSERT_GT(dry.ops_seen, 0);
      CheckRecovery(dry_dir, algo, dry_out, expected, tag + " fault-free");

      std::string dir = TempPath(tag);
      RemoveTree(dir);
      fileops::ScriptedFaultInjector inject;
      inject.fail_at =
          static_cast<int64_t>(rng() % static_cast<uint64_t>(dry.ops_seen));
      inject.crash_after = true;
      ScheduleOutcome out;
      RunScheduleChecked(dir, base, algo, batches, steps, &inject, &out);
      CheckRecovery(dir, algo, out, expected,
                    tag + " crash at op " + std::to_string(inject.fail_at));
    }
  }
}

TEST(GracefulDegradation, EnospcSaveKeepsPreviousGenerationRecoverable) {
  Base base = MakeBase();
  const Algorithm algo = Algorithm::kEmOptVc;
  auto batches = Batches();
  auto expected = ExpectedPrefixes(base, algo, batches, "enospc");

  std::string dir = TempPath("enospc");
  RemoveTree(dir);
  auto session = MakeSession(base, algo, "enospc");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto names = session->entity_names();
  Matcher replayer(algo);
  replayer.processors(2);

  auto ddir = DurableDir::Open(dir);
  ASSERT_TRUE(ddir.ok()) << ddir.status().ToString();
  ASSERT_TRUE(ddir->SaveSnapshot(session->graph(), session->keys(),
                                 session->plan(), session->result(), algo,
                                 &names)
                  .ok());
  // Ingest batch 0 (apply + acknowledged append).
  std::unordered_map<std::string, NodeId> fresh;
  auto d0 = FastParseDelta(batches[0], session->graph(), names, &fresh);
  ASSERT_TRUE(d0.ok());
  IngestStats stats;
  ASSERT_TRUE(CommitDelta(replayer, session->session(names), *d0, stats).ok());
  for (auto& [token, id] : fresh) names[token] = id;
  ASSERT_TRUE(ddir->AppendDeltaText(batches[0]).ok());

  // The disk fills up during the next save.
  {
    fileops::ScriptedFaultInjector inject;
    inject.fail_at = 0;
    inject.has_kind_filter = true;
    inject.only_kind = fileops::OpKind::kWrite;
    inject.action.fail_errno = ENOSPC;
    fileops::ScopedFaultInjector scoped(&inject);
    Status st = ddir->SaveSnapshot(session->graph(), session->keys(),
                                   session->plan(), session->result(), algo,
                                   &names);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(inject.fired);
  }
  EXPECT_EQ(ddir->generation(), 1u);
  // The handle refuses further acknowledgements — the failed install may
  // have landed, so acking into the old log would be a silent loss.
  Status append = ddir->AppendDeltaText(batches[1]);
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.code(), StatusCode::kFailedPrecondition);

  // Recovery still lands exactly on the acknowledged state.
  ScheduleOutcome out;
  out.saves_acked = 1;
  out.appends_acked = 1;
  CheckRecovery(dir, algo, out, expected, "post-ENOSPC");

  // And a retried save (space back) restores full service.
  ASSERT_TRUE(ddir->SaveSnapshot(session->graph(), session->keys(),
                                 session->plan(), session->result(), algo,
                                 &names)
                  .ok());
  EXPECT_EQ(ddir->generation(), 2u);
  ASSERT_TRUE(ddir->AppendDeltaText(batches[1]).ok());
}

TEST(Recovery, EmptyHeaderOnlyAndMissingWalAreCleanNoOps) {
  Base base = MakeBase();
  const Algorithm algo = Algorithm::kEmMr;
  auto expected = ExpectedPrefixes(base, algo, Batches(), "noop");

  std::string dir = TempPath("noop");
  RemoveTree(dir);
  auto session = MakeSession(base, algo, "noop");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto names = session->entity_names();
  auto ddir = DurableDir::Open(dir);
  ASSERT_TRUE(ddir.ok());
  ASSERT_TRUE(ddir->SaveSnapshot(session->graph(), session->keys(),
                                 session->plan(), session->result(), algo,
                                 &names)
                  .ok());
  const std::string wal = ddir->WalPath(1);

  auto check_clean = [&](const std::string& ctx) {
    auto rec = Matcher(algo).processors(2).Recover(dir);
    ASSERT_TRUE(rec.ok()) << ctx << ": " << rec.status().ToString();
    EXPECT_EQ(rec->report.generation, 1u) << ctx;
    EXPECT_EQ(rec->report.batches_replayed, 0u) << ctx;
    EXPECT_EQ(rec->report.batches_truncated, 0u) << ctx;
    EXPECT_EQ(Sorted(rec->snapshot.result().pairs), expected[0]) << ctx;
  };
  check_clean("fresh header-only wal");

  // Truncate the log to zero bytes: the header never became durable.
  ASSERT_TRUE(fileops::Truncate(wal, 0).ok());
  check_clean("zero-byte wal");

  // Remove it entirely: a save that died before creating its log.
  ASSERT_EQ(std::remove(wal.c_str()), 0);
  check_clean("missing wal");
}

// A durable dir holding `base`'s compiled session as generation 1, with
// `texts` logged after it as text records (the CLI's ingest protocol,
// minus the in-memory apply: a log only needs acknowledged text).
void MakeLoggedDir(const std::string& dir, const Base& base, Algorithm algo,
                   const std::vector<std::string>& texts) {
  RemoveTree(dir);
  auto session = MakeSession(base, algo, "logged");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto ddir = DurableDir::Open(dir);
  ASSERT_TRUE(ddir.ok()) << ddir.status().ToString();
  ASSERT_TRUE(ddir->SaveSnapshot(session->graph(), session->keys(),
                                 session->plan(), session->result(), algo,
                                 &session->entity_names())
                  .ok());
  for (const std::string& text : texts) {
    ASSERT_TRUE(ddir->AppendDeltaText(text).ok());
  }
}

TEST(Recovery, GroupedReplayMatchesTheSerialChain) {
  Base base = MakeBase();
  const std::vector<std::string> batches = {
      // Adds, introducing ent:company:6.
      "+ ent:company:6 name_of val:\"AT&T\"\n"
      "+ ent:company:0 parent_of ent:company:6\n",
      "# a comment-only batch\n",
      // Uses the token batch 0 introduced.
      "+ ent:company:7 name_of val:\"AT&T\"\n"
      "+ ent:company:6 parent_of ent:company:7\n",
      // Removals of base triples.
      "- ent:company:3 parent_of ent:company:5\n"
      "- ent:company:1 parent_of ent:company:4\n",
      // Re-adds one of them: the replay splits its group here.
      "+ ent:company:3 parent_of ent:company:5\n",
      "+ ent:company:3 parent_of ent:company:7\n",
      "- ent:company:0 parent_of ent:company:2\n",
      "+ ent:company:8 name_of val:\"SBC\"\n"
      "+ ent:company:7 parent_of ent:company:8\n",
  };
  for (Algorithm algo : AllAlgorithms()) {
    SCOPED_TRACE("algorithm " + std::to_string(static_cast<int>(algo)));
    // The serial chain: one FastParseDelta + CommitDelta per batch.
    auto serial = MakeSession(base, algo, "grouped_serial");
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto names = serial->entity_names();
    Matcher replayer(algo);
    replayer.processors(2);
    for (const std::string& text : batches) {
      std::unordered_map<std::string, NodeId> fresh;
      auto delta = FastParseDelta(text, serial->graph(), names, &fresh);
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      IngestStats stats;
      ASSERT_TRUE(
          CommitDelta(replayer, serial->session(names), *delta, stats).ok())
          << text;
      for (auto& [token, id] : fresh) names[token] = id;
    }

    const std::string dir = TempPath("grouped");
    MakeLoggedDir(dir, base, algo, batches);
    auto rec = Matcher(algo).processors(2).Recover(dir);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->report.batches_replayed, batches.size());
    EXPECT_EQ(rec->report.commits, 2u);  // split once, at the re-add
    EXPECT_EQ(rec->snapshot.result().pairs, serial->result().pairs);
    EXPECT_EQ(SerializeGraph(rec->snapshot.graph()),
              SerializeGraph(serial->graph()));
    EXPECT_EQ(rec->entity_names, names);
  }
}

TEST(Recovery, FailingAcknowledgedBatchIsDataLossNamingIt) {
  Base base = MakeBase();
  const Algorithm algo = Algorithm::kEmOptVc;
  const std::string good0 = "+ ent:company:6 name_of val:\"AT&T\"\n";
  const std::string good1 = "+ ent:company:0 parent_of ent:company:6\n";
  const std::string malformed = "+ ent:company:1 broken\n";
  // Binds, but Graph::Apply finds no such triple to remove.
  const std::string missing = "- ent:company:0 parent_of ent:company:5\n";
  const struct {
    std::vector<std::string> log;
    size_t bad;
  } cases[] = {
      {{good0, good1, malformed, good1}, 2},
      {{malformed, good0}, 0},
      {{good0, missing, good1}, 1},
  };
  for (const auto& c : cases) {
    const std::string want =
        "acknowledged batch " + std::to_string(c.bad) + " is unrecoverable";
    SCOPED_TRACE(want);
    const std::string dir = TempPath("loss");
    MakeLoggedDir(dir, base, algo, c.log);
    auto rec = Matcher(algo).processors(2).Recover(dir);
    ASSERT_FALSE(rec.ok());
    EXPECT_EQ(rec.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(rec.status().message().find(want), std::string::npos)
        << rec.status().ToString();
  }
}

TEST(Recovery, NonTextRecordIsDataLossNamingIt) {
  Base base = MakeBase();
  const Algorithm algo = Algorithm::kEmOptVc;
  const std::string good =
      std::string(1, DurableDir::kTextDeltaTag) +
      "+ ent:company:6 name_of val:\"AT&T\"\n";
  const struct {
    std::string record;
    std::string why;
  } cases[] = {
      {"B\x01\x02 binary delta bytes", "unknown batch tag 'B'"},
      {"", "empty payload"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.why);
    const std::string dir = TempPath("nontext");
    MakeLoggedDir(dir, base, algo, {});
    {
      auto wal = storage::DeltaLog::OpenForAppend(dir + "/wal.000001.log",
                                                  nullptr);
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      ASSERT_TRUE((*wal)->Append(good).ok());
      ASSERT_TRUE((*wal)->Append(c.record).ok());
    }
    auto rec = Matcher(algo).processors(2).Recover(dir);
    ASSERT_FALSE(rec.ok());
    EXPECT_EQ(rec.status().code(), StatusCode::kDataLoss);
    const std::string msg = rec.status().message();
    EXPECT_NE(msg.find("acknowledged batch 1 is unrecoverable"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(c.why), std::string::npos) << msg;
  }
}

TEST(Recovery, CorruptOnlySnapshotIsDataLossCarryingItsLoadError) {
  Base base = MakeBase();
  const std::string dir = TempPath("truncated_snap");
  MakeLoggedDir(dir, base, Algorithm::kEmOptVc, {});
  const std::string snap = dir + "/snap.000001.gks";
  ASSERT_TRUE(fileops::Truncate(snap, 64).ok());

  auto rec = Matcher().processors(2).Recover(dir);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kDataLoss);
  // The reason the snapshot was skipped survives into the message.
  const std::string msg = rec.status().message();
  EXPECT_NE(msg.find("snap.000001.gks: ParseError"), std::string::npos)
      << msg;
}

// ---- Graceful degradation: time budgets --------------------------------

TEST(Deadline, TinyBudgetIsDeadlineExceededForEveryAlgorithm) {
  auto c = testing::MakeG2();
  KeySet keys = testing::MakeSigma2();
  for (Algorithm algo : AllAlgorithms()) {
    auto plan = Matcher::Compile(c.g, keys, PlanOptions::For(algo, 2));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto res =
        Matcher(algo).processors(2).deadline_seconds(1e-12).Run(*plan);
    ASSERT_FALSE(res.ok()) << "algorithm " << static_cast<int>(algo);
    EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded)
        << res.status().ToString();
  }
}

TEST(Deadline, GenerousBudgetChangesNothing) {
  auto c = testing::MakeG2();
  KeySet keys = testing::MakeSigma2();
  for (Algorithm algo : AllAlgorithms()) {
    auto plan = Matcher::Compile(c.g, keys, PlanOptions::For(algo, 2));
    ASSERT_TRUE(plan.ok());
    auto plain = Matcher(algo).processors(2).Run(*plan);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    auto budgeted =
        Matcher(algo).processors(2).deadline_seconds(3600).Run(*plan);
    ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
    EXPECT_EQ(Sorted(budgeted->pairs), Sorted(plain->pairs));
  }
}

TEST(Deadline, SinkKeepsPairsStreamedBeforeTheBudgetExpired) {
  // The budget is a cooperative between-rounds check, so everything the
  // sink saw before the deadline stays delivered — the caller degrades
  // to a partial-but-valid pair set, exactly like cancellation.
  class CollectingSink : public MatchSink {
   public:
    void OnPair(NodeId a, NodeId b) override { pairs.emplace_back(a, b); }
    PairVec pairs;
  };
  auto c = testing::MakeG2();
  KeySet keys = testing::MakeSigma2();
  auto plan =
      Matcher::Compile(c.g, keys, PlanOptions::For(Algorithm::kEmMr, 2));
  ASSERT_TRUE(plan.ok());
  auto full = Matcher(Algorithm::kEmMr).processors(2).Run(*plan);
  ASSERT_TRUE(full.ok());

  CollectingSink sink;
  auto res = Matcher(Algorithm::kEmMr)
                 .processors(2)
                 .deadline_seconds(1e-12)
                 .Run(*plan, sink);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
  // Whatever was streamed is a subset of the true answer, not garbage.
  PairVec streamed = Sorted(sink.pairs);
  PairVec truth = Sorted(full->pairs);
  for (const auto& p : streamed) {
    EXPECT_NE(std::find(truth.begin(), truth.end(), p), truth.end());
  }
}

// An EMOptVC session with one logged removal batch: replaying it runs a
// retraction rematch, so a budget can expire inside the replay.
std::string DirWithOneLoggedRemoval(const std::string& tag) {
  const std::string dir = TempPath(tag);
  MakeLoggedDir(dir, MakeBase(), Algorithm::kEmOptVc,
                {"- ent:company:3 parent_of ent:company:5\n"});
  return dir;
}

TEST(Deadline, ExpiredBudgetDuringReplayIsDeadlineExceededNotDataLoss) {
  // The log is intact, so nothing was lost: the caller learns its budget
  // ran out at which batch, and a later Recover with time succeeds.
  const std::string dir = DirWithOneLoggedRemoval("deadline_replay");
  auto rec = Matcher(Algorithm::kEmOptVc)
                 .processors(1)
                 .deadline_seconds(1e-12)
                 .Recover(dir);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kDeadlineExceeded)
      << rec.status().ToString();
  EXPECT_NE(rec.status().message().find("acknowledged batch 0"),
            std::string::npos)
      << rec.status().ToString();
  auto again = Matcher(Algorithm::kEmOptVc).processors(1).Recover(dir);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->report.batches_replayed, 1u);
}

TEST(Deadline, ReplayUnderTheSnapshotsAlgorithmKeepsTheCallersBudget) {
  // Recover switches to the snapshot's algorithm (EMOptVC here) for the
  // replay; the caller's deadline carries over, as its processors do.
  const std::string dir = DirWithOneLoggedRemoval("deadline_switch");
  auto rec = Matcher(Algorithm::kEmOptMr)
                 .processors(1)
                 .deadline_seconds(1e-12)
                 .Recover(dir);
  ASSERT_FALSE(rec.ok()) << "the budget was dropped by the switch";
  EXPECT_EQ(rec.status().code(), StatusCode::kDeadlineExceeded)
      << rec.status().ToString();
}

TEST(Deadline, NegativeBudgetIsInvalidArgument) {
  auto c = testing::MakeG2();
  KeySet keys = testing::MakeSigma2();
  auto plan = Matcher::Compile(
      c.g, keys, PlanOptions::For(Algorithm::kNaiveChase, 2));
  ASSERT_TRUE(plan.ok());
  auto res = Matcher(Algorithm::kNaiveChase)
                 .processors(2)
                 .deadline_seconds(-1)
                 .Run(*plan);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gkeys
