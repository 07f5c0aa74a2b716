// End-to-end regression tests for the `gkeys` CLI and the
// `gkeys_workload` runner, driving the real binaries (paths injected by
// CMake as GKEYS_CLI_BINARY and GKEYS_WORKLOAD_BINARY) through popen.
// Covers the durable-session commands — a session saved by one process
// must recover and ingest correctly in another, and a corrupt snapshot
// must fail with one line — and the empty-delta no-op short-circuit on
// both the match and ingest paths.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#if !defined(GKEYS_CLI_BINARY) || !defined(GKEYS_WORKLOAD_BINARY)
#error "cli_test needs GKEYS_CLI_BINARY, GKEYS_WORKLOAD_BINARY (CMakeLists.txt)"
#endif

namespace {

using gkeys::testing::TempPath;

struct RunOutput {
  int exit_code;
  std::string text;  // stdout + stderr, interleaved
};

/// Runs `binary`; its stderr goes to `stderr_to` (a path, or "&1" to
/// interleave it with stdout).
RunOutput RunBinary(const char* binary, const std::string& args,
                    const std::string& stderr_to) {
  std::string cmd = std::string(binary) + " " + args + " 2>" + stderr_to;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunOutput out{-1, {}};
  if (!pipe) return out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.text.append(buf, n);
  }
  int status = pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

/// Runs the gkeys CLI (see RunBinary).
RunOutput RunCli(const std::string& args,
                 const std::string& stderr_to = "&1") {
  return RunBinary(GKEYS_CLI_BINARY, args, stderr_to);
}

std::string TempFile(const std::string& name, const std::string& content) {
  std::string path = TempPath(name);
  std::ofstream out(path, std::ios::trunc);
  out << content;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

/// Extracts the last `pairs=N` figure printed by a command.
int LastPairs(const std::string& text) {
  size_t pos = text.rfind("pairs=");
  if (pos == std::string::npos) return -1;
  return std::atoi(text.c_str() + pos + 6);
}

// The paper's Fig. 2 company fragment (G2) with Σ2 = {Q4, Q5}: matching
// yields 2 pairs; the delta adds c6 (named "AT&T", children of c2 and
// c3), which creates 2 more.
constexpr char kCompanyTriples[] =
    "ent:company:c0 name_of val:\"AT&T\"\n"
    "ent:company:c1 name_of val:\"AT&T\"\n"
    "ent:company:c2 name_of val:\"AT&T\"\n"
    "ent:company:c4 name_of val:\"AT&T\"\n"
    "ent:company:c5 name_of val:\"AT&T\"\n"
    "ent:company:c3 name_of val:\"SBC\"\n"
    "ent:company:c0 parent_of ent:company:c1\n"
    "ent:company:c0 parent_of ent:company:c2\n"
    "ent:company:c0 parent_of ent:company:c3\n"
    "ent:company:c1 parent_of ent:company:c4\n"
    "ent:company:c2 parent_of ent:company:c5\n"
    "ent:company:c3 parent_of ent:company:c4\n"
    "ent:company:c3 parent_of ent:company:c5\n";

constexpr char kCompanyKeys[] =
    "key Q4 for company {\n"
    "  x -[name_of]-> n*\n"
    "  _p:company -[name_of]-> n*\n"
    "  _p -[parent_of]-> x\n"
    "  y:company -[parent_of]-> x\n"
    "}\n"
    "key Q5 for company {\n"
    "  x -[name_of]-> n*\n"
    "  _p:company -[name_of]-> n*\n"
    "  _p -[parent_of]-> x\n"
    "  _p -[parent_of]-> y:company\n"
    "}\n";

constexpr char kCompanyDelta[] =
    "+ ent:company:c6 name_of val:\"AT&T\"\n"
    "+ ent:company:c2 parent_of ent:company:c6\n"
    "+ ent:company:c3 parent_of ent:company:c6\n";

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = TempFile("g.triples", kCompanyTriples);
    keys_ = TempFile("keys.dsl", kCompanyKeys);
    delta_ = TempFile("delta.triples", kCompanyDelta);
    empty_ = TempFile("empty.triples", "# nothing here\n\n");
  }

  std::string graph_, keys_, delta_, empty_;
};

TEST_F(CliTest, MatchFindsPaperPairs) {
  RunOutput out = RunCli("match " + graph_ + " " + keys_);
  EXPECT_EQ(out.exit_code, 0) << out.text;
  EXPECT_EQ(LastPairs(out.text), 2) << out.text;
}

TEST_F(CliTest, MatchWithDeltaRematches) {
  RunOutput out = RunCli("match " + graph_ + " " + keys_ + " --delta=" + delta_);
  EXPECT_EQ(out.exit_code, 0) << out.text;
  EXPECT_EQ(LastPairs(out.text), 4) << out.text;
}

TEST_F(CliTest, MatchWithEmptyDeltaIsNoOp) {
  RunOutput out = RunCli("match " + graph_ + " " + keys_ + " --delta=" + empty_);
  EXPECT_EQ(out.exit_code, 0) << out.text;
  EXPECT_NE(out.text.find("is empty: no-op"), std::string::npos) << out.text;
  EXPECT_EQ(LastPairs(out.text), 2) << out.text;
}

/// Runs the CLI with stdout and stderr kept apart.
struct SplitOutput {
  int exit_code;
  std::string out;
  std::vector<std::string> err;  // lines
};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

SplitOutput RunCliSplit(const std::string& args) {
  const std::string err_path = TempPath("stderr");
  RunOutput run = RunCli(args, err_path);
  std::ifstream err(err_path);
  return {run.exit_code, run.text,
          Lines(std::string(std::istreambuf_iterator<char>(err), {}))};
}

/// The output lines that name a pair ("a == b"), not comments, sorted.
std::vector<std::string> PairLines(const std::string& text) {
  std::vector<std::string> pairs;
  for (const std::string& line : Lines(text)) {
    if (!line.starts_with("#") && line.find(" == ") != std::string::npos) {
      pairs.push_back(line);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST_F(CliTest, SaveWithoutDirIsUsageError) {
  std::string snap = TempPath("snap.gks");
  RunOutput save = RunCli("save " + graph_ + " " + keys_ + " " + snap);
  EXPECT_EQ(save.exit_code, 2) << save.text;
  EXPECT_NE(save.text.find("usage"), std::string::npos) << save.text;
}

// The paper's Fig. 2 music fragment (G1) with Σ1 = {Q1, Q2, Q3}: Q2
// identifies the two 1996 albums in round 1, and the recursive Q3 then
// identifies their artists in round 2, premised on the album pair.
constexpr char kMusicTriples[] =
    "ent:artist:a1 name_of val:\"The Beatles\"\n"
    "ent:artist:a2 name_of val:\"The Beatles\"\n"
    "ent:artist:a3 name_of val:\"John Farnham\"\n"
    "ent:album:b1 name_of val:\"Anthology 2\"\n"
    "ent:album:b2 name_of val:\"Anthology 2\"\n"
    "ent:album:b3 name_of val:\"Anthology 2\"\n"
    "ent:album:b1 release_year val:\"1996\"\n"
    "ent:album:b2 release_year val:\"1996\"\n"
    "ent:album:b3 release_year val:\"1997\"\n"
    "ent:album:b1 recorded_by ent:artist:a1\n"
    "ent:album:b2 recorded_by ent:artist:a2\n"
    "ent:album:b3 recorded_by ent:artist:a3\n";

constexpr char kMusicKeys[] =
    "key Q1 for album {\n"
    "  x -[name_of]-> n*\n"
    "  x -[recorded_by]-> y:artist\n"
    "}\n"
    "key Q2 for album {\n"
    "  x -[name_of]-> n*\n"
    "  x -[release_year]-> yr*\n"
    "}\n"
    "key Q3 for artist {\n"
    "  x -[name_of]-> n*\n"
    "  y:album -[recorded_by]-> x\n"
    "}\n";

// Σ1 on three copies of one album by three same-named artists: the
// albums match in round 1, the artists only once their albums did, in
// classes of three each (6 pairs).
constexpr char kMusicTrioTriples[] =
    "ent:artist:a1 name_of val:\"The Beatles\"\n"
    "ent:artist:a2 name_of val:\"The Beatles\"\n"
    "ent:artist:a3 name_of val:\"The Beatles\"\n"
    "ent:artist:a4 name_of val:\"John Farnham\"\n"
    "ent:album:b1 name_of val:\"Anthology 2\"\n"
    "ent:album:b2 name_of val:\"Anthology 2\"\n"
    "ent:album:b3 name_of val:\"Anthology 2\"\n"
    "ent:album:b4 name_of val:\"Anthology 2\"\n"
    "ent:album:b1 release_year val:\"1996\"\n"
    "ent:album:b2 release_year val:\"1996\"\n"
    "ent:album:b3 release_year val:\"1996\"\n"
    "ent:album:b4 release_year val:\"1997\"\n"
    "ent:album:b1 recorded_by ent:artist:a1\n"
    "ent:album:b2 recorded_by ent:artist:a2\n"
    "ent:album:b3 recorded_by ent:artist:a3\n"
    "ent:album:b4 recorded_by ent:artist:a4\n";

TEST_F(CliTest, MatchStreamPrintsEveryPairOnceWithMonotoneProgress) {
  const std::string graph = TempFile("music_trio.triples", kMusicTrioTriples);
  const std::string keys = TempFile("music.dsl", kMusicKeys);
  for (const char* algo : {"NaiveChase", "EMMR", "EMVF2MR", "EMOptMR", "EMVC",
                           "EMOptVC"}) {
    SCOPED_TRACE(algo);
    const std::string args = "match " + graph + " " + keys +
                             " --algorithm=" + algo + " --processors=2";
    SplitOutput plain = RunCliSplit(args);
    ASSERT_EQ(plain.exit_code, 0);
    const std::vector<std::string> expected = PairLines(plain.out);
    ASSERT_EQ(expected.size(), 6u) << plain.out;

    SplitOutput streamed = RunCliSplit(args + " --stream");
    ASSERT_EQ(streamed.exit_code, 0);
    const std::vector<std::string> pairs = PairLines(streamed.out);
    EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end())
        << "a pair line printed twice";
    EXPECT_EQ(pairs, expected);
    EXPECT_EQ(LastPairs(streamed.out), 6) << streamed.out;

    size_t last = 0, rounds = 0;
    for (const std::string& line : streamed.err) {
      size_t round = 0, confirmed = 0;
      ASSERT_EQ(std::sscanf(line.c_str(), "# round %zu: %zu pair(s) confirmed",
                            &round, &confirmed),
                2)
          << line;
      EXPECT_GE(confirmed, last) << line;
      last = confirmed;
      ++rounds;
    }
    EXPECT_GT(rounds, 0u);
    EXPECT_EQ(last, 6u);
  }
}

TEST_F(CliTest, MatchProvenancePrintsTheChaseSteps) {
  std::string graph = TempFile("music.triples", kMusicTriples);
  std::string keys = TempFile("music.dsl", kMusicKeys);
  RunOutput out = RunCli("match " + graph + " " + keys + " --provenance");
  EXPECT_EQ(out.exit_code, 0) << out.text;
  EXPECT_EQ(out.text,
            "# 2 identified pairs, 2 chase steps\n"
            "album#5 == album#7  by Q2  [round 1]\n"
            "artist#0 == artist#2  by Q3  [round 2]  because album#5 == "
            "album#7\n");
}

TEST_F(CliTest, CheckPrintsTheViolations) {
  std::string graph = TempFile("music.triples", kMusicTriples);
  std::string keys = TempFile("music.dsl", kMusicKeys);
  RunOutput out = RunCli("check " + graph + " " + keys);
  EXPECT_EQ(out.exit_code, 3) << out.text;
  // Only Q2 fires under node identity; Q3's artist pair needs the album
  // pair first, so it is no violation of its own.
  EXPECT_EQ(out.text, "G |= Σ: no\nQ2: album#5 == album#7\n");
}

TEST_F(CliTest, CheckSatisfiedInputPrintsYes) {
  // Without Q2 nothing fires: Q1 and Q3 each need the other's pair.
  std::string graph = TempFile("music.triples", kMusicTriples);
  std::string keys = TempFile(
      "music_q1q3.dsl",
      "key Q1 for album {\n"
      "  x -[name_of]-> n*\n"
      "  x -[recorded_by]-> y:artist\n"
      "}\n"
      "key Q3 for artist {\n"
      "  x -[name_of]-> n*\n"
      "  y:album -[recorded_by]-> x\n"
      "}\n");
  RunOutput out = RunCli("check " + graph + " " + keys);
  EXPECT_EQ(out.exit_code, 0) << out.text;
  EXPECT_EQ(out.text, "G |= Σ: yes\n");
}

TEST_F(CliTest, CheckCutsTheViolationListAtTen) {
  // Twelve identical albums: 66 violating pairs, ten of them printed.
  std::string triples;
  for (int i = 0; i < 12; ++i) {
    const std::string album = "ent:album:b" + std::to_string(i);
    triples += album + " name_of val:\"Anthology 2\"\n";
    triples += album + " release_year val:\"1996\"\n";
  }
  std::string graph = TempFile("albums.triples", triples);
  std::string keys = TempFile("music.dsl", kMusicKeys);
  RunOutput out = RunCli("check " + graph + " " + keys);
  EXPECT_EQ(out.exit_code, 3) << out.text;
  // The verdict, ten violations and the marker.
  EXPECT_EQ(std::count(out.text.begin(), out.text.end(), '\n'), 12)
      << out.text;
  const std::string cut = "... (first 10 shown)\n";
  ASSERT_GE(out.text.size(), cut.size()) << out.text;
  EXPECT_EQ(out.text.substr(out.text.size() - cut.size()), cut) << out.text;
}

TEST_F(CliTest, CheckMalformedGraphNamesTheLine) {
  std::string bad = TempFile("bad.triples", "ent:company:c0 name_of\n");
  RunOutput out = RunCli("check " + bad + " " + keys_);
  EXPECT_EQ(out.exit_code, 1) << out.text;
  EXPECT_NE(out.text.find("line 1"), std::string::npos) << out.text;
}

TEST_F(CliTest, UnknownCommandPrintsUsage) {
  RunOutput out = RunCli("frobnicate");
  EXPECT_NE(out.exit_code, 0);
  EXPECT_NE(out.text.find("usage"), std::string::npos) << out.text;
}

// ---- Durable-directory flow: save --dir / ingest / recover -------------

std::string SlurpBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void SpitBinary(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string FreshDir(const std::string& name) {
  std::string dir = TempPath(name);
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return dir;
}

TEST_F(CliTest, SaveRecoverRoundTripInSeparateProcesses) {
  std::string dir = FreshDir("ddir_roundtrip");
  RunOutput save = RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir);
  EXPECT_EQ(save.exit_code, 0) << save.text;
  EXPECT_EQ(LastPairs(save.text), 2) << save.text;

  RunOutput recover = RunCli("recover " + dir);
  EXPECT_EQ(recover.exit_code, 0) << recover.text;
  EXPECT_EQ(LastPairs(recover.text), 2) << recover.text;
}

TEST_F(CliTest, IngestMatchesInProcessRematch) {
  std::string dir = FreshDir("ddir_rematch");
  RunOutput save = RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir);
  ASSERT_EQ(save.exit_code, 0) << save.text;

  RunOutput ingest = RunCli("ingest " + dir + " " + delta_);
  EXPECT_EQ(ingest.exit_code, 0) << ingest.text;
  // Same pair count as `match --delta` computes fully in-process.
  EXPECT_EQ(LastPairs(ingest.text), 4) << ingest.text;
  EXPECT_NE(ingest.text.find("+3 -0"), std::string::npos) << ingest.text;
}

TEST_F(CliTest, DurableSaveIngestRecoverFlow) {
  std::string dir = FreshDir("ddir_flow");
  RunOutput save = RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir);
  ASSERT_EQ(save.exit_code, 0) << save.text;
  EXPECT_NE(save.text.find("generation=1"), std::string::npos) << save.text;
  EXPECT_EQ(LastPairs(save.text), 2) << save.text;

  RunOutput ingest = RunCli("ingest " + dir + " " + delta_);
  ASSERT_EQ(ingest.exit_code, 0) << ingest.text;
  EXPECT_EQ(LastPairs(ingest.text), 4) << ingest.text;
  EXPECT_NE(ingest.text.find("wal_records=1"), std::string::npos)
      << ingest.text;

  // A separate process recovers to exactly the acknowledged state.
  RunOutput recover = RunCli("recover " + dir);
  ASSERT_EQ(recover.exit_code, 0) << recover.text;
  EXPECT_NE(recover.text.find("generation=1"), std::string::npos)
      << recover.text;
  EXPECT_NE(recover.text.find("batches_replayed=1"), std::string::npos)
      << recover.text;
  EXPECT_NE(recover.text.find("batches_truncated=0"), std::string::npos)
      << recover.text;
  EXPECT_EQ(LastPairs(recover.text), 4) << recover.text;
}

TEST_F(CliTest, IngestEmptyDeltaIsNoOp) {
  std::string dir = FreshDir("ddir_empty");
  RunOutput save = RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir);
  ASSERT_EQ(save.exit_code, 0) << save.text;
  RunOutput ingest = RunCli("ingest " + dir + " " + empty_);
  EXPECT_EQ(ingest.exit_code, 0) << ingest.text;
  EXPECT_NE(ingest.text.find("no-op"), std::string::npos) << ingest.text;

  RunOutput recover = RunCli("recover " + dir + " --quiet");
  EXPECT_EQ(recover.exit_code, 0) << recover.text;
  EXPECT_NE(recover.text.find("batches_replayed=0"), std::string::npos)
      << recover.text;
}

// ---- Stdin ingest: '---'-separated batches, hostile inputs -------------

TEST_F(CliTest, PipelineStdinStreamsBatches) {
  std::string dir = FreshDir("ddir_pipe");
  ASSERT_EQ(RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir).exit_code,
            0);
  std::string input = TempFile(
      "pipe_two.triples",
      std::string(kCompanyDelta) + "---\n" +
          "+ ent:company:c7 name_of val:\"SBC\"\n"
          "+ ent:company:c0 parent_of ent:company:c7\n");
  RunOutput out = RunCli("ingest " + dir + " - < " + input);
  ASSERT_EQ(out.exit_code, 0) << out.text;
  EXPECT_NE(out.text.find("ingested 2 batches"), std::string::npos)
      << out.text;
  EXPECT_NE(out.text.find("wal_records=2"), std::string::npos) << out.text;

  RunOutput recover = RunCli("recover " + dir + " --quiet");
  ASSERT_EQ(recover.exit_code, 0) << recover.text;
  EXPECT_NE(recover.text.find("batches_replayed=2"), std::string::npos)
      << recover.text;
  // Both logged batches replay as one group commit.
  EXPECT_NE(recover.text.find("commits=1"), std::string::npos)
      << recover.text;
}

TEST_F(CliTest, PipelineEmptyBatchBetweenSeparatorsIsNoOpCommit) {
  std::string dir = FreshDir("ddir_pipe_mid");
  ASSERT_EQ(RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir).exit_code,
            0);
  // Two consecutive separators: the middle batch is empty. It must flow
  // through as a no-op commit — counted, not WAL-appended, not an error.
  std::string input = TempFile(
      "pipe_mid.triples",
      std::string(kCompanyDelta) + "---\n" + "---\n" +
          "+ ent:company:c7 name_of val:\"SBC\"\n");
  RunOutput out = RunCli("ingest " + dir + " - < " + input);
  ASSERT_EQ(out.exit_code, 0) << out.text;
  EXPECT_NE(out.text.find("ingested 3 batches"), std::string::npos)
      << out.text;
  EXPECT_NE(out.text.find("1 empty"), std::string::npos) << out.text;
  EXPECT_NE(out.text.find("wal_records=2"), std::string::npos) << out.text;

  RunOutput recover = RunCli("recover " + dir + " --quiet");
  ASSERT_EQ(recover.exit_code, 0) << recover.text;
  EXPECT_NE(recover.text.find("batches_replayed=2"), std::string::npos)
      << recover.text;
  // Both logged batches replay as one group commit.
  EXPECT_NE(recover.text.find("commits=1"), std::string::npos)
      << recover.text;
  EXPECT_EQ(LastPairs(recover.text), 4) << recover.text;
}

TEST_F(CliTest, PipelineTrailingSeparatorIsNoOpCommit) {
  std::string dir = FreshDir("ddir_pipe_trail");
  ASSERT_EQ(RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir).exit_code,
            0);
  // A trailing '---' means "an empty batch follows": it must not be
  // silently dropped, and must not create a WAL record either.
  std::string input =
      TempFile("pipe_trail.triples", std::string(kCompanyDelta) + "---\n");
  RunOutput out = RunCli("ingest " + dir + " - < " + input);
  ASSERT_EQ(out.exit_code, 0) << out.text;
  EXPECT_NE(out.text.find("ingested 2 batches"), std::string::npos)
      << out.text;
  EXPECT_NE(out.text.find("1 empty"), std::string::npos) << out.text;
  EXPECT_NE(out.text.find("wal_records=1"), std::string::npos) << out.text;
  EXPECT_EQ(LastPairs(out.text), 4) << out.text;
}

TEST_F(CliTest, PipelineCommentOnlyBatchIsNoOpCommit) {
  std::string dir = FreshDir("ddir_pipe_comment");
  ASSERT_EQ(RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir).exit_code,
            0);
  std::string input = TempFile(
      "pipe_comment.triples",
      std::string(kCompanyDelta) + "---\n" + "# just a comment\n\n");
  RunOutput out = RunCli("ingest " + dir + " - < " + input);
  ASSERT_EQ(out.exit_code, 0) << out.text;
  EXPECT_NE(out.text.find("ingested 2 batches"), std::string::npos)
      << out.text;
  EXPECT_NE(out.text.find("1 empty"), std::string::npos) << out.text;
  EXPECT_NE(out.text.find("wal_records=1"), std::string::npos) << out.text;
}

TEST_F(CliTest, PipelineOnlySeparatorInputIsAllNoOps) {
  std::string dir = FreshDir("ddir_pipe_onlysep");
  ASSERT_EQ(RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir).exit_code,
            0);
  // "---" alone delimits two empty batches; the run commits nothing and
  // leaves the WAL untouched.
  std::string input = TempFile("pipe_onlysep.triples", "---\n");
  RunOutput out = RunCli("ingest " + dir + " - < " + input);
  ASSERT_EQ(out.exit_code, 0) << out.text;
  EXPECT_NE(out.text.find("ingested 2 batches"), std::string::npos)
      << out.text;
  EXPECT_NE(out.text.find("2 empty"), std::string::npos) << out.text;
  EXPECT_NE(out.text.find("wal_records=0"), std::string::npos) << out.text;

  RunOutput recover = RunCli("recover " + dir + " --quiet");
  ASSERT_EQ(recover.exit_code, 0) << recover.text;
  EXPECT_NE(recover.text.find("batches_replayed=0"), std::string::npos)
      << recover.text;
  EXPECT_EQ(LastPairs(recover.text), 2) << recover.text;
}

TEST_F(CliTest, RecoverTruncatesTornWalTail) {
  std::string dir = FreshDir("ddir_torn");
  RunOutput save = RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir);
  ASSERT_EQ(save.exit_code, 0) << save.text;
  RunOutput ingest = RunCli("ingest " + dir + " " + delta_);
  ASSERT_EQ(ingest.exit_code, 0) << ingest.text;

  // A crash mid-append leaves garbage after the acknowledged record.
  std::string wal = dir + "/wal.000001.log";
  SpitBinary(wal, SlurpBinary(wal) + "crash mid-append");

  RunOutput recover = RunCli("recover " + dir + " --quiet");
  ASSERT_EQ(recover.exit_code, 0) << recover.text;
  EXPECT_NE(recover.text.find("batches_replayed=1"), std::string::npos)
      << recover.text;
  EXPECT_NE(recover.text.find("batches_truncated=1"), std::string::npos)
      << recover.text;
  EXPECT_EQ(LastPairs(recover.text), 4) << recover.text;
}

TEST_F(CliTest, RecoverCorruptAcknowledgedBatchIsDataLoss) {
  std::string dir = FreshDir("ddir_loss");
  RunOutput save = RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir);
  ASSERT_EQ(save.exit_code, 0) << save.text;
  ASSERT_EQ(RunCli("ingest " + dir + " " + delta_).exit_code, 0);
  std::string delta2 = TempFile(
      "delta2.triples",
      "+ ent:company:c7 name_of val:\"SBC\"\n"
      "+ ent:company:c0 parent_of ent:company:c7\n");
  ASSERT_EQ(RunCli("ingest " + dir + " " + delta2).exit_code, 0);

  // Flip a payload byte of the FIRST record; the second record proves it
  // was acknowledged, so this is unrecoverable — exit nonzero, one line.
  std::string wal = dir + "/wal.000001.log";
  std::string bytes = SlurpBinary(wal);
  ASSERT_GT(bytes.size(), 40u);
  bytes[33] = static_cast<char>(bytes[33] ^ 0x01);
  SpitBinary(wal, bytes);

  RunOutput recover = RunCli("recover " + dir);
  EXPECT_NE(recover.exit_code, 0);
  EXPECT_NE(recover.text.find("DataLoss"), std::string::npos)
      << recover.text;
}

TEST_F(CliTest, RecoverMissingDirFailsCleanly) {
  RunOutput recover = RunCli("recover " + FreshDir("ddir_nothere"));
  EXPECT_NE(recover.exit_code, 0);
  EXPECT_NE(recover.text.find("NotFound"), std::string::npos)
      << recover.text;
}

// ---- --processors is one integer in [1, 256] on every command --------

TEST_F(CliTest, ProcessorsOutsideOneTo256IsAUsageError) {
  std::string dir = FreshDir("ddir_procs");
  ASSERT_EQ(RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir).exit_code,
            0);
  const std::string commands[] = {
      "match " + graph_ + " " + keys_,
      "save " + graph_ + " " + keys_ + " --dir=" + dir,
      "ingest " + dir + " " + delta_,
      "recover " + dir,
  };
  for (const char* p : {"0", "-3", "abc", "4x", "", "257", "20000"}) {
    for (const std::string& cmd : commands) {
      SCOPED_TRACE(cmd + " --processors=" + p);
      RunOutput out = RunCli(cmd + " --processors=" + p);
      EXPECT_EQ(out.exit_code, 2) << out.text;
      // One diagnostic line naming the flag, and no pairs.
      EXPECT_EQ(std::count(out.text.begin(), out.text.end(), '\n'), 1)
          << out.text;
      EXPECT_NE(out.text.find("--processors"), std::string::npos) << out.text;
      EXPECT_EQ(out.text.find("=="), std::string::npos) << out.text;
    }
  }
  // Nothing above touched the session: no batch was logged.
  RunOutput recover = RunCli("recover " + dir + " --quiet --processors=256");
  EXPECT_EQ(recover.exit_code, 0) << recover.text;
  EXPECT_NE(recover.text.find("batches_replayed=0"), std::string::npos)
      << recover.text;
  RunOutput at_cap = RunCli("match " + graph_ + " " + keys_ +
                            " --algorithm=EMMR --processors=256");
  EXPECT_EQ(at_cap.exit_code, 0) << at_cap.text;
  EXPECT_EQ(LastPairs(at_cap.text), 2) << at_cap.text;
}

// ---- Every numeric flag is checked the way --processors is ---------------

/// Expects exit 2 with exactly one line: the InvalidArgument for `flag`.
void ExpectFlagError(const RunOutput& out, const std::string& flag) {
  EXPECT_EQ(out.exit_code, 2) << out.text;
  EXPECT_EQ(std::count(out.text.begin(), out.text.end(), '\n'), 1)
      << out.text;
  EXPECT_EQ(out.text.rfind("InvalidArgument: " + flag + " must be ", 0), 0u)
      << out.text;
}

TEST_F(CliTest, BadNumericFlagsAreUsageErrorsBeforeAnyInputIsRead) {
  const std::string generated = TempPath("generated.triples");
  // discover gets a graph path that does not exist: the flag is checked
  // before the graph is read.
  const std::string missing = TempPath("no_such_graph.triples");
  const struct {
    std::string args;
    const char* flag;
  } cases[] = {
      {"generate " + generated + " --scale=abc", "--scale"},
      {"generate " + generated + " --scale=0", "--scale"},
      {"generate " + generated + " --c=two", "--c"},
      {"generate " + generated + " --d=-3", "--d"},
      {"generate " + generated + " --seed=12x", "--seed"},
      {"generate " + generated + " --seed=-1", "--seed"},
      {"discover " + missing + " --max-attrs=zz", "--max-attrs"},
      {"discover " + missing + " --max-attrs=0", "--max-attrs"},
      {"discover " + missing + " --min-coverage=high", "--min-coverage"},
      {"discover " + missing + " --min-coverage=1.5", "--min-coverage"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args);
    ExpectFlagError(RunCli(c.args), c.flag);
  }
  EXPECT_FALSE(std::ifstream(generated).good()) << "a bad flag wrote output";

  RunOutput gen =
      RunCli("generate " + generated + " --scale=0.5 --c=1 --d=1 --seed=7");
  EXPECT_EQ(gen.exit_code, 0) << gen.text;
  RunOutput disc =
      RunCli("discover " + graph_ + " --max-attrs=1 --min-coverage=0.5");
  EXPECT_EQ(disc.exit_code, 0) << disc.text;
}

TEST(WorkloadCli, ProcessorsOutsideOneTo256IsAUsageErrorBeforeTheSpecIsRead) {
  // The spec does not exist: a bad flag must stop the run before the spec
  // is read (or a dataset built).
  const std::string missing = TempPath("no_such_spec.json");
  for (const char* p : {"2x", "300", "0", "-1", "", "abc"}) {
    SCOPED_TRACE(std::string("--processors=") + p);
    ExpectFlagError(RunBinary(GKEYS_WORKLOAD_BINARY,
                              "run " + missing + " --processors=" + p, "&1"),
                    "--processors");
  }
  const std::string spec = TempFile(
      "tiny_spec.json",
      R"({"name": "tiny", "algorithms": ["EMOptVC"], "oracle": false,)"
      R"( "dataset": {"generator": "neardup", "scale": 0.2}})");
  RunOutput ok = RunBinary(GKEYS_WORKLOAD_BINARY,
                           "run " + spec + " --processors=1", "/dev/null");
  EXPECT_EQ(ok.exit_code, 0) << ok.text;
  EXPECT_NE(ok.text.find("\"tiny/EMOptVC/rep0\""), std::string::npos)
      << ok.text;
}

// ---- Corrupt-snapshot audit: recover exits 1 with one line -------------

void ExpectOneLineFailure(const RunOutput& out) {
  EXPECT_NE(out.exit_code, 0) << out.text;
  EXPECT_NE(out.text.find("Error"), std::string::npos) << out.text;
  // One diagnostic line, not a spray: at most one newline-terminated line.
  EXPECT_LE(std::count(out.text.begin(), out.text.end(), '\n'), 1)
      << out.text;
}

TEST_F(CliTest, RecoverCorruptSnapshotFailsCleanly) {
  std::string dir = FreshDir("ddir_bogus");
  ASSERT_EQ(RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir).exit_code,
            0);
  SpitBinary(dir + "/snap.000001.gks", "not a snapshot at all");
  // Status::ToString prints "ParseError: ..." / "IoError: ..." — a
  // clean diagnostic, not a crash.
  ExpectOneLineFailure(RunCli("recover " + dir));
}

TEST_F(CliTest, RecoverTruncatedSnapshotFailsWithOneLine) {
  std::string dir = FreshDir("ddir_trunc");
  RunOutput save = RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir);
  ASSERT_EQ(save.exit_code, 0) << save.text;
  std::string snap = dir + "/snap.000001.gks";
  std::string bytes = SlurpBinary(snap);
  for (size_t keep : {size_t{3}, size_t{16}, bytes.size() / 2}) {
    SpitBinary(snap, bytes.substr(0, keep));
    ExpectOneLineFailure(RunCli("recover " + dir));
  }
}

TEST_F(CliTest, RecoverFlippedHeaderFailsWithOneLine) {
  std::string dir = FreshDir("ddir_flip");
  RunOutput save = RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir);
  ASSERT_EQ(save.exit_code, 0) << save.text;
  std::string snap = dir + "/snap.000001.gks";
  std::string bytes = SlurpBinary(snap);
  bytes[0] = static_cast<char>(bytes[0] ^ 0xff);
  SpitBinary(snap, bytes);
  ExpectOneLineFailure(RunCli("recover " + dir));
}

TEST_F(CliTest, RecoverEmptySnapshotFailsWithOneLine) {
  std::string dir = FreshDir("ddir_emptysnap");
  ASSERT_EQ(RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir).exit_code,
            0);
  SpitBinary(dir + "/snap.000001.gks", "");
  ExpectOneLineFailure(RunCli("recover " + dir));
}

// ---- A directory is not an input file -----------------------------------

TEST_F(CliTest, IngestOfADirectoryFailsWithOneLine) {
  std::string dir = FreshDir("ddir_dirinput");
  ASSERT_EQ(RunCli("save " + graph_ + " " + keys_ + " --dir=" + dir).exit_code,
            0);
  RunOutput first = RunCli("ingest " + dir + " " + delta_);
  ASSERT_EQ(first.exit_code, 0) << first.text;
  ASSERT_NE(first.text.find("wal_records=1"), std::string::npos) << first.text;

  // The session directory passed as the delta file: an IoError naming
  // it, not an empty batch.
  RunOutput ingest = RunCli("ingest " + dir + " " + dir);
  EXPECT_EQ(ingest.exit_code, 1) << ingest.text;
  ExpectOneLineFailure(ingest);
  EXPECT_NE(ingest.text.find("IoError"), std::string::npos) << ingest.text;
  EXPECT_NE(ingest.text.find(dir), std::string::npos) << ingest.text;

  // Nothing reached the log.
  RunOutput after = RunCli("ingest " + dir + " " + empty_);
  ASSERT_EQ(after.exit_code, 0) << after.text;
  EXPECT_NE(after.text.find("wal_records=1"), std::string::npos) << after.text;
}

}  // namespace
