#include "io/triples.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>

#include "gen/synthetic.h"
#include "io/fast_triples.h"
#include "chase_reference.h"
#include "test_util.h"

namespace gkeys {
namespace {

/// The graph half of FastDeserializeGraphWithNames.
StatusOr<Graph> ParseGraph(std::string_view text) {
  auto loaded = FastDeserializeGraphWithNames(text);
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded->graph);
}

StatusOr<Graph> ReadGraphFile(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseGraph(*text);
}

TEST(TriplesIo, SerializeSmallGraph) {
  Graph g;
  NodeId a = g.AddEntity("artist");
  g.AddTriple(a, "name_of", g.AddValue("The Beatles")).IgnoreError();
  g.Finalize();
  std::string text = SerializeGraph(g);
  EXPECT_NE(text.find("ent:artist:0 name_of val:\"The Beatles\""),
            std::string::npos);
}

TEST(TriplesIo, RoundTripPreservesStructure) {
  auto m = testing::MakeG1();
  std::string text = SerializeGraph(m.g);
  auto loaded = ParseGraph(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumEntities(), m.g.NumEntities());
  EXPECT_EQ(loaded->NumValues(), m.g.NumValues());
  EXPECT_EQ(loaded->NumTriples(), m.g.NumTriples());
  // Semantic equivalence: the chase finds the same number of duplicate
  // classes on the reloaded graph.
  KeySet sigma1 = testing::MakeSigma1();
  EXPECT_EQ(Chase(*loaded, sigma1).pairs.size(),
            Chase(m.g, sigma1).pairs.size());
}

TEST(TriplesIo, RoundTripSyntheticWorkload) {
  SyntheticConfig cfg;
  cfg.entities_per_type = 10;
  SyntheticDataset ds = GenerateSynthetic(cfg);
  auto loaded = ParseGraph(SerializeGraph(ds.graph));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumTriples(), ds.graph.NumTriples());
  EXPECT_EQ(Chase(*loaded, ds.keys).pairs.size(), ds.planted.size());
}

TEST(TriplesIo, EscapedLiterals) {
  Graph g;
  NodeId e = g.AddEntity("t");
  g.AddTriple(e, "p", g.AddValue("say \"hi\" \\ there")).IgnoreError();
  g.Finalize();
  auto loaded = ParseGraph(SerializeGraph(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NE(loaded->FindValue("say \"hi\" \\ there"), kNoNode);
}

TEST(TriplesIo, LiteralsWithSpaces) {
  Graph g;
  NodeId e = g.AddEntity("band");
  g.AddTriple(e, "name_of", g.AddValue("The Rolling Stones")).IgnoreError();
  g.Finalize();
  auto loaded = ParseGraph(SerializeGraph(g));
  ASSERT_TRUE(loaded.ok());
  EXPECT_NE(loaded->FindValue("The Rolling Stones"), kNoNode);
}

TEST(TriplesIo, IsolatedEntitiesSurvive) {
  Graph g;
  g.AddEntity("loner");
  g.Finalize();
  auto loaded = ParseGraph(SerializeGraph(g));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumEntities(), 1u);
  EXPECT_EQ(loaded->EntitiesOfType(loaded->interner().Lookup("loner")).size(),
            1u);
}

TEST(TriplesIo, CommentsAndBlankLinesIgnored) {
  auto loaded = ParseGraph(
      "# a comment\n"
      "\n"
      "ent:t:0 p ent:t:1\n");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumTriples(), 1u);
}

TEST(TriplesIo, MalformedInputRejected) {
  EXPECT_FALSE(ParseGraph("just one field\n").ok());
  EXPECT_FALSE(ParseGraph("ent:t:0 p\n").ok());
  EXPECT_FALSE(ParseGraph("bogus:t:0 p ent:t:1\n").ok());
  EXPECT_FALSE(ParseGraph("ent:t:0 p val:\"unterminated\n").ok());
  EXPECT_FALSE(ParseGraph("val:\"v\" p ent:t:0\n").ok());  // value subj
}

TEST(TriplesIo, EntityReferencesAreStable) {
  // The same ent:type:id token must resolve to one node.
  auto loaded = ParseGraph(
      "ent:t:0 p ent:t:1\n"
      "ent:t:0 q ent:t:1\n");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumEntities(), 2u);
  EXPECT_EQ(loaded->NumTriples(), 2u);
}

TEST(TriplesIo, FileRoundTrip) {
  auto m = testing::MakeG1();
  std::string path = testing::TempPath("io_test.triples");
  ASSERT_TRUE(SaveGraph(m.g, path).ok());
  auto loaded = ReadGraphFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumTriples(), m.g.NumTriples());
  std::remove(path.c_str());
}

TEST(TriplesIo, LoadMissingFileFails) {
  EXPECT_FALSE(ReadGraphFile("/nonexistent/dir/nope.triples").ok());
}

TEST(TriplesIo, ReadFileOfADirectoryIsAnIoError) {
  // A directory opens like a file; it must not read as an empty one.
  auto text = ReadFile(::testing::TempDir());
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kIoError);
  EXPECT_NE(text.status().message().find(::testing::TempDir()),
            std::string::npos)
      << text.status().ToString();
}

TEST(TriplesIo, SaveGraphReportsAWriteErrorSeenOnlyAtFlush) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  // One triple fits the stream buffer, so the failing write happens
  // when the file is flushed, not while the text is written.
  Graph g;
  NodeId e = g.AddEntity("t");
  ASSERT_TRUE(g.AddTriple(e, "p", g.AddValue("v")).ok());
  g.Finalize();
  Status st = SaveGraph(g, "/dev/full");
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
}

}  // namespace
}  // namespace gkeys
