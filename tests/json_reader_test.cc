#include "workload/json.h"

#include <gtest/gtest.h>

#include <string>

namespace gkeys {
namespace {

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_FALSE(ParseJson("false")->bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("42")->number(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-1.5e2")->number(), -150.0);
  EXPECT_EQ(ParseJson("\"hi\"")->string(), "hi");
}

TEST(JsonReader, ParsesNestedStructure) {
  auto v = ParseJson(R"({
    "name": "spec",
    "nums": [1, 2, 3],
    "inner": {"flag": true, "deep": [{"x": 0}]}
  })");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->StringOr("name", ""), "spec");
  const JsonValue* nums = v->Find("nums");
  ASSERT_NE(nums, nullptr);
  ASSERT_EQ(nums->array().size(), 3u);
  EXPECT_DOUBLE_EQ(nums->array()[1].number(), 2.0);
  const JsonValue* inner = v->Find("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_TRUE(inner->BoolOr("flag", false));
  EXPECT_EQ(inner->Find("deep")->array()[0].Find("x")->number(), 0.0);
}

TEST(JsonReader, MembersKeepDocumentOrder) {
  auto v = ParseJson(R"({"b": 1, "a": 2, "c": 3})");
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->members().size(), 3u);
  EXPECT_EQ(v->members()[0].first, "b");
  EXPECT_EQ(v->members()[1].first, "a");
  EXPECT_EQ(v->members()[2].first, "c");
}

TEST(JsonReader, DecodesEscapes) {
  auto v = ParseJson(R"("a\"b\\c\ndAé")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string(), "a\"b\\c\ndA\xc3\xa9");
}

TEST(JsonReader, TypedHelpersFallBack) {
  auto v = ParseJson(R"({"n": 1, "s": "x", "b": true})");
  ASSERT_TRUE(v.ok());
  // Wrong-typed or absent members yield the fallback instead of aborting.
  EXPECT_EQ(v->StringOr("n", "d"), "d");
  EXPECT_TRUE(v->BoolOr("missing", true));
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonReader, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "{\"a\": 1,}",
                          "tru", "\"unterminated", "1 2", "{\"a\":}",
                          "[1 2]", "nul", "\"bad\\q\""}) {
    auto v = ParseJson(bad);
    EXPECT_FALSE(v.ok()) << "input: " << bad;
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

TEST(JsonReader, ErrorsNameTheLine) {
  auto v = ParseJson("{\n  \"a\": 1,\n  \"b\": oops\n}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("line 3"), std::string::npos)
      << v.status().message();
}

TEST(JsonReader, RejectsTrailingContent) {
  auto v = ParseJson("{\"a\": 1} trailing");
  EXPECT_FALSE(v.ok());
}

}  // namespace
}  // namespace gkeys
