#include "util/json.h"

#include <gtest/gtest.h>

namespace headtalk::util {
namespace {

TEST(JsonEscape, PassesPlainTextAndEscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string_view("nul\0byte", 8)), "nul\\u0000byte");
}

TEST(JsonEscape, EscapedOutputReparsesToOriginal) {
  const std::string nasty = "he said \"hi\\there\"\n\tend";
  const auto doc = JsonValue::parse("\"" + json_escape(nasty) + "\"");
  EXPECT_EQ(doc.as_string(), nasty);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-0.5").as_number(), -0.5);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(JsonValue::parse("\"text\"").as_string(), "text");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(JsonValue::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(JsonParse, ArraysAndObjects) {
  const auto doc = JsonValue::parse(R"({"a":[1,2,3],"b":{"nested":true},"c":null})");
  ASSERT_TRUE(doc.is_object());
  const auto* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(doc.find("b")->find("nested")->as_bool());
  EXPECT_TRUE(doc.find("c")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, WhitespaceTolerantButStrictOtherwise) {
  EXPECT_NO_THROW(JsonValue::parse("  { \"k\" : [ 1 , 2 ] }  \n"));
  EXPECT_THROW(JsonValue::parse(""), JsonError);
  EXPECT_THROW(JsonValue::parse("{"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"k\":1,}"), JsonError);
  EXPECT_THROW(JsonValue::parse("{k:1}"), JsonError);
  EXPECT_THROW(JsonValue::parse("'single'"), JsonError);
  EXPECT_THROW(JsonValue::parse("1 2"), JsonError);  // trailing content
  EXPECT_THROW(JsonValue::parse("NaN"), JsonError);
  EXPECT_THROW(JsonValue::parse("Infinity"), JsonError);
  EXPECT_THROW(JsonValue::parse("+1"), JsonError);
  EXPECT_THROW(JsonValue::parse("1."), JsonError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonError);
}

TEST(JsonParse, ErrorsCarryOffsets) {
  try {
    (void)JsonValue::parse("[1, oops]");
    FAIL() << "expected JsonError";
  } catch (const JsonError& error) {
    EXPECT_EQ(error.offset(), 4u);
    EXPECT_NE(std::string(error.what()).find("offset 4"), std::string::npos);
  }
}

TEST(JsonParse, DepthLimitStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW(JsonValue::parse(deep), JsonError);

  std::string ok;
  for (int i = 0; i < 30; ++i) ok += '[';
  for (int i = 0; i < 30; ++i) ok += ']';
  EXPECT_NO_THROW(JsonValue::parse(ok));
}

TEST(JsonParse, TypeMismatchAccessorsThrow) {
  const auto doc = JsonValue::parse("42");
  EXPECT_THROW((void)doc.as_string(), std::runtime_error);
  EXPECT_THROW((void)doc.as_array(), std::runtime_error);
  EXPECT_THROW((void)doc.as_object(), std::runtime_error);
  EXPECT_THROW((void)doc.as_bool(), std::runtime_error);
  EXPECT_EQ(doc.find("k"), nullptr);  // find() on non-object is benign
}

}  // namespace
}  // namespace headtalk::util
