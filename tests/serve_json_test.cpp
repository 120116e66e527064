// Unit tests for the pevpmd wire-format JSON value type (serve/json.h):
// parsing, escaping, exact integer round-trips, and the defensive limits
// the protocol depends on.
#include "serve/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace {

using serve::Json;
using serve::JsonError;

TEST(ServeJson, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_double(), -1250.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(ServeJson, ParsesContainers) {
  const Json doc = Json::parse(R"({"a":[1,2,3],"b":{"c":null}})");
  ASSERT_TRUE(doc.is_object());
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[2].as_int64(), 3);
  const Json* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->find("c")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(ServeJson, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(),
            "a\"b\\c/d\n\t\r\b\f");
  // BMP escape and a surrogate pair (U+1F600).
  EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  // A lone surrogate is malformed.
  EXPECT_THROW((void)Json::parse(R"("\ud83d")"), JsonError);
}

/// The message Json::parse(text) throws, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)Json::parse(text);
  } catch (const JsonError& error) {
    return error.what();
  }
  return "";
}

TEST(ServeJson, StringErrorsNameTheirByteOffset) {
  // Byte 0 is the opening quote.
  EXPECT_EQ(parse_error("\"ab\x01" "cd\""),
            "control character in string at offset 3");
  EXPECT_EQ(parse_error("{\"k\":\"v\x1f\"}"),
            "control character in string at offset 7");
  EXPECT_EQ(parse_error("\"a\\n\n\""),
            "control character in string at offset 4");
  EXPECT_EQ(parse_error("\"abc"), "unterminated string at offset 4");
  EXPECT_EQ(parse_error("\"abc\\n"), "unterminated string at offset 6");
  EXPECT_EQ(parse_error("\""), "unterminated string at offset 1");
  EXPECT_EQ(parse_error("\"ab\\q\""), "bad escape at offset 4");
  EXPECT_EQ(parse_error("\"\\x"), "bad escape at offset 2");
  EXPECT_EQ(parse_error("\"ab\\"), "bad escape at offset 4");
}

TEST(ServeJson, EscapesAtTheEdgesOfPlainRunsRoundTrip) {
  // Escapes first, in the middle and last in a string, back to back, and
  // around long plain runs.
  const std::string texts[] = {
      "\nabc",
      "ab\ncd",
      "abc\n",
      "\"\\",
      "\t",
      "",
      "a\x01" "b\"c\\",
      "\xc3\xa9x\"\ty\xe2\x82\xac",
      std::string(300, 'x') + "\n" + std::string(300, 'y'),
  };
  for (const std::string& text : texts) {
    const std::string dumped = Json{text}.dump();
    EXPECT_EQ(Json::parse(dumped).as_string(), text) << dumped;
  }
  EXPECT_EQ(Json::parse(R"("\u00e9abc\n")").as_string(),
            "\xc3\xa9" "abc\n");
  EXPECT_EQ(Json::parse(R"("abc\/def\u0041")").as_string(), "abc/defA");
}

TEST(ServeJson, DumpEscapesControlCharacters) {
  // Split the literal around \x01 — "\x01c" would be one greedy hex escape.
  const Json value{std::string{"a\nb\x01" "c\"d"}};
  EXPECT_EQ(value.dump(), R"("a\nb\u0001c\"d")");
  // And the result re-parses to the original.
  EXPECT_EQ(Json::parse(value.dump()).as_string(), "a\nb\x01" "c\"d");
}

TEST(ServeJson, Uint64SeedsRoundTripExactly) {
  // A 64-bit Monte-Carlo seed does not fit a double's mantissa; the lexeme
  // must carry it through parse -> as_uint64 and uint64 -> dump intact.
  const std::uint64_t seed = 18446744073709551615ULL;  // 2^64 - 1
  EXPECT_EQ(Json::parse("18446744073709551615").as_uint64(), seed);
  EXPECT_EQ(Json{seed}.dump(), "18446744073709551615");
  const std::int64_t negative = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int64(), negative);
}

TEST(ServeJson, AccessorTypeMismatchesThrow) {
  const Json doc = Json::parse("[1]");
  EXPECT_THROW((void)doc.as_object(), JsonError);
  EXPECT_THROW((void)doc.as_string(), JsonError);
  EXPECT_THROW((void)Json::parse("\"x\"").as_uint64(), JsonError);
  EXPECT_THROW((void)Json::parse("-1").as_uint64(), JsonError);
}

TEST(ServeJson, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.",
        "\"unterminated", "[1] trailing", "nan", "+1", "{1:2}",
        "\"bad\\escape\"", "\"\\u12g4\""}) {
    EXPECT_THROW((void)Json::parse(bad), JsonError) << bad;
  }
}

TEST(ServeJson, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW((void)Json::parse(deep), JsonError);
  std::string shallow = "[[[[[[[[[[1]]]]]]]]]]";
  EXPECT_NO_THROW((void)Json::parse(shallow));
}

TEST(ServeJson, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(Json{std::numeric_limits<double>::infinity()}.dump(), "null");
  EXPECT_EQ(Json{std::numeric_limits<double>::quiet_NaN()}.dump(), "null");
}

TEST(ServeJson, SetAndDumpProduceSortedCompactObjects) {
  Json doc{Json::Object{}};
  doc.set("b", Json{2});
  doc.set("a", Json{std::string{"x"}});
  EXPECT_EQ(doc.dump(), R"({"a":"x","b":2})");
}

}  // namespace
