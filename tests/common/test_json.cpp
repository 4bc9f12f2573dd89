// The minimal JSON parser: value types, nesting, string escapes (including
// \uXXXX and surrogate pairs), numbers, lookup helpers, error reporting,
// and a round trip through the library's own json_escape writer.
#include <gtest/gtest.h>

#include "api/report.h"
#include "common/check.h"
#include "common/json.h"

namespace fsbb {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::parse("3.5").as_number(), 3.5);
  EXPECT_EQ(JsonValue::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(JsonValue::parse("  \"pad\"  ").as_string(), "pad");
}

TEST(Json, ParsesNestedContainers) {
  const JsonValue v = JsonValue::parse(
      R"({"op":"submit","id":"j1","cli":["--jobs","9"],"nested":{"a":[1,2,3],"b":null}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.string_or("op", ""), "submit");
  EXPECT_EQ(v.string_or("id", ""), "j1");
  EXPECT_EQ(v.string_or("missing", "fallback"), "fallback");
  const JsonValue* cli = v.find("cli");
  ASSERT_NE(cli, nullptr);
  ASSERT_TRUE(cli->is_array());
  ASSERT_EQ(cli->as_array().size(), 2u);
  EXPECT_EQ(cli->as_array()[0].as_string(), "--jobs");
  const JsonValue* nested = v.find("nested");
  ASSERT_NE(nested, nullptr);
  const JsonValue* a = nested->find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->as_array()[2].as_int(), 3);
  EXPECT_TRUE(nested->find("b")->is_null());
}

TEST(Json, ParsesEmptyContainers) {
  EXPECT_TRUE(JsonValue::parse("{}").as_object().empty());
  EXPECT_TRUE(JsonValue::parse("[]").as_array().empty());
  EXPECT_TRUE(JsonValue::parse("[ ]").as_array().empty());
}

TEST(Json, DecodesStringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(JsonValue::parse(R"("\b\f\n\r\t")").as_string(), "\b\f\n\r\t");
  EXPECT_EQ(JsonValue::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(JsonValue::parse(R"("\u00e9")").as_string(), "\xC3\xA9");  // é
  EXPECT_EQ(JsonValue::parse(R"("\u20ac")").as_string(),
            "\xE2\x82\xAC");  // €
  // Surrogate pair: U+1F600.
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(Json, RoundTripsThroughJsonEscape) {
  const std::string nasty = "quote\" slash\\ ctrl\x01 tab\t nl\n";
  // Built with appends: `const char* + std::string&&` trips GCC 12's
  // -Wrestrict false positive (GCC PR105329) under -Werror.
  std::string quoted;
  quoted += '"';
  quoted += api::json_escape(nasty);
  quoted += '"';
  const JsonValue v = JsonValue::parse(quoted);
  EXPECT_EQ(v.as_string(), nasty);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "\"unterminated", "{\"a\":}", "tru", "nul", "01a",
        "[1 2]", "{\"a\" 1}", "\"\\q\"", "\"\\ud800\"", "{} extra"}) {
    EXPECT_THROW(JsonValue::parse(bad), CheckFailure) << bad;
  }
}

TEST(Json, ErrorsNameTheOffset) {
  try {
    JsonValue::parse("[1, x]");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("offset 4"), std::string::npos)
        << e.what();
  }
}

TEST(Json, RejectsIntegersThatRoundTripInexactly) {
  // Doubles hold 53 bits of mantissa; a 19-digit scheduler job id would
  // silently come back off by a few units. The parser must refuse instead.
  EXPECT_THROW(JsonValue::parse("{\"id\":9223372036854775807}"), CheckFailure);
  EXPECT_THROW(JsonValue::parse("1234567890123456789"), CheckFailure);
  EXPECT_THROW(JsonValue::parse("9007199254740993"), CheckFailure);  // 2^53+1
  EXPECT_THROW(JsonValue::parse("-9007199254740993"), CheckFailure);
}

TEST(Json, AcceptsIntegersUpToTheExactDoubleRange) {
  // 2^53 and every smaller magnitude round-trip exactly.
  EXPECT_EQ(JsonValue::parse("9007199254740992").as_int(), 9007199254740992LL);
  EXPECT_EQ(JsonValue::parse("-9007199254740992").as_int(),
            -9007199254740992LL);
  EXPECT_EQ(JsonValue::parse("{\"id\":123456789012}").int_or("id", 0),
            123456789012LL);
  // Large values written as doubles are still doubles, not integers —
  // only the integer token syntax claims exactness.
  EXPECT_DOUBLE_EQ(JsonValue::parse("1.2345678901234568e18").as_number(),
                   1.2345678901234568e18);
}

TEST(Json, BigIntegerErrorsPointAtTheToken) {
  try {
    JsonValue::parse("{\"job\":1234567890123456789}");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exactly"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 7"), std::string::npos) << what;
  }
}

TEST(Json, TypedAccessorsRejectMismatches) {
  const JsonValue v = JsonValue::parse("{\"n\":1.5,\"s\":\"x\"}");
  EXPECT_THROW(v.as_array(), CheckFailure);
  EXPECT_THROW(v.find("s")->as_number(), CheckFailure);
  EXPECT_THROW(v.find("n")->as_int(), CheckFailure);  // not integral
  EXPECT_THROW(JsonValue::parse("1e30").as_int(), CheckFailure);  // > int64
  EXPECT_THROW(v.int_or("s", 0), CheckFailure);       // present, wrong type
  EXPECT_EQ(v.int_or("missing", 7), 7);
  EXPECT_EQ(v.bool_or("missing", true), true);
}

TEST(Json, ParsesTheLibrarysOwnReportJson) {
  // The writer (SolveReport::to_json) and this parser must agree; a small
  // handcrafted report-shaped object stands in for the full pipeline
  // (integration tests cover the real thing through fsbb_serve).
  const JsonValue v = JsonValue::parse(
      R"({"result":{"best_makespan":603,"proven_optimal":true,)"
      R"("stop_reason":"optimal","best_permutation":[8,6,5]}})");
  const JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->int_or("best_makespan", 0), 603);
  EXPECT_TRUE(result->bool_or("proven_optimal", false));
  EXPECT_EQ(result->string_or("stop_reason", ""), "optimal");
  EXPECT_EQ(result->find("best_permutation")->as_array().size(), 3u);
}

}  // namespace
}  // namespace fsbb
