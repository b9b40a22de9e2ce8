/** @file Unit tests for the observability JSON helpers. */

#include "obs/json.hh"

#include <gtest/gtest.h>

#include <string>

#include "simcore/logging.hh"

namespace refsched::obs
{
namespace
{

TEST(JsonEscapeTest, EscapesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(TicksToUsecTest, ExactIntegerRendering)
{
    EXPECT_EQ(ticksToUsecString(0), "0.000000");
    EXPECT_EQ(ticksToUsecString(1), "0.000001");
    EXPECT_EQ(ticksToUsecString(kPsPerUs), "1.000000");
    EXPECT_EQ(ticksToUsecString(1234567), "1.234567");
    // Beyond double's 53-bit mantissa: integer math stays exact.
    EXPECT_EQ(ticksToUsecString(9007199254740993ULL),
              "9007199254.740993");
}

TEST(JsonParserTest, ParsesScalars)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_TRUE(parseJson("true").boolean);
    EXPECT_FALSE(parseJson("false").boolean);
    EXPECT_DOUBLE_EQ(parseJson("42").number, 42.0);
    EXPECT_DOUBLE_EQ(parseJson("-1.5e2").number, -150.0);
    EXPECT_EQ(parseJson("\"hi\\n\"").string, "hi\n");
}

TEST(JsonParserTest, ParsesNested)
{
    const auto v = parseJson(
        R"({"a": [1, 2, {"b": "c"}], "d": {"e": true}})");
    ASSERT_TRUE(v.isObject());
    const auto *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
    const auto *b = a->array[2].find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->string, "c");
    const auto *d = v.find("d");
    ASSERT_NE(d, nullptr);
    const auto *e = d->find("e");
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->boolean);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParserTest, ParsesUnicodeEscapes)
{
    EXPECT_EQ(parseJson("\"\\u0041\"").string, "A");
    EXPECT_EQ(parseJson("\"\\u00e9\"").string, "\xC3\xA9");
}

TEST(JsonParserTest, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson(""), FatalError);
    EXPECT_THROW(parseJson("{"), FatalError);
    EXPECT_THROW(parseJson("[1,]"), FatalError);
    EXPECT_THROW(parseJson("{\"a\": 1} trailing"), FatalError);
    EXPECT_THROW(parseJson("\"unterminated"), FatalError);
    EXPECT_THROW(parseJson("{1: 2}"), FatalError);
    EXPECT_THROW(parseJson("nul"), FatalError);
}

TEST(JsonParserTest, RoundTripsEscapedStrings)
{
    const std::string original = "line1\nline2\t\"quoted\" \\ done";
    std::string text = "\"";
    text += jsonEscape(original);
    text += '"';
    const auto v = parseJson(text);
    EXPECT_EQ(v.string, original);
}

} // namespace
} // namespace refsched::obs
