/** @file Unit tests for simcore/parse.hh, the shared number parser. */

#include "simcore/parse.hh"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace refsched
{
namespace
{

TEST(ParseNumberTest, WholeTokensParse)
{
    EXPECT_EQ(parseNumber<int>("42", "x"), 42);
    EXPECT_EQ(parseNumber<int>("-3", "x"), -3);
    EXPECT_EQ(parseNumber<unsigned>("0", "x"), 0u);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615", "x"),
              UINT64_MAX);
    EXPECT_DOUBLE_EQ(parseNumber<double>("0.5", "x"), 0.5);
    EXPECT_DOUBLE_EQ(parseNumber<double>("-2", "x"), -2.0);
}

TEST(ParseNumberTest, DoublesTakeExponents)
{
    EXPECT_DOUBLE_EQ(parseNumber<double>("1e3", "x"), 1000.0);
    EXPECT_DOUBLE_EQ(parseNumber<double>("1e+06", "x"), 1e6);
    EXPECT_DOUBLE_EQ(parseNumber<double>("2.5E-2", "x"), 0.025);
    EXPECT_THROW(parseNumber<double>("1e", "x"), FatalError);
    EXPECT_THROW(parseNumber<double>("1e400", "x"), FatalError);
}

TEST(ParseNumberTest, TrailingJunkIsAnError)
{
    EXPECT_THROW(parseNumber<int>("12abc", "x"), FatalError);
    EXPECT_THROW(parseNumber<int>("4x", "x"), FatalError);
    EXPECT_THROW(parseNumber<int>("1.5", "x"), FatalError);
    EXPECT_THROW(parseNumber<double>("0.5x", "x"), FatalError);
    EXPECT_THROW(parseNumber<int>("7 ", "x"), FatalError);
}

TEST(ParseNumberTest, EmptyAndNonNumbersAreErrors)
{
    EXPECT_THROW(parseNumber<int>("", "x"), FatalError);
    EXPECT_THROW(parseNumber<double>("", "x"), FatalError);
    EXPECT_THROW(parseNumber<int>("abc", "x"), FatalError);
    EXPECT_THROW(parseNumber<int>(" 7", "x"), FatalError);
    EXPECT_THROW(parseNumber<int>("+7", "x"), FatalError);
}

TEST(ParseNumberTest, SignOnAnUnsignedTypeIsAnError)
{
    EXPECT_THROW(parseNumber<unsigned>("-3", "x"), FatalError);
    EXPECT_THROW(parseNumber<std::uint64_t>("-1", "x"), FatalError);
}

TEST(ParseNumberTest, OverflowIsAnError)
{
    EXPECT_THROW(parseNumber<int>("2147483648", "x"), FatalError);
    EXPECT_THROW(parseNumber<int>("-2147483649", "x"), FatalError);
    EXPECT_THROW(parseNumber<std::uint64_t>("18446744073709551616", "x"),
                 FatalError);
}

TEST(ParseNumberTest, NonFiniteDoublesAreErrors)
{
    EXPECT_THROW(parseNumber<double>("inf", "x"), FatalError);
    EXPECT_THROW(parseNumber<double>("nan", "x"), FatalError);
}

TEST(ParseNumberTest, ErrorNamesTheInputAndTheToken)
{
    try {
        parseNumber<unsigned>("-3", "--scale");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "--scale wants a non-negative integer, got '-3'");
    }
}

} // namespace
} // namespace refsched
