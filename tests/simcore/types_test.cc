/** @file Unit tests for simcore/types.hh helpers. */

#include "simcore/types.hh"

#include <gtest/gtest.h>

namespace refsched
{
namespace
{

TEST(TypesTest, UnitConversions)
{
    EXPECT_EQ(nanoseconds(1.0), 1000u);
    EXPECT_EQ(microseconds(1.0), 1000u * 1000u);
    EXPECT_EQ(milliseconds(1.0), 1000u * 1000u * 1000u);
    EXPECT_EQ(milliseconds(64.0), 64u * kPsPerMs);
    EXPECT_EQ(nanoseconds(13.75), 13750u);
    EXPECT_EQ(microseconds(7.8125), 7812500u);
}

TEST(TypesTest, MillisecondsSaturates)
{
    EXPECT_EQ(milliseconds(0.0), 0u);
    EXPECT_EQ(milliseconds(-3.0), 0u);
    EXPECT_EQ(milliseconds(1e300), kMaxTick);
}

TEST(TypesTest, SizeHelpers)
{
    EXPECT_EQ(kKiB, 1024u);
    EXPECT_EQ(kMiB, 1024u * 1024u);
    EXPECT_EQ(kGiB, 1024u * 1024u * 1024u);
}

TEST(TypesTest, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(TypesTest, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(2), 1u);
    EXPECT_EQ(log2Exact(64), 6u);
    EXPECT_EQ(log2Exact(1ULL << 33), 33u);
}

TEST(TypesTest, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(ClockDomainTest, CycleTickConversion)
{
    ClockDomain ddr(1250);  // DDR3-1600 memory clock
    EXPECT_EQ(ddr.periodTicks(), 1250u);
    EXPECT_EQ(ddr.cyclesToTicks(4), 5000u);
    EXPECT_EQ(ddr.ticksToCycles(4999), 3u);
    EXPECT_EQ(ddr.ticksToCycles(5000), 4u);
    EXPECT_DOUBLE_EQ(ddr.frequencyGHz(), 0.8);
}

TEST(ClockDomainTest, NextEdge)
{
    ClockDomain clk(1000);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(0), 0u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1), 1000u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(999), 1000u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1000), 1000u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1001), 2000u);
}

} // namespace
} // namespace refsched
