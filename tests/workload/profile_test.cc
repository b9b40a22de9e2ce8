/** @file Tests for benchmark profiles and MPKI classification. */

#include "workload/profile.hh"

#include <gtest/gtest.h>

#include <cmath>

#include "simcore/logging.hh"

namespace refsched::workload
{
namespace
{

TEST(ProfileTest, BuiltinsExistAndValidate)
{
    const auto names = builtinProfileNames();
    EXPECT_GE(names.size(), 7u);
    for (const auto &n : names) {
        const auto &p = profileByName(n);
        EXPECT_EQ(p.name, n);
        p.check();  // must not throw
    }
}

TEST(ProfileTest, UnknownNameIsFatal)
{
    EXPECT_THROW(profileByName("no-such-benchmark"), FatalError);
}

TEST(ProfileTest, ClassifyThresholds)
{
    EXPECT_EQ(BenchmarkProfile::classify(0.0), MpkiClass::Low);
    EXPECT_EQ(BenchmarkProfile::classify(0.99), MpkiClass::Low);
    EXPECT_EQ(BenchmarkProfile::classify(1.0), MpkiClass::Medium);
    EXPECT_EQ(BenchmarkProfile::classify(10.0), MpkiClass::Medium);
    EXPECT_EQ(BenchmarkProfile::classify(10.01), MpkiClass::High);
}

TEST(ProfileTest, ExpectedMpkiMatchesPaperClass)
{
    // The analytic MPKI of every built-in profile must land in the
    // class Table 2 assigns to that benchmark.
    for (const auto &n : builtinProfileNames()) {
        const auto &p = profileByName(n);
        EXPECT_EQ(BenchmarkProfile::classify(p.expectedMpki()),
                  p.paperClass)
            << n << " expectedMpki=" << p.expectedMpki();
    }
}

TEST(ProfileTest, PaperFootprints)
{
    // Section 5.4.1 gives these footprints explicitly.
    EXPECT_EQ(profileByName("mcf").footprintBytes,
              static_cast<std::uint64_t>(1.7 * 1024) * kMiB);
    EXPECT_EQ(profileByName("bwaves").footprintBytes, 920 * kMiB);
    EXPECT_EQ(profileByName("stream").footprintBytes, 800 * kMiB);
    EXPECT_EQ(profileByName("GemsFDTD").footprintBytes, 850 * kMiB);
}

TEST(ProfileTest, McfIsTheMostIntense)
{
    // Section 6.2: mcf has "a very high MPKI, compared to the other
    // benchmarks categorized as high".
    const double mcf = profileByName("mcf").expectedMpki();
    for (const auto &n : builtinProfileNames()) {
        if (n != "mcf") {
            EXPECT_GT(mcf, profileByName(n).expectedMpki()) << n;
        }
    }
}

TEST(ProfileTest, CheckRejectsNonsense)
{
    BenchmarkProfile p = profileByName("mcf");
    p.memOpFraction = 1.5;
    EXPECT_THROW(p.check(), FatalError);
    p.memOpFraction = std::nan("");
    EXPECT_THROW(p.check(), FatalError);

    p = profileByName("mcf");
    p.seqFraction = 0.9;
    p.randomFraction = 0.2;
    EXPECT_THROW(p.check(), FatalError);

    p = profileByName("mcf");
    p.hotsetBytes = p.footprintBytes + 1;
    EXPECT_THROW(p.check(), FatalError);

    p = profileByName("mcf");
    p.accessBytes = 12;
    EXPECT_THROW(p.check(), FatalError);

    p = profileByName("mcf");
    p.baseCpi = 0.0;
    EXPECT_THROW(p.check(), FatalError);
}

TEST(ProfileTest, ToStringNames)
{
    EXPECT_EQ(toString(MpkiClass::Low), "L");
    EXPECT_EQ(toString(MpkiClass::Medium), "M");
    EXPECT_EQ(toString(MpkiClass::High), "H");
}

} // namespace
} // namespace refsched::workload
