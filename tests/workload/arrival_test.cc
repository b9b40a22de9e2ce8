/** @file Statistical and determinism tests for arrival processes. */

#include "workload/arrival.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "simcore/logging.hh"

namespace refsched::workload
{
namespace
{

/** Interarrival gaps of the first @p n arrivals. */
std::vector<double>
gapsOf(ArrivalProcess &p, int n)
{
    std::vector<double> gaps;
    Tick prev = 0;
    for (int i = 0; i < n; ++i) {
        const Tick t = p.next();
        gaps.push_back(static_cast<double>(t - prev));
        prev = t;
    }
    return gaps;
}

double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Coefficient of variation (stddev / mean). */
double
cvOf(const std::vector<double> &v)
{
    const double m = meanOf(v);
    double var = 0.0;
    for (double x : v)
        var += (x - m) * (x - m);
    var /= static_cast<double>(v.size());
    return std::sqrt(var) / m;
}

TEST(ArrivalTest, KindRoundTrip)
{
    EXPECT_EQ(toString(ArrivalKind::Poisson), "poisson");
    EXPECT_EQ(toString(ArrivalKind::Mmpp), "mmpp");
    EXPECT_EQ(arrivalKindFromString("poisson"), ArrivalKind::Poisson);
    EXPECT_EQ(arrivalKindFromString("mmpp"), ArrivalKind::Mmpp);
    EXPECT_THROW(arrivalKindFromString("bursty"), FatalError);
}

TEST(ArrivalTest, ShapeCheckRejectsInfeasibleMmpp)
{
    ArrivalShape s;
    s.kind = ArrivalKind::Mmpp;
    s.burstRatio = 0.5;  // bursts must be faster than base
    EXPECT_THROW(s.check(), FatalError);
    s.burstRatio = 4.0;
    s.burstFraction = 0.3;  // 4 * 0.3 >= 1: quiet rate would go <= 0
    EXPECT_THROW(s.check(), FatalError);
    s.burstFraction = 0.1;
    s.burstDwellArrivals = 0.0;
    EXPECT_THROW(s.check(), FatalError);
    s.burstDwellArrivals = 64.0;
    EXPECT_NO_THROW(s.check());
}

TEST(ArrivalTest, DeterministicAndStrictlyIncreasing)
{
    ArrivalShape shape;
    ArrivalProcess a(shape, 1000.0, 42, 0);
    ArrivalProcess b(shape, 1000.0, 42, 0);
    Tick prev = 0;
    for (int i = 0; i < 5000; ++i) {
        const Tick t = a.next();
        ASSERT_EQ(t, b.next());
        ASSERT_GT(t, prev);
        prev = t;
    }
}

TEST(ArrivalTest, SeedsProduceDifferentSequences)
{
    ArrivalShape shape;
    ArrivalProcess a(shape, 1000.0, 1, 0);
    ArrivalProcess b(shape, 1000.0, 2, 0);
    int same = 0;
    for (int i = 0; i < 200; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(ArrivalTest, PoissonRateWithinTolerance)
{
    ArrivalShape shape;
    const double meanGap = 2000.0;
    ArrivalProcess p(shape, meanGap, 7, 0);
    const int n = 50000;
    const auto gaps = gapsOf(p, n);
    // Empirical mean interarrival within 3% of the offered one.
    EXPECT_NEAR(meanOf(gaps), meanGap, meanGap * 0.03);
}

TEST(ArrivalTest, PoissonInterarrivalCvNearOne)
{
    ArrivalShape shape;
    ArrivalProcess p(shape, 2000.0, 9, 0);
    const auto gaps = gapsOf(p, 50000);
    // Exponential interarrivals: CV = 1 (memoryless baseline).
    EXPECT_NEAR(cvOf(gaps), 1.0, 0.05);
}

TEST(ArrivalTest, MmppRateWithinTolerance)
{
    ArrivalShape shape;
    shape.kind = ArrivalKind::Mmpp;
    const double meanGap = 2000.0;
    ArrivalProcess p(shape, meanGap, 11, 0);
    // The modulating chain needs many burst/quiet cycles for the
    // long-run average to settle; 200k arrivals cover ~300 cycles
    // at the default dwell.
    const auto gaps = gapsOf(p, 200000);
    EXPECT_NEAR(meanOf(gaps), meanGap, meanGap * 0.10);
}

TEST(ArrivalTest, MmppIsBurstier)
{
    ArrivalShape shape;
    shape.kind = ArrivalKind::Mmpp;
    ArrivalProcess p(shape, 2000.0, 13, 0);
    const auto gaps = gapsOf(p, 100000);
    // Rate modulation adds variance on top of the exponential's:
    // the burstiness signature the tail benchmarks rely on.
    EXPECT_GT(cvOf(gaps), 1.15);
}

TEST(ArrivalTest, StartTickOffsetsTheSequence)
{
    ArrivalShape shape;
    ArrivalProcess a(shape, 1000.0, 5, 0);
    ArrivalProcess b(shape, 1000.0, 5, 1000000);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next() + 1000000, b.next());
}

TEST(ArrivalTest, DrawPastTickRangeSaturates)
{
    // Starting 10 ticks short of the range, every draw of a 1e18-tick
    // mean gap lands past 2^64: it saturates and never wraps.
    ArrivalProcess p(ArrivalShape{}, 1e18, 7, kMaxTick - 10);
    EXPECT_EQ(p.next(), kMaxTick);
    EXPECT_EQ(p.next(), kMaxTick);
}

} // namespace
} // namespace refsched::workload
