/** @file Unit tests for the deterministic RNG. */

#include "simcore/rng.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <iterator>
#include <set>
#include <vector>

namespace refsched
{
namespace
{

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsSequence)
{
    Rng a(77);
    const auto first = a.next();
    a.next();
    a.reseed(77);
    EXPECT_EQ(a.next(), first);
}

TEST(RngTest, BelowStaysInBounds)
{
    Rng r(9);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(r.below(bound), bound);
    }
}

TEST(RngTest, BelowCoversSmallRange)
{
    Rng r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, InRangeInclusive)
{
    Rng r(4);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i) {
        const auto v = r.inRange(10, 12);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 12u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, RealInUnitInterval)
{
    Rng r(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

class RngBernoulliTest : public ::testing::TestWithParam<double>
{
};

TEST_P(RngBernoulliTest, MatchesProbability)
{
    const double p = GetParam();
    Rng r(42);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RngBernoulliTest,
                         ::testing::Values(0.0, 0.1, 0.35, 0.5, 0.9,
                                           1.0));

class RngGeometricTest : public ::testing::TestWithParam<double>
{
};

TEST_P(RngGeometricTest, MeanMatchesTheory)
{
    const double p = GetParam();
    const GeometricSampler gaps(p, 100000);
    Rng r(7);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(gaps.sample(r));
    const double expected = (1.0 - p) / p;
    EXPECT_NEAR(sum / n, expected, expected * 0.1 + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RngGeometricTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.9));

TEST(RngTest, GeometricEdgeCases)
{
    Rng r(8);
    EXPECT_EQ(GeometricSampler(1.0, 100000).sample(r), 0u);
    EXPECT_EQ(GeometricSampler(0.0, 500).sample(r), 500u);
    const GeometricSampler clamped(0.001, 50);
    for (int i = 0; i < 100; ++i)
        ASSERT_LE(clamped.sample(r), 50u);
}

constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;

/** The table path agrees with the reference formula at draw @p m
 *  (ignored when @p m lies outside the 53-bit range). */
void
expectExactAt(const GeometricSampler &s, std::int64_t m)
{
    if (m < 0 || static_cast<std::uint64_t>(m) >= kDraws)
        return;
    const auto d = static_cast<std::uint64_t>(m);
    ASSERT_EQ(s.at(d), s.reference(d))
        << "p=" << s.p() << " maxGap=" << s.maxGap() << " m=" << d;
}

/** Every bucket edge, and every threshold +-guard and +-1. */
void
expectExactAtEdges(const GeometricSampler &s)
{
    constexpr auto kBucket = std::int64_t{1}
        << GeometricSampler::kBucketShift;
    for (std::int64_t b = 0;
         b <= (std::int64_t{1} << GeometricSampler::kBucketBits); ++b) {
        for (std::int64_t d : {-1, 0, 1})
            expectExactAt(s, b * kBucket + d);
    }
    constexpr auto g = static_cast<std::int64_t>(GeometricSampler::kGuard);
    const auto &ts = s.thresholds();
    for (std::size_t k = 0; k < ts.size(); ++k) {
        // t_{k+1} is the first draw whose gap reaches k + 1.
        EXPECT_GE(s.reference(ts[k]), k + 1);
        if (ts[k] > 0) {
            EXPECT_LT(s.reference(ts[k] - 1), k + 1);
        }
        const auto t = static_cast<std::int64_t>(ts[k]);
        for (std::int64_t d : std::initializer_list<std::int64_t>{
                 -g - 1, -g, -g + 1, -1, 0, 1, g - 1, g, g + 1})
            expectExactAt(s, t + d);
    }
}

/** Random draws through sample() against the formula on the same
 *  53-bit draw, replayed from a twin Rng. */
void
expectExactOnDraws(const GeometricSampler &s, std::uint64_t seed, int n)
{
    Rng r(seed), twin(seed);
    for (int i = 0; i < n; ++i) {
        const std::uint64_t got = s.sample(r);
        const std::uint64_t m = twin.next() >> 11;
        ASSERT_EQ(got, s.reference(m))
            << "p=" << s.p() << " maxGap=" << s.maxGap() << " m=" << m;
    }
}

/** The trace generator's gap clamp. */
constexpr std::uint64_t kGeneratorMaxGap = 4096;

/** The builtin profiles' memOpFractions and a sweep across (0, 1). */
class GeometricSamplerExactTest : public ::testing::TestWithParam<double>
{
};

TEST_P(GeometricSamplerExactTest, MatchesFormulaAtEdges)
{
    for (std::uint64_t maxGap : {kGeneratorMaxGap, std::uint64_t{100000}})
        expectExactAtEdges(GeometricSampler(GetParam(), maxGap));
}

TEST_P(GeometricSamplerExactTest, MatchesFormulaOnRandomDraws)
{
    const GeometricSampler s(GetParam(), kGeneratorMaxGap);
    expectExactOnDraws(s, 0xD1CE + static_cast<std::uint64_t>(
                                       GetParam() * 1e6),
                       2'000'000);
}

TEST_P(GeometricSamplerExactTest, MatchesFormulaUnderSmallClamps)
{
    for (std::uint64_t maxGap : {0, 1, 3}) {
        const GeometricSampler s(GetParam(), maxGap);
        EXPECT_LE(s.thresholds().size(), maxGap);
        expectExactAtEdges(s);
        expectExactOnDraws(s, 99 + maxGap, 200'000);
    }
}

INSTANTIATE_TEST_SUITE_P(Probabilities, GeometricSamplerExactTest,
                         ::testing::Values(0.30, 0.35, 0.40, 0.45, 0.001,
                                           0.1, 0.5, 0.9, 0.999));

TEST(GeometricSamplerTest, TabulatesBuiltinFractions)
{
    // At the builtin memOpFractions the table must carry the draws:
    // thresholds stay one per bucket until u > 0.98, so under 2% of
    // draws reach the reference formula.
    for (double p : {0.30, 0.35, 0.40, 0.45}) {
        const GeometricSampler s(p, kGeneratorMaxGap);
        ASSERT_FALSE(s.thresholds().empty());
        EXPECT_GT(static_cast<double>(s.thresholds().back()),
                  0.98 * static_cast<double>(kDraws))
            << "p=" << p;
    }
}

TEST(GeometricSamplerTest, SampleConsumesExactlyOneDraw)
{
    for (double p : {1.0, 0.0, 0.35, 0.999}) {
        const GeometricSampler s(p, 4096);
        Rng r(21), twin(21);
        for (int i = 0; i < 10000; ++i) {
            s.sample(r);
            twin.next();
        }
        EXPECT_EQ(r.next(), twin.next()) << "p=" << p;
    }
}

TEST(CounterRngTest, PureFunctionOfSeedStreamCounter)
{
    CounterRng a(42, rngstream::kArrival);
    CounterRng b(42, rngstream::kArrival);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
    // mix() is the whole generator: replaying the counter reproduces
    // the sequence with no hidden state.
    for (std::uint64_t i = 0; i < 1000; ++i)
        ASSERT_EQ(CounterRng::mix(42, rngstream::kArrival, i),
                  CounterRng(42, rngstream::kArrival).mix(
                      42, rngstream::kArrival, i));
}

TEST(CounterRngTest, StreamsAreIndependent)
{
    // Same seed, different stream keys: the sequences must be
    // unrelated.  A shared underlying stream (the aliasing bug this
    // guards against) would show up as equal prefixes.
    const std::uint64_t keys[] = {
        rngstream::kArrival, rngstream::kArrivalPhase,
        rngstream::kServingTask, rngstream::kServingAddr};
    for (std::size_t i = 0; i < std::size(keys); ++i) {
        for (std::size_t j = i + 1; j < std::size(keys); ++j) {
            CounterRng a(7, keys[i]), b(7, keys[j]);
            int same = 0;
            for (int k = 0; k < 1000; ++k)
                same += (a.next() == b.next());
            EXPECT_LT(same, 2) << "streams " << i << " and " << j;
        }
    }
}

TEST(CounterRngTest, InterleavingCannotEntangleStreams)
{
    // The property the open-loop injector depends on: draws from one
    // stream never perturb another, no matter the interleaving.
    CounterRng arrivals(5, rngstream::kArrival);
    CounterRng addrs(5, rngstream::kServingAddr);
    std::vector<std::uint64_t> interleaved;
    for (int i = 0; i < 100; ++i) {
        interleaved.push_back(arrivals.next());
        addrs.next();
        addrs.next();
    }
    CounterRng alone(5, rngstream::kArrival);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(interleaved[static_cast<std::size_t>(i)],
                  alone.next());
}

TEST(CounterRngTest, RealInUnitIntervalAndUniform)
{
    CounterRng r(11, rngstream::kServingAddr);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(CounterRngTest, BelowStaysInBoundsAndCovers)
{
    CounterRng r(13, rngstream::kServingTask);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 300; ++i) {
        const auto v = r.below(8);
        ASSERT_LT(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 8u);
}

} // namespace
} // namespace refsched
