/** @file Tests for synthetic trace generation. */

#include "workload/trace_generator.hh"

#include <gtest/gtest.h>

#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "simcore/logging.hh"

namespace refsched::workload
{
namespace
{

BenchmarkProfile
testProfile()
{
    BenchmarkProfile p;
    p.name = "test";
    p.footprintBytes = 16 * kMiB;
    p.memOpFraction = 0.4;
    p.writeFraction = 0.3;
    p.seqFraction = 0.2;
    p.randomFraction = 0.1;
    p.dependentFraction = 0.5;
    p.hotsetBytes = 64 * kKiB;
    return p;
}

TEST(TraceGeneratorTest, DeterministicForSameSeed)
{
    SyntheticTraceGenerator a(testProfile(), 42, 16 * kMiB);
    SyntheticTraceGenerator b(testProfile(), 42, 16 * kMiB);
    for (int i = 0; i < 5000; ++i) {
        const auto ea = a.next();
        const auto eb = b.next();
        ASSERT_EQ(ea.vaddr, eb.vaddr);
        ASSERT_EQ(ea.gap, eb.gap);
        ASSERT_EQ(ea.isWrite, eb.isWrite);
        ASSERT_EQ(ea.sequential, eb.sequential);
        ASSERT_EQ(ea.dependent, eb.dependent);
    }
}

TEST(TraceGeneratorTest, DifferentSeedsDiffer)
{
    SyntheticTraceGenerator a(testProfile(), 1, 16 * kMiB);
    SyntheticTraceGenerator b(testProfile(), 2, 16 * kMiB);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (a.next().vaddr == b.next().vaddr);
    EXPECT_LT(same, 900);  // hot-set overlap allows some collisions
}

TEST(TraceGeneratorTest, AddressesStayInFootprint)
{
    SyntheticTraceGenerator g(testProfile(), 7, 16 * kMiB);
    for (int i = 0; i < 20000; ++i)
        ASSERT_LT(g.next().vaddr, 16 * kMiB);
}

TEST(TraceGeneratorTest, MixtureFractionsRealised)
{
    SyntheticTraceGenerator g(testProfile(), 5, 16 * kMiB);
    const int n = 50000;
    int seq = 0, writes = 0, dependent = 0, hot = 0;
    double gapSum = 0.0;
    for (int i = 0; i < n; ++i) {
        const auto e = g.next();
        seq += e.sequential;
        writes += e.isWrite;
        dependent += e.dependent;
        hot += (e.vaddr < 64 * kKiB && !e.sequential);
        gapSum += e.gap;
    }
    EXPECT_NEAR(seq / static_cast<double>(n), 0.2, 0.02);
    EXPECT_NEAR(writes / static_cast<double>(n), 0.3, 0.02);
    // Dependent accesses only come from the random fraction.
    EXPECT_NEAR(dependent / static_cast<double>(n), 0.1 * 0.5, 0.01);
    // Hot accesses (0.7) plus random ones landing under 64 KiB.
    EXPECT_GT(hot / static_cast<double>(n), 0.65);
    // Mean gap = (1-f)/f for f = 0.4.
    EXPECT_NEAR(gapSum / n, 1.5, 0.1);
}

TEST(TraceGeneratorTest, SequentialAccessesAdvanceByStride)
{
    BenchmarkProfile p = testProfile();
    p.seqFraction = 1.0;
    p.randomFraction = 0.0;
    SyntheticTraceGenerator g(p, 3, 16 * kMiB);
    // Four interleaved streams, each advancing by accessBytes.
    Addr last[4];
    for (auto &l : last)
        l = 0;
    for (int i = 0; i < 4; ++i)
        last[i] = g.next().vaddr;
    for (int round = 0; round < 100; ++round) {
        for (int s = 0; s < 4; ++s) {
            const Addr v = g.next().vaddr;
            EXPECT_EQ(v, last[s] + p.accessBytes);
            last[s] = v;
        }
    }
}

TEST(TraceGeneratorTest, FootprintClampedToHotset)
{
    // A pathological footprint smaller than the hot set is clamped.
    SyntheticTraceGenerator g(testProfile(), 3, 1 * kKiB);
    EXPECT_EQ(g.footprintBytes(), 64 * kKiB);
}

TEST(TraceGeneratorTest, PhasedProfilesAlternateIntensity)
{
    BenchmarkProfile p = testProfile();
    p.memPhaseInstrs = 50000;
    p.computePhaseInstrs = 50000;
    SyntheticTraceGenerator g(p, 13, 16 * kMiB);

    // Consume entries phase by phase and classify each window.
    int memWindows = 0, computeWindows = 0;
    bool lastPhase = g.inMemPhase();
    std::uint64_t nonHot = 0, total = 0;
    for (int i = 0; i < 400000 / 3; ++i) {
        const auto e = g.next();
        ++total;
        nonHot += (e.sequential || e.vaddr >= p.hotsetBytes);
        if (g.inMemPhase() != lastPhase) {
            // Phase boundary: check the finished window's character.
            const double frac = static_cast<double>(nonHot)
                / static_cast<double>(total);
            if (lastPhase) {
                EXPECT_GT(frac, 0.1);  // mem phase: misses flow
                ++memWindows;
            } else {
                EXPECT_LT(frac, 0.02);  // compute phase: hot only
                ++computeWindows;
            }
            lastPhase = g.inMemPhase();
            nonHot = total = 0;
        }
    }
    EXPECT_GT(memWindows, 2);
    EXPECT_GT(computeWindows, 2);
}

TEST(TraceGeneratorTest, UnphasedProfileStaysInMemPhase)
{
    SyntheticTraceGenerator g(testProfile(), 13, 16 * kMiB);
    for (int i = 0; i < 1000; ++i)
        g.next();
    EXPECT_TRUE(g.inMemPhase());
}

TEST(TraceGeneratorTest, MismatchedPhaseConfigIsFatal)
{
    BenchmarkProfile p = testProfile();
    p.memPhaseInstrs = 1000;  // compute side left zero
    EXPECT_THROW((SyntheticTraceGenerator{p, 1, 16 * kMiB}),
                 FatalError);
}

TEST(TraceGeneratorTest, StreamCursorsWrapAround)
{
    BenchmarkProfile p = testProfile();
    p.seqFraction = 1.0;
    p.randomFraction = 0.0;
    p.hotsetBytes = 4 * kKiB;
    const std::uint64_t fp = 64 * kKiB;
    SyntheticTraceGenerator g(p, 9, fp);
    for (int i = 0; i < 100000; ++i)
        ASSERT_LT(g.next().vaddr, fp);
}

/** FNV-1a over every field of the first @p n entries of @p gen. */
std::uint64_t
streamDigest(SyntheticTraceGenerator &gen, int n)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    };
    for (int i = 0; i < n; ++i) {
        const auto e = gen.next();
        mix(e.vaddr);
        mix(e.gap);
        mix((e.isWrite ? 1U : 0U) | (e.sequential ? 2U : 0U)
            | (e.dependent ? 4U : 0U));
    }
    return h;
}

constexpr int kPinnedEntries = 200000;

/**
 * Pins the exact entry stream of every built-in profile.  The digests
 * were recorded from the log1p-per-draw gap sampler; any change to the
 * draw order, the gap sampler or the address arithmetic fails here,
 * before it reaches a system-level golden trace.
 */
TEST(TraceGeneratorTest, BuiltinStreamsArePinned)
{
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"GemsFDTD", 0x3ab055e146dbd28cULL},
        {"bwaves", 0xef33f94ffdc8af81ULL},
        {"h264ref", 0x06470dc8a7f69733ULL},
        {"mcf", 0xc55509175b1c7158ULL},
        {"npb_ua", 0x1b719d2927d033d7ULL},
        {"povray", 0xd3677cac8c59af2eULL},
        {"stream", 0x76c1d3481707ead7ULL},
    };
    ASSERT_EQ(std::size(pinned), builtinProfileNames().size());
    for (const auto &[name, digest] : pinned) {
        const auto &prof = profileByName(name);
        SyntheticTraceGenerator gen(prof, 1009, prof.footprintBytes / 64);
        const std::uint64_t got = streamDigest(gen, kPinnedEntries);
        EXPECT_EQ(got, digest) << name << ": 0x" << std::hex << got;
    }
}

/** The same pin for a macro-phase schedule (the generator switches
 *  pattern mixture, intensity and footprint mid-stream) and for a
 *  micro-phased profile (hot-set-only compute phases). */
TEST(TraceGeneratorTest, PhasedStreamsArePinned)
{
    BenchmarkProfile macro = profileByName("mcf");
    macro.phases = PhaseSchedule::parse(
        "mcf@40000@1|povray@25000@0.5|stream@30000@2|GemsFDTD@20000@1");
    SyntheticTraceGenerator a(macro, 77, 16 * kMiB);
    const std::uint64_t gotMacro = streamDigest(a, kPinnedEntries);
    EXPECT_EQ(gotMacro, 0xb5abefa10f95e8b4ULL) << "0x" << std::hex << gotMacro;

    BenchmarkProfile micro = testProfile();
    micro.memPhaseInstrs = 30000;
    micro.computePhaseInstrs = 20000;
    SyntheticTraceGenerator b(micro, 78, 16 * kMiB);
    const std::uint64_t gotMicro = streamDigest(b, kPinnedEntries);
    EXPECT_EQ(gotMicro, 0x53716f82645dc36bULL) << "0x" << std::hex << gotMicro;
}

TEST(TraceGeneratorTest, ConcurrentConstructionMatchesSequential)
{
    // Generators share one gap sampler per memOpFraction across the
    // process; building them from several threads at once (as
    // --jobs workers do) must neither race nor change a stream.
    auto digestFor = [](int i) {
        BenchmarkProfile p = testProfile();
        p.memOpFraction = 0.2 + 0.01 * (i % 5);  // some shared, some not
        SyntheticTraceGenerator gen(p, 500 + static_cast<unsigned>(i),
                                    16 * kMiB);
        return streamDigest(gen, 2000);
    };
    constexpr int kThreads = 4, kPerThread = 8;
    std::vector<std::uint64_t> parallel(kThreads * kPerThread);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int j = 0; j < kPerThread; ++j) {
                const int i = t * kPerThread + j;
                parallel[static_cast<std::size_t>(i)] = digestFor(i);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    for (int i = 0; i < kThreads * kPerThread; ++i)
        EXPECT_EQ(parallel[static_cast<std::size_t>(i)], digestFor(i)) << i;
}

} // namespace
} // namespace refsched::workload
