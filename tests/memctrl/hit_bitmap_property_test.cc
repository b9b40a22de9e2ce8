/**
 * @file
 * Property test for the controller's incrementally-maintained
 * scheduling bitmaps.  The FR-FCFS fast path and the Algorithm 3
 * pick both trust per-channel bitmaps (open-bank mask, row-hit
 * words, refresh-frozen mask) that are updated in place on every
 * enqueue, dequeue, activate, precharge and refresh transition.
 * This test drives randomized traffic through every refresh policy
 * and re-derives the bitmaps from raw queue + bank state after each
 * step via MemoryController::checkHitBitmapInvariant, failing with
 * the controller's own divergence description if the incremental
 * view ever drifts from the naive recompute.
 */

#include "memctrl/memory_controller.hh"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "simcore/logging.hh"
#include "simcore/rng.hh"

namespace refsched::memctrl
{
namespace
{

using dram::DensityGb;
using dram::RefreshPolicy;

/** Callee double: stamps an optional<Tick> slot on completion. */
struct ReadSink : Callee
{
    void
    fire(Tick now, std::uint64_t slotAddr, std::uint64_t) override
    {
        *reinterpret_cast<std::optional<Tick> *>(slotAddr) = now;
    }
};

struct Harness
{
    explicit Harness(RefreshPolicy policy, int channels,
                     const ControllerParams &params = {})
        : dev(makeDevice(channels)),
          mc(eq, dev, dram::makeRefreshScheduler(policy, dev), params)
    {
    }

    static dram::DramDeviceConfig
    makeDevice(int channels)
    {
        // Aggressive timeScale keeps refresh cadence dense enough
        // that random traffic collides with REF windows constantly.
        auto d = dram::makeDdr3_1600(DensityGb::d32,
                                     milliseconds(64.0), 64);
        d.org.channels = channels;
        return d;
    }

    bool
    read(Addr addr)
    {
        auto done = std::make_shared<std::optional<Tick>>();
        doneSlots.push_back(done);
        Request r;
        r.paddr = addr;
        r.type = Request::Type::Read;
        r.completion = &sink;
        r.cookie0 = reinterpret_cast<std::uint64_t>(done.get());
        return mc.enqueue(std::move(r));
    }

    bool
    write(Addr addr)
    {
        Request r;
        r.paddr = addr;
        r.type = Request::Type::Write;
        return mc.enqueue(std::move(r));
    }

    /** A random legal physical address, biased toward row reuse so
     *  both the hit and the miss bitmap paths are exercised. */
    Addr
    randomAddr(Rng &rng)
    {
        dram::DramCoord c;
        c.channel = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(dev.org.channels)));
        c.rank = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(dev.org.ranksPerChannel)));
        c.bank = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(dev.org.banksPerRank)));
        // Few distinct rows: adjacent requests frequently share a
        // row (hits) or conflict on one (misses).
        c.row = rng.below(4);
        c.column = rng.below(8);
        return mc.mapping().compose(c);
    }

    void
    checkAllChannels(const char *when)
    {
        for (int ch = 0; ch < dev.org.channels; ++ch) {
            std::string why;
            ASSERT_TRUE(mc.checkHitBitmapInvariant(ch, &why))
                << when << " @ tick " << eq.now() << " channel "
                << ch << ": " << why;
        }
    }

    EventQueue eq;
    dram::DramDeviceConfig dev;
    MemoryController mc;
    ReadSink sink;
    std::vector<std::shared_ptr<std::optional<Tick>>> doneSlots;
};

/**
 * The property: after any prefix of a randomized enqueue / service /
 * refresh interleaving, the incremental bitmaps equal the naive
 * recompute.  Service windows are random-length runUntil steps, so
 * the check lands mid-burst, mid-refresh, during write drains, and
 * on idle queues alike.
 */
void
runRandomizedTraffic(RefreshPolicy policy, int channels,
                     std::uint64_t seed, int steps)
{
    ControllerParams params;
    // Small queues so capacity bounces (enqueue refusals) occur and
    // the bitmaps see rejected requests too.
    params.readQueueCapacity = 16;
    params.writeQueueCapacity = 16;
    params.writeLowWatermark = 4;
    params.writeHighWatermark = 12;

    Harness h(policy, channels, params);
    Rng rng(seed);
    h.checkAllChannels("initial");

    for (int i = 0; i < steps; ++i) {
        // A burst of 0..7 enqueues, mixed read/write.
        const int burst = static_cast<int>(rng.below(8));
        for (int j = 0; j < burst; ++j) {
            const Addr a = h.randomAddr(rng);
            if (rng.below(4) == 0)
                h.write(a);
            else
                h.read(a);
        }
        h.checkAllChannels("after enqueue burst");

        // Advance a random window: sometimes sub-command-length,
        // sometimes spanning whole refresh intervals.
        const Tick step = rng.below(3) == 0
            ? nanoseconds(static_cast<double>(1 + rng.below(40)))
            : microseconds(static_cast<double>(1 + rng.below(4)));
        h.eq.runUntil(h.eq.now() + step);
        h.checkAllChannels("after service window");
        if (::testing::Test::HasFatalFailure())
            return;
    }

    // Drain: everything queued eventually completes with the
    // bitmaps still consistent at the end.
    h.eq.runUntil(h.eq.now() + milliseconds(1.0));
    h.checkAllChannels("after drain");
}

class HitBitmapPropertyTest
    : public ::testing::TestWithParam<RefreshPolicy>
{
};

TEST_P(HitBitmapPropertyTest, IncrementalMatchesNaiveSingleChannel)
{
    runRandomizedTraffic(GetParam(), /*channels=*/1, /*seed=*/0xA11,
                         /*steps=*/120);
}

TEST_P(HitBitmapPropertyTest, IncrementalMatchesNaiveMultiChannel)
{
    runRandomizedTraffic(GetParam(), /*channels=*/2, /*seed=*/0xB22,
                         /*steps=*/80);
}

TEST_P(HitBitmapPropertyTest, ManySeedsShortRuns)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        runRandomizedTraffic(GetParam(), /*channels=*/1, seed,
                             /*steps=*/25);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, HitBitmapPropertyTest,
    ::testing::Values(RefreshPolicy::NoRefresh,
                      RefreshPolicy::AllBank,
                      RefreshPolicy::PerBankRoundRobin,
                      RefreshPolicy::SequentialPerBank,
                      RefreshPolicy::OooPerBank,
                      RefreshPolicy::Adaptive),
    [](const auto &info) {
        std::string name = dram::toString(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace refsched::memctrl
