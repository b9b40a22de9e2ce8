/** @file
 * Integration coverage of system variants: multiple channels, DDR4
 * FGR policies, XOR bank hashing, adaptive refresh and OOO per-bank
 * running end-to-end.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/system.hh"
#include "simcore/logging.hh"

namespace refsched::core
{
namespace
{

SystemConfig
base(Policy policy)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.tasksPerCore = 2;
    cfg.timeScale = 512;
    cfg.applyPolicy(policy);
    cfg.benchmarks = {"GemsFDTD", "povray", "GemsFDTD", "povray"};
    return cfg;
}

TEST(VariantsTest, MultiChannelSystemRuns)
{
    auto cfg = base(Policy::CoDesign);
    cfg.channels = 2;
    System sys(cfg);
    const auto m = sys.run(4, 8);
    EXPECT_GT(m.harmonicMeanIpc, 0.0);
    // Both channels saw refresh commands.
    EXPECT_GT(sys.controller().channelStats(0).refreshCommands.value(),
              0.0);
    EXPECT_GT(sys.controller().channelStats(1).refreshCommands.value(),
              0.0);
    // Co-design still avoids refreshing banks on both channels.
    EXPECT_LT(m.blockedReadFraction, 0.01);
}

TEST(VariantsTest, MultiChannelBeatsOneChannelOnBandwidth)
{
    auto one = base(Policy::NoRefresh);
    auto two = base(Policy::NoRefresh);
    two.channels = 2;
    System s1(one), s2(two);
    const auto m1 = s1.run(4, 8);
    const auto m2 = s2.run(4, 8);
    // More channels can only help a memory-bound mix.
    EXPECT_GE(m2.harmonicMeanIpc, m1.harmonicMeanIpc * 0.98);
}

TEST(VariantsTest, Ddr4FgrModesRunAndRankCorrectly)
{
    const auto x1 = runOnce(base(Policy::AllBank), RunOptions{4, 8});
    const auto x2 = runOnce(base(Policy::Ddr4x2), RunOptions{4, 8});
    const auto x4 = runOnce(base(Policy::Ddr4x4), RunOptions{4, 8});
    // Section 6.3: finer FGR modes are worse at high density.
    EXPECT_GT(x1.harmonicMeanIpc, x2.harmonicMeanIpc);
    EXPECT_GT(x2.harmonicMeanIpc, x4.harmonicMeanIpc);
    // And they issue proportionally more refresh commands.
    EXPECT_GT(x2.refreshCommands, x1.refreshCommands * 3 / 2);
    EXPECT_GT(x4.refreshCommands, x2.refreshCommands * 3 / 2);
}

TEST(VariantsTest, AdaptiveRefreshRunsCloseToAllBank)
{
    const auto ab = runOnce(base(Policy::AllBank), RunOptions{4, 8});
    const auto ar = runOnce(base(Policy::Adaptive), RunOptions{4, 8});
    const double ratio = ar.harmonicMeanIpc / ab.harmonicMeanIpc;
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
}

TEST(VariantsTest, XorBankHashingRunsAndConfinesPartitions)
{
    auto cfg = base(Policy::CoDesign);
    cfg.xorBankHash = true;
    System sys(cfg);
    const auto m = sys.run(4, 8);
    EXPECT_GT(m.harmonicMeanIpc, 0.0);
    EXPECT_LT(m.blockedReadFraction, 0.01);
    // The allocator used the hashed mapping consistently: no pages
    // leaked into excluded banks (no fallbacks at this footprint).
    for (auto *task : sys.tasks()) {
        if (task->fallbackAllocs > 0)
            continue;
        for (std::size_t b = 0; b < task->possibleBanksVector.size();
             ++b) {
            if (!task->possibleBanksVector[b]) {
                ASSERT_EQ(task->residentPagesPerBank[b], 0u);
            }
        }
    }
}

TEST(VariantsTest, RigidRefreshStillCorrect)
{
    // maxPostponedRefreshes = 1 disables elastic deferral; the
    // system must still run and refresh everything (it just hurts).
    auto cfg = base(Policy::PerBank);
    cfg.mcParams.maxPostponedRefreshes = 1;
    const auto rigid = runOnce(cfg, RunOptions{4, 8});
    EXPECT_GT(rigid.harmonicMeanIpc, 0.0);
    EXPECT_GT(rigid.refreshCommands, 0u);
}

} // namespace
} // namespace refsched::core
