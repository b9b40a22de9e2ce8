/** @file Tests for SystemConfig policy bundles and derived values. */

#include "core/system_config.hh"

#include <gtest/gtest.h>

#include "core/experiment.hh"

#include "simcore/logging.hh"

namespace refsched::core
{
namespace
{

TEST(SystemConfigTest, PolicyBundles)
{
    SystemConfig cfg;

    cfg.applyPolicy(Policy::AllBank);
    EXPECT_EQ(cfg.refreshPolicy(), dram::RefreshPolicy::AllBank);
    EXPECT_EQ(cfg.fgrMode(), dram::FgrMode::x1);
    EXPECT_EQ(cfg.partitioning, Partitioning::None);
    EXPECT_FALSE(cfg.refreshAwareScheduling);

    cfg.applyPolicy(Policy::PerBank);
    EXPECT_EQ(cfg.refreshPolicy(),
              dram::RefreshPolicy::PerBankRoundRobin);

    cfg.applyPolicy(Policy::PerBankOoo);
    EXPECT_EQ(cfg.refreshPolicy(), dram::RefreshPolicy::OooPerBank);

    cfg.applyPolicy(Policy::Ddr4x2);
    EXPECT_EQ(cfg.refreshPolicy(), dram::RefreshPolicy::AllBank);
    EXPECT_EQ(cfg.fgrMode(), dram::FgrMode::x2);

    cfg.applyPolicy(Policy::Ddr4x4);
    EXPECT_EQ(cfg.fgrMode(), dram::FgrMode::x4);

    cfg.applyPolicy(Policy::Adaptive);
    EXPECT_EQ(cfg.refreshPolicy(), dram::RefreshPolicy::Adaptive);

    cfg.applyPolicy(Policy::NoRefresh);
    EXPECT_EQ(cfg.refreshPolicy(), dram::RefreshPolicy::NoRefresh);

    cfg.applyPolicy(Policy::CoDesign);
    EXPECT_EQ(cfg.refreshPolicy(),
              dram::RefreshPolicy::SequentialPerBank);
    EXPECT_EQ(cfg.partitioning, Partitioning::Soft);
    EXPECT_TRUE(cfg.refreshAwareScheduling);
}

TEST(SystemConfigTest, AutoQuantumMatchesRefreshSlot)
{
    SystemConfig cfg;
    cfg.timeScale = 1;
    cfg.tREFW = milliseconds(64.0);
    // 64 ms / 16 banks = 4 ms (section 5.1).
    EXPECT_EQ(cfg.effectiveQuantum(), milliseconds(4.0));

    cfg.tREFW = milliseconds(32.0);
    // 32 ms / 16 banks = 2 ms (section 6.4, footnote 12).
    EXPECT_EQ(cfg.effectiveQuantum(), milliseconds(2.0));

    cfg.quantum = milliseconds(1.0);
    EXPECT_EQ(cfg.effectiveQuantum(), milliseconds(1.0));
}

TEST(SystemConfigTest, AutoQuantumScalesWithTimeScale)
{
    SystemConfig cfg;
    cfg.tREFW = milliseconds(64.0);
    cfg.timeScale = 64;
    EXPECT_EQ(cfg.effectiveQuantum(), milliseconds(4.0) / 64);
}

TEST(SystemConfigTest, BanksPerTaskRule)
{
    SystemConfig cfg;
    cfg.tasksPerCore = 4;
    EXPECT_EQ(cfg.effectiveBanksPerTask(), 6);  // section 6.2
    cfg.tasksPerCore = 2;
    EXPECT_EQ(cfg.effectiveBanksPerTask(), 4);  // section 6.6
    cfg.banksPerTaskPerRank = 7;
    EXPECT_EQ(cfg.effectiveBanksPerTask(), 7);  // explicit override
}

TEST(SystemConfigTest, DeviceConfigPicksUpTopology)
{
    SystemConfig cfg;
    cfg.channels = 2;
    cfg.density = dram::DensityGb::d16;
    cfg.timeScale = 64;
    const auto dev = cfg.deviceConfig();
    EXPECT_EQ(dev.org.channels, 2);
    EXPECT_EQ(dev.org.rowsPerBank, 256u * 1024u / 64u);
    EXPECT_EQ(dev.timings.tRFCab, nanoseconds(530.0));
}

TEST(SystemConfigTest, CheckCatchesInconsistencies)
{
    SystemConfig cfg;
    cfg.benchmarks = {"mcf"};  // 1 != 8 tasks
    EXPECT_THROW(cfg.check(), FatalError);

    SystemConfig cfg2;
    cfg2.numCores = 0;
    EXPECT_THROW(cfg2.check(), FatalError);

    SystemConfig cfg3;
    cfg3.applyPolicy(Policy::PerBank);
    cfg3.refreshAwareScheduling = true;  // needs CoDesign schedule
    EXPECT_THROW(cfg3.check(), FatalError);

    SystemConfig cfg4;
    cfg4.applyPolicy(Policy::CoDesign);
    cfg4.etaThresh = 0;
    EXPECT_THROW(cfg4.check(), FatalError);
}

TEST(SystemConfigTest, PolicyNames)
{
    EXPECT_EQ(toString(Policy::AllBank), "all-bank");
    EXPECT_EQ(toString(Policy::CoDesign), "co-design");
    EXPECT_EQ(toString(Policy::Ddr4x4), "ddr4-4x");
}

TEST(SystemConfigTest, PolicyFromStringInvertsToString)
{
    for (int i = 0; i <= static_cast<int>(Policy::NoRefresh); ++i) {
        const auto p = static_cast<Policy>(i);
        EXPECT_EQ(policyFromString(toString(p)), p);
    }
    EXPECT_THROW(policyFromString("co_design"), FatalError);
    EXPECT_THROW(policyFromString(""), FatalError);
}

TEST(SystemConfigTest, CheckHoldsTheFrontEndRanges)
{
    const auto rejects = [](auto mutate) {
        SystemConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.check(), FatalError);
    };
    rejects([](SystemConfig &c) { c.numCores = 65; });
    rejects([](SystemConfig &c) { c.tasksPerCore = 0; });
    rejects([](SystemConfig &c) { c.tasksPerCore = 65; });
    rejects([](SystemConfig &c) { c.channels = 0; });
    rejects([](SystemConfig &c) { c.channels = 9; });
    rejects([](SystemConfig &c) { c.tREFW = milliseconds(0.5); });
    rejects([](SystemConfig &c) { c.tREFW = milliseconds(1001.0); });
    rejects([](SystemConfig &c) { c.banksPerTaskPerRank = -2; });
    rejects([](SystemConfig &c) { c.banksPerTaskPerRank = 65; });
    rejects([](SystemConfig &c) { c.etaThresh = (1 << 20) + 1; });

    SystemConfig edge;
    edge.numCores = 64;
    edge.tasksPerCore = 64;
    edge.channels = 8;
    edge.tREFW = milliseconds(1.0);
    edge.banksPerTaskPerRank = -1;
    edge.etaThresh = 1 << 20;
    EXPECT_NO_THROW(edge.check());
    edge.tREFW = milliseconds(1000.0);
    EXPECT_NO_THROW(edge.check());
}

TEST(RunOptionsTest, CheckHoldsTheQuantaRanges)
{
    EXPECT_NO_THROW((RunOptions{0, 1}.check()));
    EXPECT_NO_THROW((RunOptions{1 << 20, 1 << 20}.check()));
    EXPECT_THROW((RunOptions{-1, 16}.check()), FatalError);
    EXPECT_THROW((RunOptions{8, 0}.check()), FatalError);
    EXPECT_THROW((RunOptions{(1 << 20) + 1, 16}.check()), FatalError);
    EXPECT_THROW((RunOptions{8, (1 << 20) + 1}.check()), FatalError);
}

} // namespace
} // namespace refsched::core
