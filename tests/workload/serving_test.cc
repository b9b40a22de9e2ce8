/** @file Unit and integration tests for the open-loop serving layer. */

#include "workload/serving.hh"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "simcore/logging.hh"

namespace refsched::workload
{
namespace
{

TEST(ServingConfigTest, ParseSerializeRoundTrip)
{
    const auto cfg = ServingConfig::parse(
        "arrival=mmpp,load=0.75,pool=4,queue=16,lines=2,"
        "burst-ratio=3.0,burst-frac=0.2,burst-dwell=32");
    EXPECT_TRUE(cfg.enabled);
    EXPECT_EQ(cfg.shape.kind, ArrivalKind::Mmpp);
    EXPECT_DOUBLE_EQ(cfg.loadReqPerUs, 0.75);
    EXPECT_EQ(cfg.poolSize, 4);
    EXPECT_EQ(cfg.queueCapacity, 16);
    EXPECT_EQ(cfg.linesPerRequest, 2);
    EXPECT_DOUBLE_EQ(cfg.shape.burstRatio, 3.0);
    EXPECT_DOUBLE_EQ(cfg.shape.burstFraction, 0.2);
    EXPECT_DOUBLE_EQ(cfg.shape.burstDwellArrivals, 32.0);

    const auto again = ServingConfig::parse(cfg.serialize());
    EXPECT_EQ(again.serialize(), cfg.serialize());
}

TEST(ServingConfigTest, ParseRejectsUnknownKeyAndBadValues)
{
    EXPECT_THROW(ServingConfig::parse("arrival=poisson,rate=1"),
                 FatalError);
    EXPECT_THROW(ServingConfig::parse("load=0"), FatalError);
    EXPECT_THROW(ServingConfig::parse("pool=0"), FatalError);
    EXPECT_THROW(ServingConfig::parse("lines=0"), FatalError);
    EXPECT_THROW(ServingConfig::parse("queue=-1"), FatalError);
}

TEST(ServingConfigTest, ParseRejectsMalformedNumbers)
{
    EXPECT_THROW(ServingConfig::parse("load=abc"), FatalError);
    EXPECT_THROW(ServingConfig::parse("load=1,pool=4x"), FatalError);
    EXPECT_THROW(ServingConfig::parse("load=1,lines="), FatalError);
    EXPECT_THROW(ServingConfig::parse("load=1e400"), FatalError);
    EXPECT_DOUBLE_EQ(ServingConfig::parse("load=1.5e-1").loadReqPerUs,
                     0.15);
}

TEST(ServingConfigTest, ParseRejectsLoadPastTickRange)
{
    // A mean gap of 1e306 ticks does not fit in a Tick.
    EXPECT_THROW(ServingConfig::parse("load=1e-300"), FatalError);
    EXPECT_THROW(ServingConfig::parse("load=1e-14"), FatalError);
    // 1e18 ticks still fits.
    EXPECT_DOUBLE_EQ(ServingConfig::parse("load=1e-12").meanGapTicks(),
                     1e18);
}

TEST(ServingConfigTest, MeanGapMatchesOfferedLoad)
{
    ServingConfig cfg;
    cfg.loadReqPerUs = 2.0; // 2 req/us -> 500k ticks (ps) apart
    EXPECT_DOUBLE_EQ(cfg.meanGapTicks(), 500000.0);
}

core::SystemConfig
servingSystemConfig(const std::string &spec, int channels = 1)
{
    core::SystemConfig cfg = core::makeConfig(
        "WL-1", core::Policy::AllBank, dram::DensityGb::d32,
        milliseconds(64.0), /*numCores=*/2, /*tasksPerCore=*/4,
        /*timeScale=*/1024);
    cfg.channels = channels;
    cfg.serving = ServingConfig::parse(spec);
    return cfg;
}

TEST(ServingInjectorTest, OpenLoopAccountingBalances)
{
    core::System sys(servingSystemConfig(
        "arrival=poisson,load=0.5,pool=4,queue=8,lines=4"));
    sys.run(/*warmupQuanta=*/0, /*measureQuanta=*/4);

    auto *inj = sys.servingInjector();
    ASSERT_NE(inj, nullptr);
    EXPECT_GT(inj->arrivals(), 0u);
    EXPECT_GT(inj->completed(), 0u);
    // Every arrival is completed, dropped, or still in flight /
    // queued at cut-off; in-flight is bounded by pool + queue.
    const std::uint64_t unresolved =
        inj->arrivals() - inj->completed() - inj->dropped();
    EXPECT_LE(unresolved, 4u + 8u);
    EXPECT_EQ(inj->latency().samples(), inj->completed());
    EXPECT_EQ(inj->latencyClean().samples()
                  + inj->latencyBlocked().samples(),
              inj->completed());
}

TEST(ServingInjectorTest, OverloadDropsWhenBacklogFull)
{
    // Offered load far above what pool=1 can drain, with a tiny
    // backlog: the open-loop model must shed, not self-throttle.
    core::System sys(servingSystemConfig(
        "arrival=poisson,load=50,pool=1,queue=2,lines=8"));
    sys.run(/*warmupQuanta=*/0, /*measureQuanta=*/2);

    auto *inj = sys.servingInjector();
    ASSERT_NE(inj, nullptr);
    EXPECT_GT(inj->dropped(), 0u);
    // Queueing delay is visible in the end-to-end latency: the mean
    // of all-latency must be at least the mean pure-service time
    // seen by the first (unqueued) request.
    EXPECT_GT(inj->queueDelay().samples(), 0u);
}

/** writeStatsJson minus the host-wall-clock self-profile line. */
std::string
statsJsonStripped(core::System &sys, const core::Metrics &m)
{
    std::ostringstream os;
    sys.writeStatsJson(os, m);
    std::string text = os.str();
    const auto at = text.find("\"selfProfile\"");
    if (at != std::string::npos)
        text.erase(at, text.find('\n', at) - at);
    return text;
}

TEST(ServingInjectorTest, RunToRunDeterminism)
{
    const auto spec = "arrival=mmpp,load=0.4,pool=4,queue=16,lines=4";
    auto jsonOf = [&] {
        core::System sys(servingSystemConfig(spec));
        const auto m = sys.run(0, 3);
        return statsJsonStripped(sys, m);
    };
    const std::string a = jsonOf();
    const std::string b = jsonOf();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("serving.reqLatency"), std::string::npos);
}

TEST(ServingIdentityTest, OpenLoopInjectionIdenticalAcrossJobs)
{
    // Serving cells on 1 and 2 channels, bursty and Poisson, run
    // under one worker and under eight: the stats JSON (every
    // serving.* histogram included) must be byte-identical.
    const std::vector<std::pair<const char *, int>> cells = {
        {"arrival=mmpp,load=0.3,pool=4,queue=16,lines=4", 2},
        {"arrival=mmpp,load=0.3,pool=4,queue=16,lines=4", 1},
        {"arrival=poisson,load=1.6,pool=2,queue=4,lines=4", 2},
    };
    const auto runGrid = [&cells](int jobs) {
        std::vector<std::string> out(cells.size());
        std::vector<core::CellSpec> specs;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const core::SystemConfig cfg =
                servingSystemConfig(cells[i].first, cells[i].second);
            std::string *slot = &out[i];
            core::CellSpec spec;
            spec.custom = [cfg, slot] {
                core::System sys(cfg);
                const auto m = sys.run(/*warmupQuanta=*/1,
                                       /*measureQuanta=*/2);
                *slot = statsJsonStripped(sys, m);
                return m;
            };
            specs.push_back(std::move(spec));
        }
        core::ParallelRunner(jobs).runCells(specs);
        return out;
    };

    const std::vector<std::string> seq = runGrid(/*jobs=*/1);
    const std::vector<std::string> par = runGrid(/*jobs=*/8);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        // The stats must actually contain serving data, or identity
        // proves nothing.
        EXPECT_NE(seq[i].find("serving.arrivals"), std::string::npos);
        EXPECT_EQ(seq[i], par[i])
            << cells[i].first << " channels=" << cells[i].second;
    }
}

TEST(ServingInjectorTest, StatsJsonCarriesServingIdentity)
{
    core::System sys(servingSystemConfig(
        "arrival=poisson,load=0.2,pool=2,queue=4,lines=2"));
    const auto m = sys.run(0, 1);
    std::ostringstream os;
    sys.writeStatsJson(os, m);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"serving\""), std::string::npos);
    EXPECT_NE(text.find("serving.arrivals"), std::string::npos);
    EXPECT_NE(text.find("serving.drops"), std::string::npos);
    EXPECT_NE(text.find("\"p999\""), std::string::npos);
}

} // namespace
} // namespace refsched::workload
