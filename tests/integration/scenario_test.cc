/**
 * @file
 * End-to-end tests for the dynamic-workload scenario engine on the
 * checked-in adversarial-colocation fixture: churn mechanics and
 * accounting, the migration-recovers-stale-placement headline, and
 * bit-identical determinism across --jobs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "memctrl/memory_controller.hh"
#include "os/scenario_director.hh"
#include "validate/golden_trace.hh"
#include "workload/scenario.hh"

namespace refsched::core
{
namespace
{

std::string
fixturePath()
{
    return std::string(REFSCHED_TEST_DATA_DIR)
        + "/adversarial_colocation.scenario";
}

/** The run the fixture header documents: co-design, 1 core x 4
 *  tasks, d32, timeScale 1024. */
SystemConfig
fixtureConfig(bool migrate)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.tasksPerCore = 4;
    cfg.timeScale = 1024;
    cfg.density = dram::DensityGb::d32;
    cfg.seed = 1;
    cfg.applyPolicy(Policy::CoDesign);
    cfg.benchmarks = {"GemsFDTD", "stream", "GemsFDTD", "npb_ua"};
    cfg.scenario = workload::ScenarioScript::parseFile(fixturePath());
    cfg.scenario.migrate = migrate;
    cfg.validate = true;
    return cfg;
}

TEST(ScenarioIntegrationTest, ChurnMechanicsAndAccounting)
{
    // warmup=0 so the churn quanta land inside the measured region
    // and the director's counters survive the stats reset.
    System sys(fixtureConfig(/*migrate=*/true));
    const Metrics m = sys.run(/*warmupQuanta=*/0,
                              /*measureQuanta=*/28);
    EXPECT_EQ(m.validationViolations, 0u) << m.firstViolation;

    const os::ScenarioDirector *dir = sys.scenarioDirector();
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(dir->spawns.value(), 1.0);
    EXPECT_EQ(dir->kills.value(), 1.0);
    // The re-binpack after the kill strands pages; all of them move,
    // each page as pageBytes/64 read+write line pairs.
    EXPECT_GT(dir->pagesMigrated.value(), 0.0);
    EXPECT_EQ(dir->migrationReads.value(),
              dir->migrationWrites.value());
    EXPECT_EQ(dir->migrationReads.value(),
              dir->pagesMigrated.value()
                  * static_cast<double>(
                      sys.controller().mapping().pageBytes() / 64));
    // 28 quanta are enough for the bandwidth-bound sweep to drain
    // completely (copying is real traffic, not a teleport).
    EXPECT_FALSE(dir->migrationsPending());

    // Survivors (pids 1, 3, 4) plus the adversarial arrival.
    const auto &live = dir->liveTasks();
    ASSERT_EQ(live.size(), 4u);
    EXPECT_EQ(live.back()->pid(), 5);
    EXPECT_EQ(live.back()->name(), "stream");
}

TEST(ScenarioIntegrationTest, MigrationRecoversAdversarialColocation)
{
    // The acceptance experiment: churn + consolidation in warm-up,
    // measure the post-churn steady state.  Stale placement makes
    // the co-design schedule "clean" tasks whose stranded pages sit
    // in refreshing banks; migration restores the guarantee.
    const auto runFixture = [](bool migrate) {
        System sys(fixtureConfig(migrate));
        const Metrics m = sys.run(/*warmupQuanta=*/24,
                                  /*measureQuanta=*/32);
        EXPECT_EQ(m.validationViolations, 0u) << m.firstViolation;
        const auto &ch = sys.controller().channelStats(0);
        return std::make_tuple(m, ch.readLatencyClean.samples(),
                               ch.readLatencyBlocked.samples(),
                               ch.readLatencyClean.mean(),
                               ch.readLatencyBlocked.mean());
    };

    const auto [stale, staleClean, staleBlocked, staleCleanMean,
                staleBlockedMean] = runFixture(false);
    const auto [moved, movedClean, movedBlocked, movedCleanMean,
                movedBlockedMean] = runFixture(true);

    // Without migration the stale placement leaks blocked reads and
    // forces Algorithm 3 into best-effort picks...
    EXPECT_GT(stale.blockedReadFraction, 0.0);
    EXPECT_GT(stale.bestEffortPicks, 0u);
    EXPECT_GT(staleBlocked, 0u);
    // ...and the clean/blocked latency split shows what each blocked
    // read costs: a refresh-blocked read waits at least twice the
    // mean clean latency.
    EXPECT_GT(staleBlockedMean, 2.0 * staleCleanMean);

    // Migration recovers the co-design's placement guarantee: every
    // pick is clean again and no measured read hits a refreshing
    // bank.
    EXPECT_EQ(moved.bestEffortPicks, 0u);
    EXPECT_EQ(movedBlocked, 0u);
    EXPECT_LT(moved.blockedReadFraction, stale.blockedReadFraction);
    EXPECT_GT(movedClean, 0u);
    (void)movedCleanMean;
    (void)movedBlockedMean;
    (void)staleClean;
}

/** writeStatsJson minus the host-wall-clock self-profile line. */
std::string
statsJsonStripped(System &sys, const Metrics &m)
{
    std::ostringstream os;
    sys.writeStatsJson(os, m);
    std::string text = os.str();
    const auto at = text.find("\"selfProfile\"");
    if (at != std::string::npos) {
        const auto end = text.find('\n', at);
        text.erase(at, end == std::string::npos ? text.size() - at
                                                : end - at);
    }
    return text;
}

/** One traced fixture cell: its trace and stripped stats JSON. */
struct TracedCell
{
    std::vector<std::uint8_t> trace;
    std::string stats;
};

/** Run the fixture config (migrate on, then off) on @p channels
 *  under @p jobs workers, tracing each cell. */
std::vector<TracedCell>
runScenarioGrid(int jobs, int channels)
{
    std::vector<TracedCell> out(2);
    std::vector<CellSpec> specs;
    for (std::size_t i = 0; i < out.size(); ++i) {
        SystemConfig cfg = fixtureConfig(/*migrate=*/i == 0);
        cfg.channels = channels;
        TracedCell *slot = &out[i];
        CellSpec spec;
        spec.custom = [cfg, slot] {
            validate::TraceRecorder rec;
            System sys(cfg);
            sys.attachProbe(&rec);
            const Metrics m = sys.run(/*warmupQuanta=*/1,
                                      /*measureQuanta=*/4);
            EXPECT_EQ(m.validationViolations, 0u) << m.firstViolation;
            slot->trace = rec.data();
            slot->stats = statsJsonStripped(sys, m);
            return m;
        };
        specs.push_back(std::move(spec));
    }
    ParallelRunner(jobs).runCells(specs);
    return out;
}

/** Both grids must match cell for cell: trace bytes and stats. */
void
expectGridsIdentical(const std::vector<TracedCell> &seq,
                     const std::vector<TracedCell> &par,
                     const std::string &label)
{
    for (std::size_t i = 0; i < seq.size(); ++i) {
        SCOPED_TRACE(i == 0 ? "migrate=1" : "migrate=0");
        EXPECT_FALSE(seq[i].trace.empty());
        if (seq[i].trace != par[i].trace) {
            const validate::TraceDiff d = validate::diffTraces(
                validate::decodeTrace(seq[i].trace),
                validate::decodeTrace(par[i].trace));
            ADD_FAILURE() << label << " trace divergence: "
                          << d.describe();
        }
        EXPECT_EQ(seq[i].stats, par[i].stats) << label;
    }
}

TEST(ScenarioIntegrationTest, TraceIdenticalAcrossJobCounts)
{
    expectGridsIdentical(runScenarioGrid(/*jobs=*/1, /*channels=*/1),
                         runScenarioGrid(/*jobs=*/8, /*channels=*/1),
                         "jobs=1 vs jobs=8");
}

TEST(ScenarioIntegrationTest, TwoChannelTraceAndStatsIdenticalAcrossJobs)
{
    expectGridsIdentical(runScenarioGrid(/*jobs=*/1, /*channels=*/2),
                         runScenarioGrid(/*jobs=*/4, /*channels=*/2),
                         "2ch jobs=1 vs jobs=4");
}

} // namespace
} // namespace refsched::core
