/**
 * @file
 * Determinism tests for the work-stealing experiment runner: the
 * same cell grid must yield bit-identical Metrics for any worker
 * count, in submission order.
 */

#include "core/parallel_runner.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/experiment.hh"

namespace refsched::core
{
namespace
{

/** Every field of TaskMetrics, compared exactly. */
void
expectTaskMetricsEq(const TaskMetrics &a, const TaskMetrics &b)
{
    EXPECT_EQ(a.pid, b.pid);
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.pageFaults, b.pageFaults);
    EXPECT_EQ(a.fallbackAllocs, b.fallbackAllocs);
    EXPECT_EQ(a.residentPages, b.residentPages);
    EXPECT_EQ(a.quantaRun, b.quantaRun);
}

/** Every field of Metrics, compared exactly (no tolerances). */
void
expectMetricsEq(const Metrics &a, const Metrics &b)
{
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t t = 0; t < a.tasks.size(); ++t)
        expectTaskMetricsEq(a.tasks[t], b.tasks[t]);
    EXPECT_EQ(a.harmonicMeanIpc, b.harmonicMeanIpc);
    EXPECT_EQ(a.weightedIpcSum, b.weightedIpcSum);
    EXPECT_EQ(a.avgReadLatencyMemCycles, b.avgReadLatencyMemCycles);
    EXPECT_EQ(a.rowHitRate, b.rowHitRate);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.refreshCommands, b.refreshCommands);
    EXPECT_EQ(a.readsBlockedByRefresh, b.readsBlockedByRefresh);
    EXPECT_EQ(a.blockedReadFraction, b.blockedReadFraction);
    EXPECT_EQ(a.quantaScheduled, b.quantaScheduled);
    EXPECT_EQ(a.cleanPicks, b.cleanPicks);
    EXPECT_EQ(a.deferredPicks, b.deferredPicks);
    EXPECT_EQ(a.fallbackPicks, b.fallbackPicks);
    EXPECT_EQ(a.bestEffortPicks, b.bestEffortPicks);
    EXPECT_EQ(a.vruntimeSpreadQuanta, b.vruntimeSpreadQuanta);
    EXPECT_EQ(a.energy.activatePj, b.energy.activatePj);
    EXPECT_EQ(a.energy.readWritePj, b.energy.readWritePj);
    EXPECT_EQ(a.energy.refreshPj, b.energy.refreshPj);
    EXPECT_EQ(a.energy.backgroundPj, b.energy.backgroundPj);
    EXPECT_EQ(a.energyPerInstructionPj, b.energyPerInstructionPj);
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
}

/** A small but non-trivial grid (mixed policies and workloads). */
std::vector<CellSpec>
testGrid()
{
    RunOptions run;
    run.warmupQuanta = 1;
    run.measureQuanta = 2;

    std::vector<CellSpec> cells;
    for (const auto *wl : {"WL-1", "WL-5"}) {
        for (auto policy :
             {Policy::AllBank, Policy::PerBank, Policy::CoDesign}) {
            CellSpec cell;
            cell.cfg = makeConfig(wl, policy, dram::DensityGb::d32,
                                  milliseconds(64.0), 2, 4, 2048);
            cell.opts = run;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

TEST(ParallelRunnerTest, JobsDefaultsToAtLeastOne)
{
    EXPECT_GE(ParallelRunner().jobs(), 1);
    EXPECT_GE(ParallelRunner(0).jobs(), 1);
    EXPECT_THROW(ParallelRunner(-3), FatalError);
    EXPECT_EQ(ParallelRunner(7).jobs(), 7);
}

TEST(ParallelRunnerTest, ResultsIdenticalAcrossThreadCounts)
{
    const auto cells = testGrid();
    const auto seq = ParallelRunner(1).runCells(cells);
    const auto two = ParallelRunner(2).runCells(cells);
    const auto eight = ParallelRunner(8).runCells(cells);

    ASSERT_EQ(seq.size(), cells.size());
    ASSERT_EQ(two.size(), cells.size());
    ASSERT_EQ(eight.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expectMetricsEq(seq[i], two[i]);
        expectMetricsEq(seq[i], eight[i]);
    }
}

TEST(ParallelRunnerTest, ResultsMatchDirectRunOnce)
{
    const auto cells = testGrid();
    const auto results = ParallelRunner(4).runCells(cells);
    // Spot-check submission-order mapping against direct runs.
    expectMetricsEq(results.front(),
                    runOnce(cells.front().cfg, cells.front().opts));
    expectMetricsEq(results.back(),
                    runOnce(cells.back().cfg, cells.back().opts));
}

TEST(ParallelRunnerTest, CustomThunkCellsRun)
{
    std::vector<CellSpec> cells(3);
    for (int i = 0; i < 3; ++i) {
        cells[static_cast<std::size_t>(i)].custom = [i] {
            Metrics m;
            m.harmonicMeanIpc = 1.0 + i;
            return m;
        };
    }
    const auto results = ParallelRunner(2).runCells(cells);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].harmonicMeanIpc, 1.0);
    EXPECT_EQ(results[1].harmonicMeanIpc, 2.0);
    EXPECT_EQ(results[2].harmonicMeanIpc, 3.0);
}

TEST(ParallelRunnerTest, RunIndexedCoversEveryIndexOnce)
{
    constexpr std::size_t kN = 97;
    std::vector<std::atomic<int>> hits(kN);
    ParallelRunner(4).runIndexed(
        kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelRunnerTest, RunIndexedHandlesEmptyRange)
{
    int calls = 0;
    ParallelRunner(4).runIndexed(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    EXPECT_TRUE(ParallelRunner(4).runCells({}).empty());
}

TEST(ParallelRunnerTest, WorkerExceptionPropagates)
{
    EXPECT_THROW(ParallelRunner(2).runIndexed(8,
                                              [](std::size_t i) {
                                                  if (i == 5) {
                                                      throw std::
                                                          runtime_error(
                                                              "boom");
                                                  }
                                              }),
                 std::runtime_error);
}

} // namespace
} // namespace refsched::core
