/**
 * @file
 * Timed execution of a workload's cells and the correctness gate.
 *
 * A rep constructs and runs every cell of the plan once, fanned out
 * through core::ParallelRunner at the plan's job count, timing
 * System construction and System::run separately.  The calibration
 * pass runs each cell once more as run(0, warmup + measure) -- the
 * same simulated interval with the counter reset at tick 0 -- to
 * read whole-run counts, and in the traced run also counts probe
 * events and replays the layers.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cells.hh"
#include "layers.hh"

namespace perfbench
{

/** The model outputs a speed-up must not change. */
struct Digest
{
    double hmeanIpc = 0;
    std::uint64_t reads = 0, writes = 0, refreshes = 0;
    std::uint64_t blockedReads = 0, events = 0;
    std::uint64_t servingCompleted = 0, servingDrops = 0;
    std::uint64_t spawns = 0, kills = 0, migratedPages = 0;

    bool operator==(const Digest &) const = default;
    /** FNV-1a over every field (the IPC by its bit pattern). */
    std::uint64_t hash() const;
};

struct CellRun
{
    bool ok = true;
    std::string error;
    double setupS = 0, runS = 0;
    /** System::run start/return, seconds since the rep began. */
    double runStart = 0, runEnd = 0;
    /** vCPU the cell's thread was on at run start and return. */
    int cpuStart = -1, cpuEnd = -1;
    Digest digest;
    double servingP99Ns = 0;
};

struct Rep
{
    std::vector<CellRun> cells;
    /** First System::run call to last return (sum of run intervals
     *  when the cells run inline). */
    double wallS = 0;
    /** Sum of System construction times. */
    double setupS = 0;
    /** Traced reps: one probe per cell. */
    std::vector<std::unique_ptr<CountingProbe>> probes;
};

Rep runRep(const Plan &plan, bool traced);

/** The all-bank twin of @p cell in @p plan (same machine and task
 *  mix), or -1. */
int allBankTwin(const Plan &plan, const Cell &cell);

struct Calibration
{
    std::vector<WholeRun> counts;
    std::vector<std::unique_ptr<CountingProbe>> probes;
    std::vector<Replay> replays;
    std::vector<std::string> errors;  ///< per cell, empty when ok
};

/** One run(0, warmup + measure) per cell; with @p traced, probe
 *  counts and layer replays too. */
Calibration calibrate(const Plan &plan, bool traced);

/**
 * The correctness gate for one rep, against the reference rep and
 * the calibration pass: digests identical, events equal to the
 * calibration's, traced probe counts equal to the calibration's,
 * and the workload's model checks.  Marks failing cells in @p rep
 * and returns their count.
 */
int checkRep(const Plan &plan, const Calibration &cal, const Rep &ref,
             Rep &rep);

/** Model checks on the calibration pass (serving conservation);
 *  returns the number of failing cells and records the reasons. */
int checkCalibration(const Plan &plan, Calibration &cal);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
