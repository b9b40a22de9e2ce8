/**
 * @file
 * Convenience layer the figure benches are built on: construct a
 * SystemConfig for (workload, policy, density, ...), run it with
 * standard warm-up/measurement lengths, and cache nothing --
 * every run is an independent deterministic simulation.
 */

#ifndef REFSCHED_CORE_EXPERIMENT_HH
#define REFSCHED_CORE_EXPERIMENT_HH

#include <string>

#include "core/metrics.hh"
#include "core/system_config.hh"
#include "obs/timeline.hh"

namespace refsched::core
{

class System;

struct RunOptions
{
    /** Quanta simulated before statistics reset. */
    int warmupQuanta = 8;
    /** Measured quanta; 16 covers one full refresh-slot rotation of
     *  a 2-rank x 8-bank channel. */
    int measureQuanta = 16;

    /** fatal() unless warm-up is 0..2^20 quanta and the measured
     *  interval 1..2^20 quanta; System::run calls it. */
    void check() const;
};

/** Per-run artifact paths; an empty path skips that artifact. */
struct RunArtifacts
{
    std::string timeline;         ///< Chrome trace-event timeline
    obs::TimelineOptions window;  ///< simulated ticks the timeline keeps
    std::string statsJson;        ///< metrics, self-profile, all stats
    std::string telemetry;  ///< needs cfg.telemetry.enabled
};

/**
 * Build the standard Table 1 configuration for one experiment cell.
 *
 * @param workloadName  Table 2 name ("WL-1" .. "WL-10")
 * @param policy        refresh/OS policy bundle
 * @param density       DRAM chip density
 * @param tREFW         retention window (64 ms or 32 ms)
 * @param numCores      cores (2 default, 4 in Fig. 15)
 * @param tasksPerCore  consolidation ratio (4 default, 2 in Fig. 15)
 * @param timeScale     ratio-preserving shrink factor
 */
SystemConfig makeConfig(const std::string &workloadName, Policy policy,
                        dram::DensityGb density,
                        Tick tREFW = milliseconds(64.0),
                        int numCores = 2, int tasksPerCore = 4,
                        unsigned timeScale = 64);

/** Construct a System from @p cfg and run it once. */
Metrics runOnce(const SystemConfig &cfg, const RunOptions &opts = {});

/**
 * Run @p sys under @p opts with a timeline recorder attached when
 * @p out asks for one, then write every requested artifact.  The
 * recorder only observes, so the metrics equal a plain run's.
 */
Metrics runWithArtifacts(System &sys, const RunOptions &opts,
                         const RunArtifacts &out);

} // namespace refsched::core

#endif // REFSCHED_CORE_EXPERIMENT_HH
