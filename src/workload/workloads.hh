/**
 * @file
 * The multi-programmed workloads of Table 2 and their consolidation
 * variants.
 *
 * A workload is a multiset of benchmark names.  Table 2 defines the
 * dual-core 1:4 mixes (8 tasks); the sensitivity study (Fig. 15)
 * re-scales the same proportions to other core counts and
 * consolidation ratios.
 */

#ifndef REFSCHED_WORKLOAD_WORKLOADS_HH
#define REFSCHED_WORKLOAD_WORKLOADS_HH

#include <string>
#include <vector>

#include "simcore/rng.hh"
#include "workload/profile.hh"

namespace refsched::workload
{

struct WorkloadSpec
{
    std::string name;        ///< "WL-1" .. "WL-10"
    /** (benchmark, count) pairs, counts for the 8-task baseline. */
    std::vector<std::pair<std::string, int>> mix;
    std::string mpkiLabel;   ///< Table 2's class column ("H + L", ...)

    /** Expand to a task list with @p totalTasks entries, preserving
     *  the mix proportions (totalTasks must be a multiple of the
     *  distinct benchmark granularity; 4, 8 and 16 all work). */
    std::vector<std::string> taskList(int totalTasks = 8) const;

    int baseTaskCount() const;
};

/** The ten workloads of Table 2. */
const std::vector<WorkloadSpec> &table2Workloads();

/** Look up a workload by name ("WL-3"). */
const WorkloadSpec &workloadByName(const std::string &name);

/** Split a comma-separated benchmark list ("mcf,povray"), dropping
 *  empty entries; names are checked where the tasks are built. */
std::vector<std::string> splitBenchmarkList(const std::string &csv);

/**
 * A random multiset of built-in benchmark names: uniform independent
 * draws over builtinProfileNames().  Unlike the curated Table 2
 * mixes this reaches arbitrary intensity combinations (all-high,
 * all-low, lopsided), which is what the differential fuzzer wants.
 * Deterministic in @p rng.
 */
std::vector<std::string> randomTaskList(Rng &rng, int totalTasks);

} // namespace refsched::workload

#endif // REFSCHED_WORKLOAD_WORKLOADS_HH
