/**
 * @file
 * The benchmark's workloads: each is a fixed list of simulation
 * cells (one SystemConfig + run lengths each) whose trace seeds,
 * serving spec and churn script are generated from the --seed
 * argument.  Generated text inputs are written to the result
 * directory and read back through the library's own parsers, so the
 * simulator only ever receives generated, replayable inputs.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/system_config.hh"

namespace perfbench
{

struct Cell
{
    std::string name;  ///< "WL-1/co-design/32Gb"
    refsched::core::SystemConfig cfg;
    refsched::core::RunOptions run;
};

/** Which model-level correctness checks apply to a workload. */
struct Checks
{
    /** Co-design cells must see zero refresh-blocked reads. */
    bool codesignNoBlocked = false;
    /** Per (workload, density) group, co-design harmonic-mean IPC
     *  must beat all-bank. */
    bool codesignBeatsAllBank = false;
    /** Serving arrivals must be accounted for by completions,
     *  drops, backlog and the in-service slots. */
    bool servingConservation = false;
};

struct Plan
{
    std::string workload;
    std::vector<Cell> cells;
    /** Worker threads of the cell fan-out (1 = inline). */
    int jobs = 1;
    Checks checks;
};

/** Names accepted by --workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build @p workload's cells from @p seed.  Generated serving specs
 * and scenario scripts are written under @p outDir (serving.txt,
 * scenario.txt) and parsed back from there.
 */
Plan makePlan(const std::string &workload, std::uint64_t seed,
              const std::string &outDir);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
