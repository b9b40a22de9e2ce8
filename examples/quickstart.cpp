/**
 * @file
 * Quickstart: simulate one Table 2 workload under the three headline
 * policies -- all-bank refresh (the DDRx baseline), LPDDR3 per-bank
 * refresh, and the paper's hardware-software co-design -- and print
 * the relative performance, exactly like one group of bars in
 * Fig. 10.
 *
 * Usage: quickstart [workload] [density]
 *   workload  WL-1 .. WL-10   (default WL-5)
 *   density   8|16|24|32      (default 32)
 */

#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"
#include "simcore/parse.hh"

using namespace refsched;

int
main(int argc, char **argv)
try {
    const std::string workload = argc > 1 ? argv[1] : "WL-5";
    const int densityGb =
        argc > 2 ? parseNumber<int>(argv[2], "density") : 32;
    const auto density = static_cast<dram::DensityGb>(densityGb);

    std::cout << "refsched quickstart: workload " << workload << ", "
              << dram::toString(density) << " DRAM chips\n\n";

    // Run the same workload under each policy.  Everything is
    // deterministic: same seed, same synthetic traces.
    const core::RunOptions opts;

    const auto base = core::runOnce(
        core::makeConfig(workload, core::Policy::AllBank, density),
        opts);
    const auto perBank = core::runOnce(
        core::makeConfig(workload, core::Policy::PerBank, density),
        opts);
    const auto coDesign = core::runOnce(
        core::makeConfig(workload, core::Policy::CoDesign, density),
        opts);

    core::Table table({"policy", "hmean IPC", "vs all-bank",
                       "avg read latency (mem cycles)",
                       "reads blocked by refresh"});
    auto row = [&](const char *name, const core::Metrics &m) {
        table.addRow({name, core::fmt(m.harmonicMeanIpc),
                      core::pctImprovement(m.speedupOver(base)),
                      core::fmt(m.avgReadLatencyMemCycles, 1),
                      core::fmt(m.blockedReadFraction * 100.0, 2)
                          + "%"});
    };
    row("all-bank", base);
    row("per-bank", perBank);
    row("co-design", coDesign);
    table.print(std::cout);

    std::cout << "\nCo-design scheduler behaviour: "
              << coDesign.cleanPicks << " clean picks, "
              << coDesign.deferredPicks << " deferred, "
              << coDesign.bestEffortPicks << " best-effort, "
              << coDesign.fallbackPicks << " fallback; vruntime "
              << "spread " << core::fmt(coDesign.vruntimeSpreadQuanta, 2)
              << " quanta\n";
    return 0;
} catch (const FatalError &e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
}
