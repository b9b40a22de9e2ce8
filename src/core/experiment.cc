#include "core/experiment.hh"

#include <fstream>
#include <memory>

#include "core/system.hh"
#include "simcore/logging.hh"
#include "workload/workloads.hh"

namespace refsched::core
{

void
RunOptions::check() const
{
    constexpr int kMax = 1 << 20;
    if (warmupQuanta < 0 || warmupQuanta > kMax)
        fatal("warm-up must be 0..", kMax, " quanta, got ", warmupQuanta);
    if (measureQuanta < 1 || measureQuanta > kMax)
        fatal("measure must be 1..", kMax, " quanta, got ", measureQuanta);
}

SystemConfig
makeConfig(const std::string &workloadName, Policy policy,
           dram::DensityGb density, Tick tREFW, int numCores,
           int tasksPerCore, unsigned timeScale)
{
    SystemConfig cfg;
    cfg.numCores = numCores;
    cfg.tasksPerCore = tasksPerCore;
    cfg.density = density;
    cfg.tREFW = tREFW;
    cfg.timeScale = timeScale;
    cfg.applyPolicy(policy);
    cfg.benchmarks = workload::workloadByName(workloadName)
                         .taskList(cfg.totalTasks());
    return cfg;
}

Metrics
runOnce(const SystemConfig &cfg, const RunOptions &opts)
{
    System system(cfg);
    return system.run(opts.warmupQuanta, opts.measureQuanta);
}

Metrics
runWithArtifacts(System &sys, const RunOptions &opts,
                 const RunArtifacts &out)
{
    std::unique_ptr<obs::TimelineRecorder> timeline;
    if (!out.timeline.empty()) {
        timeline = std::make_unique<obs::TimelineRecorder>(
            sys.controller().config().org, sys.config().numCores,
            out.window);
        sys.attachProbe(timeline.get());
    }
    const auto m = sys.run(opts.warmupQuanta, opts.measureQuanta);
    if (!out.telemetry.empty()) {
        REFSCHED_ASSERT(sys.telemetry(), "telemetry is not enabled");
        sys.telemetry()->writeFile(out.telemetry);
        if (timeline)
            sys.telemetry()->exportCounters(*timeline);
    }
    if (timeline)
        timeline->writeFile(out.timeline);
    if (!out.statsJson.empty()) {
        std::ofstream f(out.statsJson);
        if (!f)
            fatal("cannot open stats JSON file for writing: ",
                  out.statsJson);
        sys.writeStatsJson(f, m);
    }
    return m;
}

} // namespace refsched::core
