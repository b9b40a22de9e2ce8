/**
 * @file
 * refsched command-line driver: run any single experiment the
 * library supports without writing code.
 *
 *   refsched_cli --workload WL-8 --policy co-design --density 32
 *   refsched_cli --benchmarks mcf,povray,mcf,povray --cores 2 \
 *                --policy per-bank --dump-stats
 *
 * Prints the headline metrics, a per-task table, and (optionally)
 * every registered statistic.  Exit code 0 on success; 1 on any
 * invalid input (one "fatal:" line on stderr) or, with --validate,
 * on an invariant violation.
 */

#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "simcore/parse.hh"
#include "workload/workloads.hh"

using namespace refsched;

namespace
{

struct CliOptions
{
    /** Knobs that map 1:1 onto the model land here directly. */
    core::SystemConfig cfg;
    std::string workload = "WL-5";  ///< unless --benchmarks is given
    int densityGb = 32;
    double retentionMs = 64.0;
    std::string partition;  // "", "soft", "hard", "none"
    core::RunOptions run;
    bool dumpStats = false;
    bool csv = false;
    bool json = false;
    bool verbose = false;
    core::RunArtifacts artifacts;
};

/** Minimal JSON rendering of the metrics (machine consumption). */
void
printJson(std::ostream &os, const core::SystemConfig &cfg,
          const core::Metrics &m)
{
    os << "{\n"
       << "  \"policy\": \"" << core::toString(cfg.policy) << "\",\n"
       << "  \"density\": \"" << dram::toString(cfg.density)
       << "\",\n"
       << "  \"timeScale\": " << cfg.timeScale << ",\n"
       << "  \"metrics\": ";
    m.toJson(os, 2);
    os << "\n}\n";
}

[[noreturn]] void
usage(const char *argv0)
{
    std::cout
        << "usage: " << argv0 << " [options]\n\n"
        << "workload selection (one of):\n"
        << "  --workload NAME        Table 2 workload (WL-1..WL-10)\n"
        << "  --benchmarks a,b,...   explicit per-task benchmark "
           "list\n"
        << "                         (mcf bwaves stream GemsFDTD "
           "npb_ua povray h264ref)\n"
        << "  --scenario FILE        dynamic-workload scenario script "
           "(tenant churn,\n"
        << "                         phase changes, page migration; "
           "see workload/scenario.hh)\n"
        << "  --serving SPEC         open-loop serving traffic on top "
           "of the task set:\n"
        << "                         arrival=poisson|mmpp,load=<req/"
           "us>,pool=N,queue=N,\n"
        << "                         lines=N[,burst-ratio=X,burst-"
           "frac=X,burst-dwell=X]\n"
        << "                         (see workload/serving.hh)\n\n"
        << "policy and hardware:\n"
        << "  --policy P             all-bank | per-bank | "
           "per-bank-ooo |\n"
        << "                         ddr4-2x | ddr4-4x | adaptive | "
           "co-design | no-refresh\n"
        << "  --density G            8 | 16 | 24 | 32  (default 32)\n"
        << "  --retention MS         64 or 32 (default 64)\n"
        << "  --cores N              (default 2)\n"
        << "  --channels N           memory channels (default 1)\n"
        << "  --tasks-per-core N     consolidation ratio (default 4)\n"
        << "  --banks-per-task N     override the 8 - 8/ratio rule\n"
        << "  --partition M          soft | hard | none (default: "
           "policy's)\n"
        << "  --eta N                Algorithm 3 fairness valve\n\n"
        << "simulation control:\n"
        << "  --scale N              ratio-preserving timeScale "
           "(default 128)\n"
        << "  --warmup N             warm-up quanta (default 8)\n"
        << "  --measure N            measured quanta (default 16)\n"
        << "  --seed S               trace RNG seed\n"
        << "  --validate             run the invariant checkers; "
           "exit 1 on any violation\n\n"
        << "output:\n"
        << "  --dump-stats           print every registered stat\n"
        << "  --csv                  per-task table as CSV\n"
        << "  --verbose              inform-level logging\n\n"
        << "observability:\n"
        << "  --timeline FILE        write a Chrome trace-event "
           "timeline\n"
        << "                         (open in Perfetto / "
           "chrome://tracing)\n"
        << "  --stats-json FILE      write metrics + self-profile + "
           "all stats as JSON\n"
        << "  --telemetry FILE       sample queue depths, row-hit/"
           "refresh rates,\n"
        << "                         per-core progress and serving "
           "backlog every\n"
        << "                         telemetry period; write JSONL "
           "(or CSV when FILE\n"
        << "                         ends in .csv).  With --timeline "
           "the samples are\n"
        << "                         also merged as Perfetto counter "
           "tracks\n"
        << "  --telemetry-period PS  sampling cadence in picoseconds "
           "(default 1000000)\n"
        << "  --trace-window S:E     restrict the timeline to "
           "simulated ticks [S, E)\n"
        << "                         (picoseconds; default: whole "
           "run)\n\n"
        << "Every run is one single-threaded simulation; parallel "
           "sweeps are the\n"
        << "benches' --jobs.  Invalid input exits 1 with one "
           "\"fatal:\" line.\n";
    std::exit(0);
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions o;
    o.cfg.timeScale = 128;
    o.cfg.applyPolicy(core::Policy::CoDesign);
    auto need = [&](int &i) { return flagValue(argc, argv, i); };
    // Ranges are SystemConfig::check()'s and RunOptions::check()'s.
    auto num = [&](int &i, auto &field) {
        parseFlag(argc, argv, i, field);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload") {
            o.workload = need(i);
        } else if (a == "--benchmarks") {
            o.cfg.benchmarks = workload::splitBenchmarkList(need(i));
        } else if (a == "--scenario") {
            o.cfg.scenario =
                workload::ScenarioScript::parseFile(need(i));
        } else if (a == "--serving") {
            o.cfg.serving = workload::ServingConfig::parse(need(i));
        } else if (a == "--policy") {
            o.cfg.applyPolicy(core::policyFromString(need(i)));
        } else if (a == "--density") {
            num(i, o.densityGb);
        } else if (a == "--retention") {
            num(i, o.retentionMs);
        } else if (a == "--cores") {
            num(i, o.cfg.numCores);
        } else if (a == "--channels") {
            num(i, o.cfg.channels);
        } else if (a == "--tasks-per-core") {
            num(i, o.cfg.tasksPerCore);
        } else if (a == "--banks-per-task") {
            num(i, o.cfg.banksPerTaskPerRank);
        } else if (a == "--partition") {
            o.partition = need(i);
        } else if (a == "--eta") {
            num(i, o.cfg.etaThresh);
        } else if (a == "--scale") {
            num(i, o.cfg.timeScale);
        } else if (a == "--warmup") {
            num(i, o.run.warmupQuanta);
        } else if (a == "--measure") {
            num(i, o.run.measureQuanta);
        } else if (a == "--seed") {
            num(i, o.cfg.seed);
        } else if (a == "--validate") {
            o.cfg.validate = true;
        } else if (a == "--timeline") {
            o.artifacts.timeline = need(i);
        } else if (a == "--stats-json") {
            o.artifacts.statsJson = need(i);
        } else if (a == "--telemetry") {
            o.artifacts.telemetry = need(i);
        } else if (a == "--telemetry-period") {
            num(i, o.cfg.telemetry.periodTicks);
        } else if (a == "--trace-window") {
            const std::string w = need(i);
            const auto colon = w.find(':');
            if (colon == std::string::npos)
                fatal("--trace-window wants START:END, got '", w, "'");
            auto &window = o.artifacts.window;
            window.windowStart = parseNumber<Tick>(
                w.substr(0, colon), "--trace-window START");
            if (colon + 1 < w.size())
                window.windowEnd = parseNumber<Tick>(
                    w.substr(colon + 1), "--trace-window END");
            if (window.windowStart >= window.windowEnd)
                fatal("--trace-window is empty");
        } else if (a == "--dump-stats") {
            o.dumpStats = true;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--csv") {
            o.csv = true;
        } else if (a == "--verbose") {
            o.verbose = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
        } else {
            fatal("unknown option: ", a, " (see --help)");
        }
    }
    return o;
}

core::SystemConfig
buildConfig(const CliOptions &o)
{
    core::SystemConfig cfg = o.cfg;
    cfg.density = dram::DensityGb{o.densityGb};
    cfg.tREFW = milliseconds(o.retentionMs);
    if (!o.partition.empty()) {
        if (o.partition == "soft")
            cfg.partitioning = core::Partitioning::Soft;
        else if (o.partition == "hard")
            cfg.partitioning = core::Partitioning::Hard;
        else if (o.partition == "none")
            cfg.partitioning = core::Partitioning::None;
        else
            fatal("unknown partition mode: ", o.partition);
    }
    cfg.telemetry.enabled = !o.artifacts.telemetry.empty();
    // The period is checked even when no --telemetry file asks for it.
    obs::TelemetryConfig{true, cfg.telemetry.periodTicks}.check();
    // Check before the task count sizes the default workload.
    cfg.check();
    if (cfg.benchmarks.empty())
        cfg.benchmarks = workload::workloadByName(o.workload)
                             .taskList(cfg.totalTasks());
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const auto opts = parse(argc, argv);
        if (opts.verbose)
            setLogLevel(LogLevel::Inform);
        const auto cfg = buildConfig(opts);
        core::System sys(cfg);
        const auto m =
            core::runWithArtifacts(sys, opts.run, opts.artifacts);

        const auto validationStatus = [&]() -> int {
            if (!cfg.validate)
                return 0;
            if (m.validationViolations == 0) {
                std::cerr << "validation: clean\n";
                return 0;
            }
            std::cerr << "validation: " << m.validationViolations
                      << " violation(s); first: " << m.firstViolation
                      << "\n";
            return 1;
        };

        if (opts.json) {
            printJson(std::cout, cfg, m);
            return validationStatus();
        }

        std::cout << "policy=" << core::toString(cfg.policy)
                  << " density=" << dram::toString(cfg.density)
                  << " retention="
                  << core::fmt(opts.retentionMs, 0) << "ms cores="
                  << cfg.numCores << " ratio=1:" << cfg.tasksPerCore
                  << " scale=" << cfg.timeScale << "\n\n";

        std::cout << "harmonic-mean IPC   "
                  << core::fmt(m.harmonicMeanIpc) << "\n"
                  << "avg read latency    "
                  << core::fmt(m.avgReadLatencyMemCycles, 1)
                  << " memory cycles\n"
                  << "row hit rate        "
                  << core::fmt(m.rowHitRate * 100.0, 1) << "%\n"
                  << "dram reads/writes   " << m.dramReads << " / "
                  << m.dramWrites << "\n"
                  << "refresh commands    " << m.refreshCommands
                  << "\n"
                  << "blocked reads       "
                  << core::fmt(m.blockedReadFraction * 100.0, 3)
                  << "%\n"
                  << "energy              "
                  << core::fmt(m.energy.totalPj() / 1e9, 3)
                  << " mJ (refresh "
                  << core::fmt(m.energy.refreshShare() * 100.0, 1)
                  << "%), "
                  << core::fmt(m.energyPerInstructionPj, 1)
                  << " pJ/instr\n"
                  << "scheduler picks     " << m.cleanPicks
                  << " clean, " << m.deferredPicks << " deferred, "
                  << m.bestEffortPicks << " best-effort, "
                  << m.fallbackPicks << " fallback\n"
                  << "fairness spread     "
                  << core::fmt(m.vruntimeSpreadQuanta, 2)
                  << " quanta\n\n";

        core::Table tasks({"pid", "benchmark", "IPC", "MPKI",
                           "quanta", "dram reads", "resident pages",
                           "fallback pages"});
        for (const auto &t : m.tasks) {
            tasks.addRow({std::to_string(t.pid), t.benchmark,
                          core::fmt(t.ipc, 3), core::fmt(t.mpki, 1),
                          std::to_string(t.quantaRun),
                          std::to_string(t.dramReads),
                          std::to_string(t.residentPages),
                          std::to_string(t.fallbackAllocs)});
        }
        if (opts.csv)
            tasks.printCsv(std::cout);
        else
            tasks.print(std::cout);

        if (opts.dumpStats) {
            std::cout << "\n";
            sys.dumpStats(std::cout);
        }
        return validationStatus();
    } catch (const FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
