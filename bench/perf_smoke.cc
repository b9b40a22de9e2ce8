/**
 * @file
 * Simulation-performance smoke bench: the perf trajectory's data
 * source.
 *
 * Runs a fixed three-config set -- all-bank refresh at 32 Gb (the
 * refresh-heaviest baseline), per-bank round-robin, and the paper's
 * co-design -- and reports, per config:
 *
 *   simMs            simulated milliseconds covered by the run
 *   wallMs           host wall-clock for System::run
 *   events           events executed by the event queue
 *   events/quantum   executed events per simulated scheduling quantum
 *   Mticks/s         simulated ticks per wall second, in millions
 *   instrs           instructions committed in the measured quanta
 *   Minstr/s         instrs per wall second of the measured quanta,
 *                    in millions: simulated work per host second,
 *                    which ranks rows that simulate different work
 *
 * Tables are archived through the standard --json flag (e.g.
 * `--json perf.json`; tools/perf_baseline.json is such an archive).
 * At the default parameters a second
 * table compares against the seed-controller reference measured
 * before the wake-precise optimization (PR 3), tracking the event
 * and wall-clock trajectory.
 *
 * Regression mode (used by tools/perf_regress.sh):
 *
 *   perf_smoke --check BASELINE.json [--wall-tol PCT] [--events-only]
 *
 * re-runs the set and compares against a previously archived
 * table: events and events/quantum must match exactly (the
 * simulation is deterministic), wall-clock may regress by at most
 * PCT percent and Mticks/s may drop by the same factor (default 20;
 * faster is never a failure; --events-only skips both host-speed
 * checks for heterogeneous machines).  Exits non-zero on any
 * regression.  The instrs and Minstr/s columns are reported but not
 * gated, so a baseline archived before they existed still checks.
 *
 * Every run also reports a "host" table: the host fingerprint
 * (logical CPUs and the /proc/cpuinfo model name).  Wall-clock and
 * Mticks/s are compared only against a baseline recorded on a host
 * with the same fingerprint; otherwise --check says in one line that
 * it skipped them (a baseline without a fingerprint never matches).
 * Event rows are checked exactly everywhere.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.hh"

using namespace refsched;
using namespace refsched::bench;
using core::Policy;

namespace
{

struct SmokeConfig
{
    const char *name;
    Policy policy;
    int channels = 1;
    int cores = 2;
    /** Open-loop serving spec (ServingConfig::parse), or null. */
    const char *serving = nullptr;
    /** Run with epoch-sampled telemetry enabled. */
    bool telemetry = false;
};

/** The fixed config set; order is part of the archive format.  The
 *  2-channel co-design cell exercises the multi-controller scan
 *  paths. */
constexpr SmokeConfig kConfigs[] = {
    {"allbank-32gb", Policy::AllBank, 1},
    {"perbank-32gb", Policy::PerBank, 1},
    {"codesign-32gb", Policy::CoDesign, 1},
    {"codesign-32gb-2ch", Policy::CoDesign, 2},
    {"codesign-32gb-2ch-serving", Policy::CoDesign, 2, 2,
     "arrival=mmpp,load=0.4,pool=8,queue=32,lines=4"},
    // The telemetry row adds one periodic sampling event per period
    // over its telemetry-off twin (codesign-32gb).  Every other row
    // running with telemetry disabled and events unchanged is the
    // perf gate's zero-cost-when-off evidence.
    {"codesign-32gb-telem", Policy::CoDesign, 1, 2, nullptr, true},
};

/**
 * Seed-controller reference (commit a545fe5, pre wake-precise
 * scheduling), measured at the default parameters: WL-1, 32 Gb,
 * --scale 128 --warmup 8 --measure 16, single-threaded, Release.
 * Events are exact (deterministic); wall-clock is indicative of the
 * reference machine and only used for the trajectory table.
 */
struct SeedRef
{
    double eventsPerQuantum;
    double wallMs;
};
constexpr SeedRef kSeedRef[] = {
    {27608.2, 124.8},  // allbank-32gb
    {27833.8, 148.3},  // perbank-32gb
    {27747.1, 164.8},  // codesign-32gb
};

struct SmokeResult
{
    std::string name;
    std::string policy;
    double simMs = 0.0;
    double wallMs = 0.0;
    std::uint64_t events = 0;
    double eventsPerQuantum = 0.0;
    double mticksPerSec = 0.0;
    std::uint64_t instrs = 0;
    double minstrPerSec = 0.0;
};

SmokeResult
runConfig(const SmokeConfig &sc, const BenchOptions &opts)
{
    core::SystemConfig cfg = core::makeConfig(
        "WL-1", sc.policy, dram::DensityGb::d32, milliseconds(64.0),
        sc.cores, /*tasksPerCore=*/4, opts.timeScale);
    cfg.channels = sc.channels;
    if (sc.serving)
        cfg.serving = workload::ServingConfig::parse(sc.serving);
    cfg.telemetry.enabled = sc.telemetry;

    core::System sys(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const core::Metrics m =
        sys.run(opts.warmupQuanta, opts.measureQuanta);
    const auto t1 = std::chrono::steady_clock::now();

    SmokeResult r;
    r.name = sc.name;
    r.policy = core::toString(sc.policy);
    r.wallMs = std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
    r.simMs = static_cast<double>(sys.eventQueue().now())
        / static_cast<double>(kPsPerMs);
    r.events = sys.executedEvents();
    const int quanta = opts.warmupQuanta + opts.measureQuanta;
    r.eventsPerQuantum =
        static_cast<double>(r.events) / static_cast<double>(quanta);
    r.mticksPerSec = r.wallMs > 0.0
        ? static_cast<double>(sys.eventQueue().now())
            / (r.wallMs * 1e3)  // ticks/ms -> Mticks/s
        : 0.0;
    for (const auto &t : m.tasks)
        r.instrs += t.instructions;
    const double measureMs = sys.profile().measureMs;
    r.minstrPerSec = measureMs > 0.0
        ? static_cast<double>(r.instrs) / (measureMs * 1e3)
        : 0.0;
    return r;
}

// ---------------------------------------------------------------
// Baseline comparison (--check): parse the JSON archive written by
// a previous run and diff events / wall-clock.
// ---------------------------------------------------------------

/** This host's fingerprint: logical CPUs and CPU model. */
core::Table
hostFingerprint()
{
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        const auto value = colon == std::string::npos
            ? colon
            : line.find_first_not_of(" \t", colon + 1);
        if (value != std::string::npos)
            model = line.substr(value);
        break;
    }
    core::Table t({"nproc", "cpu"});
    t.addRow({std::to_string(std::thread::hardware_concurrency()),
              model});
    return t;
}

/** Row cells of the @p label table in a JSON archive written by
 *  bench_util's JsonArchive (every cell is a string); empty when the
 *  archive has no such table. */
std::vector<std::vector<std::string>>
readBaselineTable(const std::string &path, const std::string &label)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read baseline file: ", path);
    std::stringstream ss;
    ss << is.rdbuf();
    const auto doc = obs::parseJson(ss.str());
    if (const auto *tables = doc.find("tables")) {
        for (const auto &table : tables->array) {
            const auto *rows = table.find("rows");
            const auto *name = table.find("label");
            if (!name || name->string != label || !rows)
                continue;
            std::vector<std::vector<std::string>> out;
            for (const auto &row : rows->array) {
                out.emplace_back();
                for (const auto &cell : row.array)
                    out.back().push_back(cell.string);
            }
            return out;
        }
    }
    return {};
}

int
checkAgainstBaseline(const std::vector<SmokeResult> &now,
                     const std::string &path, double wallTolPct,
                     bool eventsOnly, const core::Table &host)
{
    const auto rows = readBaselineTable(path, "perf_smoke");
    if (rows.empty())
        fatal(path, ": no perf_smoke table in archive");
    if (!eventsOnly && readBaselineTable(path, "host") != host.rowData()) {
        std::cout << "wall-clock and Mticks/s rows skipped: " << path
                  << " was not recorded on this host (nproc "
                  << host.rowData()[0][0] << ", "
                  << host.rowData()[0][1] << ")\n";
        eventsOnly = true;
    }
    bool ok = true;

    for (const auto &r : now) {
        const std::vector<std::string> *base = nullptr;
        for (const auto &row : rows) {
            if (!row.empty() && row[0] == r.name) {
                base = &row;
                break;
            }
        }
        if (!base || base->size() < 7) {
            std::cerr << r.name << ": missing from baseline " << path
                      << "\n";
            ok = false;
            continue;
        }
        const auto baseEvents =
            parseNumber<std::uint64_t>((*base)[4], "baseline events");
        const auto baseWall =
            parseNumber<double>((*base)[3], "baseline wallMs");
        const std::string &baseEpq = (*base)[5];
        const auto baseMticks =
            parseNumber<double>((*base)[6], "baseline Mticks/s");

        if (r.events != baseEvents) {
            std::cerr << r.name << ": events REGRESSED: " << r.events
                      << " executed vs baseline " << baseEvents
                      << " (simulation is deterministic; an intended"
                         " change must update the baseline)\n";
            ok = false;
        } else {
            std::cout << r.name << ": events ok (" << r.events
                      << ")\n";
        }

        // events/quantum is derived from the deterministic event
        // count; compare the formatted cell so the archive and the
        // live run round identically.
        if (core::fmt(r.eventsPerQuantum, 1) != baseEpq) {
            std::cerr << r.name << ": events/quantum REGRESSED: "
                      << core::fmt(r.eventsPerQuantum, 1)
                      << " vs baseline " << baseEpq << "\n";
            ok = false;
        }

        if (eventsOnly)
            continue;
        const double limit = baseWall * (1.0 + wallTolPct / 100.0);
        if (r.wallMs > limit) {
            std::cerr << r.name << ": wall-clock REGRESSED: "
                      << core::fmt(r.wallMs, 1) << " ms vs baseline "
                      << core::fmt(baseWall, 1) << " ms (+"
                      << core::fmt(wallTolPct, 0)
                      << "% tolerance exceeded)\n";
            ok = false;
        } else {
            std::cout << r.name << ": wall-clock ok ("
                      << core::fmt(r.wallMs, 1) << " ms vs "
                      << core::fmt(baseWall, 1) << " ms baseline)\n";
        }
        const double floor =
            baseMticks / (1.0 + wallTolPct / 100.0);
        if (baseMticks > 0.0 && r.mticksPerSec < floor) {
            std::cerr << r.name << ": Mticks/s REGRESSED: "
                      << core::fmt(r.mticksPerSec, 2)
                      << " vs baseline " << core::fmt(baseMticks, 2)
                      << " (floor " << core::fmt(floor, 2) << ")\n";
            ok = false;
        } else {
            std::cout << r.name << ": Mticks/s ok ("
                      << core::fmt(r.mticksPerSec, 2) << " vs "
                      << core::fmt(baseMticks, 2) << " baseline)\n";
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
try {
    // Strip the regression-mode flags before the shared parser sees
    // the command line.
    std::string checkPath;
    double wallTolPct = 20.0;
    bool eventsOnly = false;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (i > 0 && a == "--check" && i + 1 < argc) {
            checkPath = argv[++i];
        } else if (i > 0 && a == "--wall-tol" && i + 1 < argc) {
            wallTolPct = parseNumber<double>(argv[++i], "--wall-tol");
        } else if (i > 0 && a == "--events-only") {
            eventsOnly = true;
        } else {
            rest.push_back(argv[i]);
        }
    }
    const auto opts =
        parseArgs(static_cast<int>(rest.size()), rest.data());

    std::vector<SmokeResult> results;
    for (const auto &sc : kConfigs)
        results.push_back(runConfig(sc, opts));

    core::Table table({"config", "policy", "simMs", "wallMs",
                       "events", "events/quantum", "Mticks/s",
                       "instrs", "Minstr/s"});
    for (const auto &r : results) {
        table.addRow({r.name, r.policy, core::fmt(r.simMs, 2),
                      core::fmt(r.wallMs, 2),
                      std::to_string(r.events),
                      core::fmt(r.eventsPerQuantum, 1),
                      core::fmt(r.mticksPerSec, 2),
                      std::to_string(r.instrs),
                      core::fmt(r.minstrPerSec, 2)});
    }
    std::cout << "Simulation performance smoke (WL-1, 32 Gb, scale "
              << opts.timeScale << ")\n\n";
    emit(opts, table, "perf_smoke");
    std::cout << "\nHost\n\n";
    const core::Table host = hostFingerprint();
    emit(opts, host, "host");
    std::cout << "\n";

    // Trajectory vs the seed controller, only meaningful at the
    // parameters the reference was measured with.
    const bool defaults = opts.timeScale == 128
        && opts.warmupQuanta == 8 && opts.measureQuanta == 16
        && kSeedRef[0].eventsPerQuantum > 0.0;
    if (defaults) {
        core::Table traj({"config", "seed events/q", "events/q",
                          "events reduction", "seed wallMs", "wallMs",
                          "wall speedup"});
        const std::size_t refs =
            sizeof(kSeedRef) / sizeof(kSeedRef[0]);
        for (std::size_t i = 0; i < results.size() && i < refs; ++i) {
            const auto &r = results[i];
            const auto &s = kSeedRef[i];
            traj.addRow(
                {r.name, core::fmt(s.eventsPerQuantum, 1),
                 core::fmt(r.eventsPerQuantum, 1),
                 core::fmt(s.eventsPerQuantum / r.eventsPerQuantum, 2)
                     + "x",
                 core::fmt(s.wallMs, 1), core::fmt(r.wallMs, 1),
                 core::fmt(s.wallMs / r.wallMs, 2) + "x"});
        }
        std::cout << "Trajectory vs seed controller (pre"
                     " wake-precise scheduling)\n\n";
        emit(opts, traj, "perf_vs_seed");
        std::cout << "\n";
    }

    if (!checkPath.empty())
        return checkAgainstBaseline(results, checkPath, wallTolPct,
                                    eventsOnly, host);
    return 0;
} catch (const FatalError &e) {
    exitFatal(e);
}
