/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out DIR]
 *
 * Builds the workload's cells from --seed, runs an untimed
 * calibration pass, then repeats the whole cell set for at least
 * --seconds seconds of host time and reports medians over the
 * repeats.  --trace 0 prints the end-to-end metrics; --trace 1
 * interleaves probe-traced repeats, replays every layer and prints
 * the per-layer metrics.  Every repeat passes the correctness gate
 * (runner.hh); the last stdout line is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Bad arguments print one diagnostic line and exit with status 1.
 * See perfbench/README.md for the workloads and metrics.
 */

#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cells.hh"
#include "runner.hh"
#include "simcore/logging.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_GIT_COMMIT
#define PERFBENCH_GIT_COMMIT "unknown"
#endif

using namespace perfbench;

namespace
{

/** Repeats below this count are never reported, however long one
 *  repeat takes. */
constexpr int kMinReps = 3;

/** The vCPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Pin the calling thread to @p cpu (best effort). */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    int trace = 0;
    std::string out = ".bench_build/results";
};

struct UsageError
{
    std::string msg;
};

template <class T>
T
parseNumber(const std::string &flag, const std::string &text, T lo, T hi)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end)
        throw UsageError{flag + " expects a whole number, got '" + text
                         + "'"};
    if (v < lo || v > hi)
        throw UsageError{flag + " " + text + " is out of range ["
                         + std::to_string(lo) + ", " + std::to_string(hi)
                         + "]"};
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw UsageError{"missing value for '" + flag + "'"};
        const std::string val = argv[++i];
        if (flag == "--workload") {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), val) == names.end()) {
                std::string known;
                for (const auto &n : names)
                    known += (known.empty() ? "" : ", ") + n;
                throw UsageError{"unknown workload '" + val
                                 + "' (expected one of: " + known + ")"};
            }
            a.workload = val;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = parseNumber<std::uint64_t>(
                flag, val, 0, ~std::uint64_t{0});
            haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = parseNumber<int>(flag, val, 1, 600);
            haveSeconds = true;
        } else if (flag == "--trace") {
            a.trace = parseNumber<int>(flag, val, 0, 1);
            haveTrace = true;
        } else if (flag == "--out") {
            a.out = val;
        } else {
            throw UsageError{"unknown argument '" + flag + "'"};
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        throw UsageError{"usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--out DIR]"};
    return a;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** The CPU brand string, read with cpuid (no file access). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12];
    for (unsigned leaf = 0; leaf < 3; ++leaf)
        if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                         &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                         &regs[4 * leaf + 3]))
            return "unknown";
    std::string brand(reinterpret_cast<const char *>(regs), sizeof regs);
    brand = brand.c_str();  // drop the NUL padding
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
#else
    return "unknown";
#endif
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += (ch == '\n' || ch == '\t') ? ' ' : ch;
    }
    return out + "\"";
}

/**
 * Peak resident memory of this process image, in MiB: VmHWM, which
 * execve resets.  getrusage's ru_maxrss would also carry the RSS of
 * the process that spawned this one (the Python wrapper) over exec.
 */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::vector<Metric>
endToEnd(const Calibration &cal, const std::vector<Rep> &reps)
{
    std::vector<double> wall, setup;
    for (const Rep &r : reps) {
        wall.push_back(r.wallS);
        setup.push_back(r.setupS);
    }
    double instrs = 0;
    for (const WholeRun &w : cal.counts)
        instrs += static_cast<double>(w.instrs);
    const double wallS = median(wall);
    return {
        {"wall_s", wallS, "s"},
        {"sim_minstr_per_s", instrs / 1e6 / wallS, "Minstr/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
perLayer(const Plan &plan, const Calibration &cal,
         const std::vector<Rep> &reps, const std::vector<Rep> &traced)
{
    const std::size_t n = plan.cells.size();
    std::vector<double> wall, tracedWall, setup, runSum, eff;
    std::vector<std::vector<double>> cellRun(n);
    for (const Rep &r : reps) {
        wall.push_back(r.wallS);
        setup.push_back(r.setupS);
        double sum = 0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += r.cells[i].runS;
            cellRun[i].push_back(r.cells[i].runS);
        }
        runSum.push_back(sum);
        eff.push_back(sum / (plan.jobs * r.wallS));
    }
    for (const Rep &r : traced)
        tracedWall.push_back(r.wallS);
    const double wallS = median(wall);
    const double capacityNs = plan.jobs * wallS * 1e9;

    WholeRun t;
    ProbeCounts probe;
    double busyEq = 0, busyMc = 0, busyCache = 0, busyVm = 0, busyGen = 0;
    double picks = 0, pickNs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const WholeRun &w = cal.counts[i];
        const Replay &r = cal.replays[i];
        t.add(w);
        probe.add(cal.probes[i]->counts);

        busyEq += static_cast<double>(w.events) * r.eqNsPerEvent;
        busyMc += (w.mcReads + w.mcWrites) * r.perRequest();
        busyCache += w.cacheAccesses * r.perAccess();
        busyVm += (w.cacheAccesses + static_cast<double>(w.servingLines))
            * r.perTranslate();
        busyGen += static_cast<double>(w.instrs) * r.perInstrGen();
        picks += r.picks;
        pickNs += r.pickNs;
    }
    using refsched::validate::DramOp;
    using refsched::validate::PickKind;
    const auto cmd = [&probe](DramOp op) {
        return static_cast<double>(probe.cmds[static_cast<std::size_t>(op)]);
    };
    const auto pick = [&probe](PickKind k) {
        return static_cast<double>(
            probe.picks[static_cast<std::size_t>(k)]);
    };
    double allCmds = 0, allPicks = 0;
    for (auto c : probe.cmds)
        allCmds += static_cast<double>(c);
    for (auto c : probe.picks)
        allPicks += static_cast<double>(c);
    const double events = static_cast<double>(t.events);
    const double instrs = static_cast<double>(t.instrs);
    const double requests = t.mcReads + t.mcWrites;
    const double translations =
        t.cacheAccesses + static_cast<double>(t.servingLines);
    // Stall fractions are per core-tick, queue depth per channel-tick.
    double coreTicks = 0, channelTicks = 0;
    for (const WholeRun &w : cal.counts) {
        coreTicks += w.cores * w.simTicks;
        channelTicks += w.channels * w.simTicks;
    }

    double slowest = 0;
    std::vector<double> cellMedians;
    for (const auto &v : cellRun) {
        cellMedians.push_back(median(v));
        slowest = std::max(slowest, cellMedians.back());
    }

    const double fEq = busyEq / capacityNs, fMc = busyMc / capacityNs,
                 fCache = busyCache / capacityNs, fVm = busyVm / capacityNs,
                 fGen = busyGen / capacityNs;

    return {
        {"simcore.events", events, "count"},
        {"simcore.events_per_kinstr", ratio(events, instrs / 1000), "1/kinstr"},
        {"simcore.ns_per_event", ratio(busyEq, events), "ns"},
        {"simcore.busy_frac", fEq, "fraction"},
        {"memctrl.reads", t.mcReads, "count"},
        {"memctrl.writes", t.mcWrites, "count"},
        {"memctrl.row_hit_ratio", ratio(t.rowHits, t.rowHits + t.rowMisses),
         "fraction"},
        {"memctrl.read_queue_wait_cycles",
         ratio(t.readQueueWaitTicks, t.readQueueWaitSamples) / t.tCK,
         "mem_cycles"},
        {"memctrl.rdq_mean", ratio(t.readQueueOccIntegral, channelTicks),
         "requests"},
        {"memctrl.write_drain_batches", t.writeDrainBatches, "count"},
        {"memctrl.cmds_per_request",
         ratio(allCmds, cmd(DramOp::Read) + cmd(DramOp::Write)),
         "cmd/request"},
        {"memctrl.ns_per_request", ratio(busyMc, requests), "ns"},
        {"memctrl.busy_frac", fMc, "fraction"},
        {"dram.refresh_commands", t.refreshCommands, "count"},
        {"dram.reads_blocked_ratio", ratio(t.blockedReads, t.mcReads),
         "fraction"},
        {"dram.refresh_blocked_ticks", t.refreshBlockedTicks, "ticks"},
        {"dram.cmd.act", cmd(DramOp::Act), "count"},
        {"dram.cmd.pre", cmd(DramOp::Pre), "count"},
        {"cpu.instrs", instrs, "count"},
        {"cpu.rob_stall_frac", ratio(t.robStallTicks, coreTicks),
         "fraction"},
        {"cpu.mshr_stall_frac", ratio(t.mshrStallTicks, coreTicks),
         "fraction"},
        {"cpu.mc_backpressure", t.backpressure, "count"},
        {"cache.accesses", t.cacheAccesses, "count"},
        {"cache.l1_miss_ratio", ratio(t.l1Misses, t.cacheAccesses),
         "fraction"},
        {"cache.l2_miss_ratio", ratio(t.l2Misses, t.l1Misses), "fraction"},
        {"cache.ns_per_access", ratio(busyCache, t.cacheAccesses), "ns"},
        {"cache.busy_frac", fCache, "fraction"},
        {"os.translations", translations, "count"},
        {"os.ns_per_translate", ratio(busyVm, translations), "ns"},
        {"os.page_faults", static_cast<double>(t.pageFaults), "count"},
        {"os.vm_busy_frac", fVm, "fraction"},
        {"os.sched.picks", allPicks, "count"},
        {"os.sched.clean_ratio",
         ratio(pick(PickKind::Clean), allPicks - pick(PickKind::Idle)),
         "fraction"},
        {"os.sched.ns_per_pick", ratio(pickNs, picks), "ns"},
        {"os.buddy.allocs", static_cast<double>(t.buddyAllocs), "count"},
        {"os.buddy.frees", static_cast<double>(probe.frees), "count"},
        {"os.buddy.fallback_ratio",
         ratio(static_cast<double>(t.buddyFallbacks),
               static_cast<double>(t.buddyAllocs)),
         "fraction"},
        {"os.migrated_pages", static_cast<double>(probe.migrations), "count"},
        {"workload.gen_ns_per_instr", ratio(busyGen, instrs), "ns"},
        {"workload.busy_frac", fGen, "fraction"},
        {"serving.completed", static_cast<double>(t.servingCompleted),
         "count"},
        {"serving.drops", static_cast<double>(t.servingDrops), "count"},
        {"serving.backlog_peak", t.servingBacklogPeak, "requests"},
        {"serving.retry_waits", t.servingRetryWaits, "count"},
        {"core.setup_ms_per_cell", median(setup) / n * 1000, "ms"},
        {"core.run_ms_per_cell", median(runSum) / n * 1000, "ms"},
        {"core.grid_parallel_eff", median(eff), "fraction"},
        {"core.grid_tail_ratio", ratio(slowest, median(cellMedians)),
         "ratio"},
        {"unattributed_frac", 1.0 - (fEq + fMc + fCache + fVm + fGen),
         "fraction"},
        {"trace.overhead_frac", (median(tracedWall) - wallS) / wallS,
         "fraction"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const UsageError &e) {
        std::cerr << "perfbench: " << e.msg << "\n";
        return 1;
    }
    // Simulator diagnostics stay off stdout's last line.
    refsched::setLogLevel(refsched::LogLevel::Warn);

    const std::string outDir = args.out + "/" + args.workload + "-seed"
        + std::to_string(args.seed) + "-trace" + std::to_string(args.trace);
    Plan plan;
    try {
        std::filesystem::create_directories(outDir);
        plan = makePlan(args.workload, args.seed, outDir);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    const bool traced = args.trace == 1;

    std::cout << "perfbench " << args.workload << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << args.trace
              << "\nhost: nproc=" << std::thread::hardware_concurrency()
              << " cpu=\"" << cpuModel() << "\"\nbuild: compiler=\""
              << PERFBENCH_COMPILER << "\" type=" << PERFBENCH_BUILD_TYPE
              << " commit=" << PERFBENCH_GIT_COMMIT << "\ncells="
              << plan.cells.size() << " jobs=" << plan.jobs
              << " inputs=" << outDir << "\n";

    Calibration cal = calibrate(plan, traced);
    long attempted = static_cast<long>(plan.cells.size());
    long failed = checkCalibration(plan, cal);

    // The vCPUs of a shared host differ in speed by up to 1.6x and
    // drift as neighbours come and go, while a lone busy thread stays
    // on whichever vCPU it started on.  So an inline workload pins
    // repeat k (and its traced twin) to the k-th allowed vCPU, and
    // the median runs over all of them.  Fan-out workloads use every
    // vCPU anyway and stay unpinned.
    const std::vector<int> cpus = allowedCpus();
    const bool rotate = plan.jobs == 1 && cpus.size() > 1;
    const int minReps = rotate
        ? std::max(kMinReps, static_cast<int>(cpus.size()))
        : kMinReps;
    std::vector<Rep> reps, tracedReps;
    const auto start = std::chrono::steady_clock::now();
    while (true) {
        if (rotate)
            pinTo(cpus[reps.size() % cpus.size()]);
        reps.push_back(runRep(plan, false));
        failed += checkRep(plan, cal, reps.front(), reps.back());
        attempted += static_cast<long>(plan.cells.size());
        if (traced) {
            tracedReps.push_back(runRep(plan, true));
            failed += checkRep(plan, cal, reps.front(), tracedReps.back());
            attempted += static_cast<long>(plan.cells.size());
        }
        const double elapsed = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count();
        if (static_cast<int>(reps.size()) >= minReps
            && elapsed >= args.seconds)
            break;
    }

    // Model outputs and digests: printed for the record, never ranked.
    std::map<std::string, long> errors;
    std::map<int, long> vcpus;
    long migrated = 0;
    for (const auto &e : cal.errors)
        if (!e.empty())
            ++errors["calibration: " + e];
    for (const auto *set : {&reps, &tracedReps})
        for (const Rep &r : *set)
            for (const CellRun &c : r.cells) {
                if (!c.ok)
                    ++errors[c.error];
                ++vcpus[c.cpuStart];
                migrated += c.cpuStart != c.cpuEnd;
            }
    const Rep &ref = reps.front();
    std::ostringstream model;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const CellRun &c = ref.cells[i];
        digest = (digest ^ c.digest.hash()) * 0x100000001b3ULL;
        model << "model " << plan.cells[i].name << " model.hmean_ipc="
              << std::setprecision(6) << c.digest.hmeanIpc;
        const int twin = allBankTwin(plan, plan.cells[i]);
        if (plan.cells[i].cfg.policy == refsched::core::Policy::CoDesign
            && twin >= 0)
            model << " model.codesign_speedup="
                  << c.digest.hmeanIpc
                      / ref.cells[static_cast<std::size_t>(twin)]
                            .digest.hmeanIpc;
        model << " reads=" << c.digest.reads << " writes=" << c.digest.writes
              << " refreshes=" << c.digest.refreshes
              << " blocked=" << c.digest.blockedReads
              << " events=" << c.digest.events;
        if (plan.cells[i].cfg.serving.enabled)
            model << " model.serving_p99_ns=" << c.servingP99Ns
                  << " completed=" << c.digest.servingCompleted
                  << " drops=" << c.digest.servingDrops;
        if (!plan.cells[i].cfg.scenario.empty())
            model << " spawns=" << c.digest.spawns << " kills="
                  << c.digest.kills << " migrated=" << c.digest.migratedPages;
        model << " digest=" << std::hex << c.digest.hash() << std::dec
              << "\n";
    }
    std::ostringstream vcpuText, wallText;
    for (const auto &[cpu, count] : vcpus)
        vcpuText << (vcpuText.tellp() > 0 ? ", " : "") << "\"" << cpu
                 << "\": " << count;
    for (const Rep &r : reps)
        wallText << (wallText.tellp() > 0 ? ", " : "")
                 << std::setprecision(6) << r.wallS;
    std::cout << model.str() << "model.digest " << std::hex << digest
              << std::dec << "\n";
    for (const auto &[why, count] : errors)
        std::cout << "FAILED x" << count << ": " << why << "\n";
    std::cout << "reps=" << reps.size() << " traced_reps=" << tracedReps.size()
              << " rep_wall_s=[" << wallText.str() << "] vcpus={"
              << vcpuText.str() << "} migrated_cells=" << migrated << "\n";

    const std::vector<Metric> metrics = traced
        ? perLayer(plan, cal, reps, tracedReps)
        : endToEnd(cal, reps);

    std::ostringstream json;
    json << std::setprecision(17) << "{\"correct\": "
         << (failed == 0 ? "true" : "false") << ", \"attempted\": "
         << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::cout << "metric " << m.name << " " << std::setprecision(6)
                  << m.value << " " << m.unit << "\n";
        json << (i ? ", " : "") << jsonString(m.name) << ": {\"value\": "
             << (std::isfinite(m.value) ? m.value : 0.0)
             << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    json << "}}";

    std::ofstream result(outDir + "/result.json");
    result << "{\"workload\": " << jsonString(args.workload)
           << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
           << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
           << ", \"cpu\": " << jsonString(cpuModel()) << "}, \"build\": "
           << "{\"compiler\": " << jsonString(PERFBENCH_COMPILER)
           << ", \"type\": " << jsonString(PERFBENCH_BUILD_TYPE)
           << ", \"commit\": " << jsonString(PERFBENCH_GIT_COMMIT)
           << "}, \"vcpus\": {" << vcpuText.str() << "}, \"migrated_cells\": "
           << migrated << ", \"rep_wall_s\": [" << wallText.str()
           << "], \"model\": " << jsonString(model.str())
           << ", \"result\": " << json.str() << "}\n";

    std::cout << json.str() << std::endl;
    return 0;
}
