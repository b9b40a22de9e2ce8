#include "cells.hh"

#include <cctype>
#include <fstream>
#include <sstream>
#include <thread>

#include "simcore/logging.hh"
#include "workload/scenario.hh"
#include "workload/serving.hh"

namespace perfbench
{

using refsched::core::makeConfig;
using refsched::core::Policy;
using refsched::dram::DensityGb;

namespace
{

/** Every cell runs at the figure benches' default scale and run
 *  lengths, so a cell here costs what a figure cell costs. */
constexpr unsigned kTimeScale = 128;
constexpr int kWarmupQuanta = 8;
constexpr int kMeasureQuanta = 16;

/** SplitMix64 step: the benchmark's only source of randomness. */
std::uint64_t
mix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Uniform double in [lo, hi). */
double
uniform(std::uint64_t &state, double lo, double hi)
{
    const double u =
        static_cast<double>(mix(state) >> 11) / 9007199254740992.0;
    return lo + (hi - lo) * u;
}

Cell
makeCell(const std::string &wl, Policy policy, DensityGb density,
         std::uint64_t &rng)
{
    Cell c;
    c.cfg = makeConfig(wl, policy, density,
                       refsched::milliseconds(64.0), 2, 4, kTimeScale);
    c.cfg.seed = mix(rng);
    c.run.warmupQuanta = kWarmupQuanta;
    c.run.measureQuanta = kMeasureQuanta;
    c.name = wl + "/" + refsched::core::toString(policy) + "/"
        + refsched::dram::toString(density);
    return c;
}

std::string
writeInput(const std::string &dir, const std::string &file,
           const std::string &text)
{
    const std::string path = dir + "/" + file;
    std::ofstream os(path);
    os << text;
    if (!os)
        refsched::fatal("cannot write ", path);
    return path;
}

std::string
readInput(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    if (!is)
        refsched::fatal("cannot read ", path);
    return ss.str();
}

/**
 * Tenant churn for serve-churn: three rounds at quanta 3, 10 and 17
 * (one in warm-up, two measured), each killing one of the two tasks
 * of a fixed benchmark (mcf, GemsFDTD, stream in turn) and spawning a
 * replacement of the same benchmark on the same CPU one quantum
 * later.  The seed picks the victims, so every seed moves whom the
 * churn hits while keeping the task mix, and hence the amount of
 * work, the same.  reassign=1 re-binpacks the bank masks after each
 * round and migrate=1 copies the stale pages through the controller.
 */
std::string
churnScript(const std::vector<std::string> &benchmarks, int numCores,
            std::uint64_t &rng)
{
    std::ostringstream os;
    os << "# serve-churn tenant churn, generated from --seed\n"
       << "reassign=1\nmigrate=1\n";
    int round = 0;
    for (const char *victim : {"mcf", "GemsFDTD", "stream"}) {
        std::vector<int> pids;
        for (std::size_t i = 0; i < benchmarks.size(); ++i)
            if (benchmarks[i] == victim)
                pids.push_back(static_cast<int>(i) + 1);
        const int pid = pids[mix(rng) % pids.size()];
        const int quantum = 3 + 7 * round++;
        os << "ev=" << quantum << ":kill:" << pid << "\n"
           << "ev=" << quantum + 1 << ":spawn:" << victim
           << ":cpu=" << (pid - 1) % numCores << "\n";
    }
    return os.str();
}

/** MMPP-2 serving at the backlog knee of the serve-churn machine:
 *  at 1.2 req/us the backlog peaks at 19-32 of its 32 entries and
 *  some seeds drop a few dozen requests.  The seed jitters the load
 *  by 2% and drives the arrival streams. */
std::string
servingSpec(std::uint64_t &rng)
{
    std::ostringstream os;
    os.precision(4);
    os << "arrival=mmpp,load=" << uniform(rng, 1.176, 1.224)
       << ",pool=8,queue=32,lines=4,burst-ratio=4,burst-frac=0.1"
          ",burst-dwell=64";
    return os.str();
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "mem-refresh", "cpu-resident", "serve-churn", "fig-grid"};
    return names;
}

Plan
makePlan(const std::string &workload, std::uint64_t seed,
         const std::string &outDir)
{
    std::uint64_t rng = seed;
    Plan plan;
    plan.workload = workload;

    if (workload == "mem-refresh") {
        for (Policy p : {Policy::AllBank, Policy::PerBank,
                         Policy::CoDesign})
            plan.cells.push_back(makeCell("WL-1", p, DensityGb::d32, rng));
        plan.checks.codesignNoBlocked = true;
        plan.checks.codesignBeatsAllBank = true;
    } else if (workload == "cpu-resident") {
        plan.cells.push_back(
            makeCell("WL-4", Policy::CoDesign, DensityGb::d32, rng));
    } else if (workload == "serve-churn") {
        Cell c = makeCell("WL-1", Policy::CoDesign, DensityGb::d32, rng);
        c.name = "serve-churn/co-design/32Gb/2ch";
        c.cfg.channels = 2;
        c.cfg.benchmarks = {"mcf",      "povray", "GemsFDTD", "stream",
                            "mcf",      "povray", "GemsFDTD", "stream"};
        const std::string script =
            churnScript(c.cfg.benchmarks, c.cfg.numCores, rng);
        c.cfg.scenario = refsched::workload::ScenarioScript::parseFile(
            writeInput(outDir, "scenario.txt", script));
        const std::string spec = servingSpec(rng);
        std::string read =
            readInput(writeInput(outDir, "serving.txt", spec + "\n"));
        while (!read.empty() && std::isspace(
                   static_cast<unsigned char>(read.back())))
            read.pop_back();
        c.cfg.serving = refsched::workload::ServingConfig::parse(read);
        plan.cells.push_back(std::move(c));
        plan.checks.servingConservation = true;
    } else if (workload == "fig-grid") {
        // The Fig. 10 grid exactly as fig10_codesign_ipc enumerates
        // it (density-major, then workload, then policy).
        for (DensityGb d : {DensityGb::d16, DensityGb::d24,
                            DensityGb::d32})
            for (const char *wl : {"WL-1", "WL-2", "WL-5", "WL-8", "WL-10"})
                for (Policy p : {Policy::AllBank, Policy::PerBank,
                                 Policy::CoDesign})
                    plan.cells.push_back(makeCell(wl, p, d, rng));
        const unsigned n = std::thread::hardware_concurrency();
        plan.jobs = n > 0 ? static_cast<int>(n) : 1;
        plan.checks.codesignNoBlocked = true;
    } else {
        refsched::fatal("unknown workload '", workload, "'");
    }
    return plan;
}

} // namespace perfbench
