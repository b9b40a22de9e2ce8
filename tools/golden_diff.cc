/**
 * @file
 * Golden-trace differential harness driver.
 *
 *   golden_diff record --out FILE [--workload WL-8] [--policy P]
 *                      [--density G] [--scale N] [--warmup Q]
 *                      [--measure Q]
 *       run one experiment with a trace recorder attached and write
 *       the event stream to FILE
 *
 *   golden_diff diff FILE1 FILE2
 *       compare two recorded traces; exit 0 when identical, 1 with a
 *       first-divergence report otherwise
 *
 *   golden_diff jobs-check [--jobs N] [--workload WL-8] [--scale N]
 *                          [--warmup Q] [--measure Q]
 *       run a small policy grid sequentially (--jobs 1) and again
 *       with N workers, and verify every cell's event stream is
 *       byte-identical -- the determinism contract of the parallel
 *       runner, checked at event granularity
 *
 * Invalid input exits 1 with one "fatal:" line on stderr.
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/system.hh"
#include "simcore/parse.hh"
#include "validate/golden_trace.hh"

using namespace refsched;

namespace
{

struct Options
{
    std::string out;
    std::string workload = "WL-8";
    core::Policy policy = core::Policy::CoDesign;
    int densityGb = 32;
    unsigned timeScale = 1024;
    int warmupQuanta = 2;
    int measureQuanta = 8;
    int jobs = 8;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " record --out FILE [options]\n"
        << "       " << argv0 << " diff FILE1 FILE2\n"
        << "       " << argv0 << " jobs-check [--jobs N] [options]\n\n"
        << "options:\n"
        << "  --workload NAME   Table 2 workload (default WL-8)\n"
        << "  --policy P        all-bank | per-bank | co-design | ..."
           " (record only)\n"
        << "  --density G       8 | 16 | 24 | 32 (default 32)\n"
        << "  --scale N         timeScale (default 1024)\n"
        << "  --warmup Q        warm-up quanta (default 2)\n"
        << "  --measure Q       measured quanta (default 8)\n"
        << "  --jobs N          parallel worker count to check"
           " against sequential (default 8)\n";
    std::exit(2);
}

Options
parse(int argc, char **argv, int first)
{
    Options o;
    auto need = [&](int &i) { return flagValue(argc, argv, i); };
    auto num = [&](int &i, auto &field) {
        parseFlag(argc, argv, i, field);
    };
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out")
            o.out = need(i);
        else if (a == "--workload")
            o.workload = need(i);
        else if (a == "--policy")
            o.policy = core::policyFromString(need(i));
        else if (a == "--density")
            num(i, o.densityGb);
        else if (a == "--scale")
            num(i, o.timeScale);
        else if (a == "--warmup")
            num(i, o.warmupQuanta);
        else if (a == "--measure")
            num(i, o.measureQuanta);
        else if (a == "--jobs")
            num(i, o.jobs);
        else
            fatal("unknown option: ", a);
    }
    return o;
}

core::SystemConfig
cellConfig(const Options &o, core::Policy policy)
{
    return core::makeConfig(
        o.workload, policy, static_cast<dram::DensityGb>(o.densityGb),
        milliseconds(64.0), 2, 4, o.timeScale);
}

int
cmdRecord(const Options &o)
{
    if (o.out.empty())
        fatal("record needs --out FILE");
    validate::TraceRecorder rec;
    core::System sys(cellConfig(o, o.policy));
    sys.attachProbe(&rec);
    sys.run(o.warmupQuanta, o.measureQuanta);
    validate::writeTraceFile(o.out, rec);
    std::cout << o.out << ": " << rec.eventCount() << " events, "
              << rec.data().size() << " payload bytes\n";
    return 0;
}

int
cmdDiff(const std::string &a, const std::string &b)
{
    const auto ta = validate::readTraceFile(a);
    const auto tb = validate::readTraceFile(b);
    const auto d = validate::diffTraces(ta, tb);
    if (d.identical) {
        std::cout << "identical (" << ta.size() << " events)\n";
        return 0;
    }
    std::cout << d.describe() << "\n";
    return 1;
}

int
cmdJobsCheck(const Options &o)
{
    const std::vector<core::Policy> policies{core::Policy::AllBank,
                                             core::Policy::PerBank,
                                             core::Policy::CoDesign};

    // One recorder per (run, cell).  Cells are self-contained
    // thunks: each builds its own System and feeds its own recorder,
    // so the parallel run touches no shared mutable state.
    auto runGrid = [&](int jobs,
                       std::vector<validate::TraceRecorder> &recs) {
        recs = std::vector<validate::TraceRecorder>(policies.size());
        std::vector<core::CellSpec> cells;
        for (std::size_t i = 0; i < policies.size(); ++i) {
            core::CellSpec cell;
            auto *rec = &recs[i];
            const auto cfg = cellConfig(o, policies[i]);
            cell.custom = [cfg, rec, &o] {
                core::System sys(cfg);
                sys.attachProbe(rec);
                return sys.run(o.warmupQuanta, o.measureQuanta);
            };
            cells.push_back(std::move(cell));
        }
        core::ParallelRunner(jobs).runCells(cells);
    };

    std::vector<validate::TraceRecorder> seq, par;
    runGrid(1, seq);
    runGrid(o.jobs, par);

    bool ok = true;
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const std::string label =
            o.workload + "/" + core::toString(policies[i]);
        if (seq[i].data() == par[i].data()) {
            std::cout << label << ": identical ("
                      << seq[i].eventCount() << " events)\n";
            continue;
        }
        ok = false;
        const auto d = validate::diffTraces(
            validate::decodeTrace(seq[i].data()),
            validate::decodeTrace(par[i].data()));
        std::cout << label << ": DIVERGED (--jobs 1 vs --jobs "
                  << o.jobs << ")\n  " << d.describe() << "\n";
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    const std::string cmd = argv[1];

    try {
        if (cmd == "record")
            return cmdRecord(parse(argc, argv, 2));
        if (cmd == "diff") {
            if (argc != 4)
                fatal("diff needs exactly two files");
            return cmdDiff(argv[2], argv[3]);
        }
        if (cmd == "jobs-check")
            return cmdJobsCheck(parse(argc, argv, 2));
        fatal("unknown command: ", cmd);
    } catch (const FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
