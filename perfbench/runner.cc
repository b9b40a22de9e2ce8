#include "runner.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>

#include "core/parallel_runner.hh"
#include "core/system.hh"

namespace perfbench
{

using namespace refsched;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

Digest
digestOf(core::System &sys, const core::Metrics &m)
{
    Digest d;
    d.hmeanIpc = m.harmonicMeanIpc;
    d.reads = m.dramReads;
    d.writes = m.dramWrites;
    d.refreshes = m.refreshCommands;
    d.blockedReads = m.readsBlockedByRefresh;
    d.events = sys.executedEvents();
    if (const auto *inj = sys.servingInjector()) {
        d.servingCompleted = inj->completed();
        d.servingDrops = inj->dropped();
    }
    if (const auto *dir = sys.scenarioDirector()) {
        d.spawns = static_cast<std::uint64_t>(dir->spawns.value());
        d.kills = static_cast<std::uint64_t>(dir->kills.value());
        d.migratedPages =
            static_cast<std::uint64_t>(dir->pagesMigrated.value());
    }
    return d;
}

void
fail(CellRun &cr, const std::string &why)
{
    if (cr.ok) {
        cr.ok = false;
        cr.error = why;
    }
}

} // namespace

int
allBankTwin(const Plan &plan, const Cell &cell)
{
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const auto &c = plan.cells[i].cfg;
        if (c.policy == core::Policy::AllBank && c.density == cell.cfg.density
            && c.channels == cell.cfg.channels
            && c.benchmarks == cell.cfg.benchmarks)
            return static_cast<int>(i);
    }
    return -1;
}

std::uint64_t
Digest::hash() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mixIn = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    std::uint64_t ipcBits;
    std::memcpy(&ipcBits, &hmeanIpc, sizeof ipcBits);
    for (std::uint64_t v :
         {ipcBits, reads, writes, refreshes, blockedReads, events,
          servingCompleted, servingDrops, spawns, kills, migratedPages})
        mixIn(v);
    return h;
}

Rep
runRep(const Plan &plan, bool traced)
{
    const std::size_t n = plan.cells.size();
    Rep rep;
    rep.cells.resize(n);
    if (traced)
        rep.probes.resize(n);

    const auto origin = Clock::now();
    core::ParallelRunner(plan.jobs).runIndexed(n, [&](std::size_t i) {
        const Cell &cell = plan.cells[i];
        CellRun &cr = rep.cells[i];
        try {
            const auto t0 = Clock::now();
            core::System sys(cell.cfg);
            const auto t1 = Clock::now();
            if (traced) {
                rep.probes[i] =
                    std::make_unique<CountingProbe>(sys.eventQueue());
                sys.attachProbe(rep.probes[i].get());
            }
            cr.cpuStart = sched_getcpu();
            const auto t2 = Clock::now();
            const core::Metrics m =
                sys.run(cell.run.warmupQuanta, cell.run.measureQuanta);
            const auto t3 = Clock::now();
            cr.cpuEnd = sched_getcpu();
            cr.setupS = secondsBetween(t0, t1);
            cr.runS = secondsBetween(t2, t3);
            cr.runStart = secondsBetween(origin, t2);
            cr.runEnd = secondsBetween(origin, t3);
            cr.digest = digestOf(sys, m);
            if (const auto *inj = sys.servingInjector())
                cr.servingP99Ns = inj->latency().quantile(0.99) / 1000.0;
        } catch (const std::exception &e) {
            fail(cr, e.what());
        }
    });

    double first = 1e300, last = 0, sumRun = 0;
    for (const CellRun &cr : rep.cells) {
        rep.setupS += cr.setupS;
        sumRun += cr.runS;
        first = std::min(first, cr.runStart);
        last = std::max(last, cr.runEnd);
    }
    rep.wallS = plan.jobs == 1 ? sumRun : last - first;
    return rep;
}

Calibration
calibrate(const Plan &plan, bool traced)
{
    const std::size_t n = plan.cells.size();
    Calibration cal;
    cal.counts.resize(n);
    cal.errors.resize(n);
    cal.probes.resize(n);
    if (traced)
        cal.replays.resize(n);

    core::ParallelRunner(plan.jobs).runIndexed(n, [&](std::size_t i) {
        const Cell &cell = plan.cells[i];
        try {
            core::System sys(cell.cfg);
            std::vector<CasRecord> requests;
            if (traced) {
                cal.probes[i] = std::make_unique<CountingProbe>(
                    sys.eventQueue(), &requests);
                sys.attachProbe(cal.probes[i].get());
            }
            sys.run(0, cell.run.warmupQuanta + cell.run.measureQuanta);
            cal.counts[i].read(sys);
            if (traced) {
                cal.replays[i] = replayLayers(
                    cell, sys, requests, cal.probes[i]->counts.meanLive());
            }
        } catch (const std::exception &e) {
            cal.errors[i] = e.what();
        }
    });
    return cal;
}

int
checkCalibration(const Plan &plan, Calibration &cal)
{
    int failed = 0;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const WholeRun &w = cal.counts[i];
        if (cal.errors[i].empty() && plan.checks.servingConservation) {
            // Whatever arrived and was neither completed, dropped nor
            // backlogged must be in service: at most one per slot.
            const std::uint64_t accounted =
                w.servingCompleted + w.servingDrops + w.servingBacklog;
            if (w.servingArrivals < accounted
                || w.servingArrivals - accounted
                    > static_cast<std::uint64_t>(w.servingPool))
                cal.errors[i] = "serving arrivals not conserved";
        }
        failed += cal.errors[i].empty() ? 0 : 1;
    }
    return failed;
}

int
checkRep(const Plan &plan, const Calibration &cal, const Rep &ref,
         Rep &rep)
{
    int failed = 0;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const Cell &cell = plan.cells[i];
        CellRun &cr = rep.cells[i];
        if (cr.ok) {
            if (!(cr.digest == ref.cells[i].digest))
                fail(cr, "model digest differs from the first rep");
            if (cal.errors[i].empty()
                && cr.digest.events != cal.counts[i].events)
                fail(cr, "event count differs from the calibration pass");
            if (!rep.probes.empty() && cal.probes[i]
                && !(rep.probes[i]->counts == cal.probes[i]->counts))
                fail(cr, "probe counts differ from the calibration pass");
            if (plan.checks.codesignNoBlocked
                && cell.cfg.policy == core::Policy::CoDesign
                && cr.digest.blockedReads != 0)
                fail(cr, "co-design cell saw refresh-blocked reads");
            const int twin = allBankTwin(plan, cell);
            if (plan.checks.codesignBeatsAllBank
                && cell.cfg.policy == core::Policy::CoDesign && twin >= 0
                && !(cr.digest.hmeanIpc
                     > rep.cells[static_cast<std::size_t>(twin)]
                           .digest.hmeanIpc))
                fail(cr, "co-design IPC does not beat all-bank");
        }
        failed += cr.ok ? 0 : 1;
    }
    return failed;
}

} // namespace perfbench
