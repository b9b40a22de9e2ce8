#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "dram/refresh_scheduler.hh"
#include "memctrl/memory_controller.hh"
#include "simcore/logging.hh"
#include "workload/trace_generator.hh"

namespace perfbench
{

using namespace refsched;

namespace
{

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/**
 * Trace entries replayed per task per pass, and passes per cell.  A
 * pass replays each live task's next kChunk entries back to back on
 * its own CPU, the way a quantum runs them; each per-unit cost is
 * the median pass.
 */
constexpr std::size_t kChunk = 1 << 13;
constexpr int kPasses = 3;
/** Minimum controller requests and scheduler picks per replay. */
constexpr std::size_t kMinRequests = 4096;
constexpr std::size_t kMinPicks = 16384;
/** Fired events per timed event-queue pass. */
constexpr std::size_t kQueueOps = 1 << 15;

double
scalarStat(core::System &sys, const std::string &name)
{
    const auto *s = dynamic_cast<const Scalar *>(sys.stats().find(name));
    if (!s)
        fatal("perfbench: no scalar stat '", name, "'");
    return s->value();
}

struct Entry
{
    os::Task *task;
    int cpu;
    Addr vaddr;
    bool isWrite;
};

class NullCallee final : public Callee
{
  public:
    void fire(Tick, std::uint64_t, std::uint64_t) override { ++fired; }
    std::uint64_t fired = 0;
};

/** The initial tasks still alive, with their trace generators. */
std::vector<std::pair<os::Task *, const workload::SyntheticTraceGenerator *>>
liveGenerators(core::System &sys)
{
    std::vector<
        std::pair<os::Task *, const workload::SyntheticTraceGenerator *>>
        out;
    for (os::Task *t : sys.tasks()) {
        const auto *gen =
            dynamic_cast<const workload::SyntheticTraceGenerator *>(
                t->source);
        if (gen && t->state != os::TaskState::Finished)
            out.emplace_back(t, gen);
    }
    if (out.empty())
        fatal("perfbench: no live initial task to replay");
    return out;
}

/** SyntheticTraceGenerator::next over fresh generators seeded as
 *  System seeds the cell's tasks; fills @p entries pass by pass,
 *  task by task. */
void
replayGenerator(const Cell &cell, core::System &sys,
                std::vector<Entry> &entries, Replay &r)
{
    const auto live = liveGenerators(sys);
    std::vector<double> perInstr;
    std::vector<workload::SyntheticTraceGenerator> gens;
    for (const auto &[task, gen] : live)
        gens.emplace_back(gen->profile(),
                          cell.cfg.seed * 1000003ULL
                              + static_cast<std::uint64_t>(task->pid() - 1),
                          gen->footprintBytes());
    entries.resize(kChunk * live.size() * kPasses);
    Entry *out = entries.data();
    for (int pass = 0; pass < kPasses; ++pass) {
        std::uint64_t instrs = 0;
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < live.size(); ++k) {
            os::Task *task = live[k].first;
            const int cpu = std::max(sys.scheduler().cpuOf(task), 0);
            for (std::size_t i = 0; i < kChunk; ++i) {
                const cpu::TraceEntry e = gens[k].next();
                instrs += e.gap + 1u;
                *out++ = {task, cpu, e.vaddr, e.isWrite};
            }
        }
        perInstr.push_back(nsSince(t0) / static_cast<double>(instrs));
        r.genInstrs += static_cast<double>(instrs);
    }
    r.genNs = median(perInstr) * r.genInstrs;
}

/** VirtualMemory::translate then CacheHierarchy::access over the
 *  replayed stream. */
void
replayVmAndCache(core::System &sys, const std::vector<Entry> &entries,
                 Replay &r)
{
    std::vector<Addr> paddrs(entries.size());
    std::vector<double> vmNs, cacheNs;
    const std::size_t perPass = entries.size() / kPasses;
    for (int pass = 0; pass < kPasses; ++pass) {
        const std::size_t lo = pass * perPass, hi = lo + perPass;
        auto t0 = Clock::now();
        for (std::size_t i = lo; i < hi; ++i)
            paddrs[i] = sys.vm().translate(*entries[i].task,
                                           entries[i].vaddr);
        vmNs.push_back(nsSince(t0));

        t0 = Clock::now();
        for (std::size_t i = lo; i < hi; ++i)
            sys.caches().access(entries[i].cpu, entries[i].task->pid(),
                                paddrs[i], entries[i].isWrite);
        cacheNs.push_back(nsSince(t0));
    }
    r.vmCalls = r.cacheCalls = static_cast<double>(entries.size());
    r.vmNs = median(vmNs) * kPasses;
    r.cacheNs = median(cacheNs) * kPasses;
}

/** Host ns per fired event of EventQueue cancel-and-reschedule +
 *  fire -- the controller's wake-up pattern -- at a live population
 *  of @p live events.  Median of kPasses passes. */
double
kernelNsPerEvent(double live)
{
    EventQueue eq;
    NullCallee callee;
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    const auto delta = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return static_cast<Tick>(1 + x % 20000);
    };
    const auto population =
        static_cast<std::size_t>(std::max(1.0, std::round(live)));
    for (std::size_t i = 0; i < population; ++i)
        eq.schedule(delta(), callee, 0, 0);
    std::vector<double> ns;
    for (int pass = 0; pass < kPasses; ++pass) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kQueueOps; ++i) {
            EventHandle h = eq.schedule(eq.now() + delta(), callee, 0, 0);
            h.cancel();
            eq.schedule(eq.now() + delta(), callee, 0, 0);
            eq.runOne();
        }
        ns.push_back(nsSince(t0) / static_cast<double>(kQueueOps));
    }
    return median(ns);
}

/**
 * MemoryController::enqueue + EventQueue::runUntil on a fresh
 * controller of the cell's configuration, fed the requests the cell's
 * controller served (its recorded column commands, in order, at their
 * in-situ ticks; the stream repeats until kMinRequests).  Addresses
 * are composed from the recorded bank and row, so row locality is the
 * cell's own.
 */
void
replayController(const Cell &cell, const std::vector<CasRecord> &stream,
                 Replay &r)
{
    EventQueue eq;
    const dram::DramDeviceConfig dev = cell.cfg.deviceConfig();
    memctrl::MemoryController mc(
        eq, dev, dram::makeRefreshScheduler(cell.cfg.refreshPolicy(), dev),
        cell.cfg.mcParams);
    NullCallee sink;
    if (stream.empty())
        return;

    const std::uint64_t columns = dev.org.columnsPerRow();
    const Tick span = stream.back().tick + 1;
    const std::size_t n = std::max(kMinRequests, stream.size());
    std::uint64_t reads = 0;
    double liveSum = 0;

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        const CasRecord &c = stream[i % stream.size()];
        eq.runUntil(std::max(eq.now(),
                             c.tick + static_cast<Tick>(i / stream.size())
                                 * span));
        dram::DramCoord coord;
        coord.channel = c.channel;
        coord.rank = c.rank;
        coord.bank = c.bank;
        coord.row = c.row;
        coord.column = i % columns;
        memctrl::Request req;
        req.paddr = mc.mapping().compose(coord);
        req.type = c.isWrite ? memctrl::Request::Type::Write
                             : memctrl::Request::Type::Read;
        if (!c.isWrite) {
            req.completion = &sink;
            ++reads;
        }
        while (true) {
            req.enqueuedAt = eq.now();
            if (mc.enqueue(req))
                break;
            if (!eq.runOne())
                panic("perfbench: controller replay stalled");
        }
        liveSum += static_cast<double>(eq.liveCount());
    }
    while (sink.fired < reads && eq.runOne()) {
    }
    r.mcNs = nsSince(t0);
    r.mcRequests = static_cast<double>(n);
    r.mcEvents = static_cast<double>(eq.executedCount());
    r.mcKernelNs = kernelNsPerEvent(liveSum / static_cast<double>(n));
}

/** Scheduler::pickNextTask over the cell's quantum boundaries, with
 *  the refresh exposure System gives Algorithm 3. */
void
replayScheduler(const Cell &cell, core::System &sys, Replay &r)
{
    const Tick q = cell.cfg.effectiveQuantum();
    const int quanta = cell.run.warmupQuanta + cell.run.measureQuanta;
    const auto &rs = sys.controller().refreshScheduler();
    std::vector<std::vector<int>> banks(static_cast<std::size_t>(quanta));
    if (cell.cfg.refreshAwareScheduling) {
        for (int k = 0; k < quanta; ++k)
            for (int ch = 0; ch < cell.cfg.channels; ++ch)
                for (int b : rs.banksUnderRefreshAt(ch, k * q))
                    banks[static_cast<std::size_t>(k)].push_back(b);
    }
    const std::size_t perRound =
        static_cast<std::size_t>(quanta * cell.cfg.numCores);
    const std::size_t rounds = (kMinPicks + perRound - 1) / perRound;
    std::vector<double> ns;
    for (int pass = 0; pass < kPasses; ++pass) {
        const auto t0 = Clock::now();
        for (std::size_t round = 0; round < rounds; ++round)
            for (const auto &b : banks)
                for (int cpu = 0; cpu < cell.cfg.numCores; ++cpu)
                    sys.scheduler().pickNextTask(cpu, b);
        ns.push_back(nsSince(t0));
    }
    r.picks = static_cast<double>(rounds * perRound * kPasses);
    r.pickNs = median(ns) * kPasses;
}

} // namespace

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
ProbeCounts::add(const ProbeCounts &o)
{
    for (std::size_t k = 0; k < cmds.size(); ++k)
        cmds[k] += o.cmds[k];
    for (std::size_t k = 0; k < picks.size(); ++k)
        picks[k] += o.picks[k];
    allocs += o.allocs;
    fallbackAllocs += o.fallbackAllocs;
    frees += o.frees;
    migrations += o.migrations;
    liveSum += o.liveSum;
    liveSamples += o.liveSamples;
}

double
ProbeCounts::meanLive() const
{
    return liveSamples ? static_cast<double>(liveSum)
            / static_cast<double>(liveSamples)
                       : 1.0;
}

void
CountingProbe::sampleLive()
{
    counts.liveSum += eq_.liveCount();
    ++counts.liveSamples;
}

void
CountingProbe::onDramCommand(const validate::DramCmdEvent &e)
{
    ++counts.cmds[static_cast<std::size_t>(e.op)];
    sampleLive();
    if (record_
        && (e.op == validate::DramOp::Read
            || e.op == validate::DramOp::Write))
        record_->push_back({e.tick, e.channel, e.rank, e.bank, e.row,
                            e.op == validate::DramOp::Write});
}

void
CountingProbe::onSchedPick(const validate::SchedPickEvent &e)
{
    ++counts.picks[static_cast<std::size_t>(e.kind)];
    sampleLive();
}

void
CountingProbe::onPageAlloc(const validate::PageAllocEvent &e)
{
    ++counts.allocs;
    if (e.fallback)
        ++counts.fallbackAllocs;
}

void
CountingProbe::onPageFree(const validate::PageFreeEvent &)
{
    ++counts.frees;
}

void
CountingProbe::onPageMigrate(const validate::PageMigrateEvent &)
{
    ++counts.migrations;
}

void
WholeRun::read(core::System &sys)
{
    const auto &cfg = sys.config();
    events = sys.executedEvents();
    simTicks = static_cast<double>(sys.eventQueue().now());
    cores = cfg.numCores;
    channels = cfg.channels;
    tCK = static_cast<double>(sys.controller().config().timings.tCK);

    for (int i = 0; i < cfg.numCores; ++i) {
        const cpu::Core &c = sys.core(i);
        instrs += static_cast<std::uint64_t>(c.instrsIssued.value());
        robStallTicks += c.robStallTicks.value();
        mshrStallTicks += c.mshrStallTicks.value();
        backpressure += c.mcBackpressureEvents.value();
    }
    cacheAccesses = scalarStat(sys, "caches.accesses");
    l1Misses = scalarStat(sys, "caches.l1Misses");
    l2Misses = scalarStat(sys, "caches.l2Misses");

    for (int ch = 0; ch < cfg.channels; ++ch) {
        const auto &s = sys.controller().channelStats(ch);
        mcReads += s.reads.value();
        mcWrites += s.writes.value();
        rowHits += s.rowHits.value();
        rowMisses += s.rowMisses.value();
        readQueueWaitTicks += s.readQueueWait.total();
        readQueueWaitSamples += static_cast<double>(s.readQueueWait.samples());
        readQueueOccIntegral +=
            sys.controller().readQueueOccupancyIntegral(ch);
        writeDrainBatches += s.writeDrainBatches.value();
        refreshCommands += s.refreshCommands.value();
        blockedReads += s.readsBlockedByRefresh.value();
        refreshBlockedTicks += s.refreshBlockedTicks.value();
    }

    pageFaults = sys.vm().pageFaults();
    buddyAllocs = sys.buddy().pagesAllocated();
    buddyFallbacks = sys.buddy().fallbackAllocations();

    if (const auto *inj = sys.servingInjector()) {
        servingArrivals = inj->arrivals();
        servingCompleted = inj->completed();
        servingDrops = inj->dropped();
        servingBacklog = inj->backlogDepth();
        servingBacklogPeak = scalarStat(sys, "serving.backlogPeak");
        servingRetryWaits = scalarStat(sys, "serving.retryWaits");
        servingPool = cfg.serving.poolSize;
        const std::uint64_t started =
            servingArrivals - servingDrops - servingBacklog;
        servingLines = started
            * static_cast<std::uint64_t>(cfg.serving.linesPerRequest);
    }
}

void
WholeRun::add(const WholeRun &o)
{
    events += o.events;
    instrs += o.instrs;
    simTicks += o.simTicks;
    tCK = o.tCK;
    cacheAccesses += o.cacheAccesses;
    l1Misses += o.l1Misses;
    l2Misses += o.l2Misses;
    mcReads += o.mcReads;
    mcWrites += o.mcWrites;
    rowHits += o.rowHits;
    rowMisses += o.rowMisses;
    readQueueWaitTicks += o.readQueueWaitTicks;
    readQueueWaitSamples += o.readQueueWaitSamples;
    readQueueOccIntegral += o.readQueueOccIntegral;
    writeDrainBatches += o.writeDrainBatches;
    refreshCommands += o.refreshCommands;
    blockedReads += o.blockedReads;
    refreshBlockedTicks += o.refreshBlockedTicks;
    robStallTicks += o.robStallTicks;
    mshrStallTicks += o.mshrStallTicks;
    backpressure += o.backpressure;
    pageFaults += o.pageFaults;
    buddyAllocs += o.buddyAllocs;
    buddyFallbacks += o.buddyFallbacks;
    servingArrivals += o.servingArrivals;
    servingCompleted += o.servingCompleted;
    servingDrops += o.servingDrops;
    servingBacklog += o.servingBacklog;
    servingBacklogPeak = std::max(servingBacklogPeak, o.servingBacklogPeak);
    servingRetryWaits += o.servingRetryWaits;
    servingLines += o.servingLines;
    servingPool += o.servingPool;
}

double
Replay::perRequest() const
{
    return std::max(0.0, mcNs - mcEvents * mcKernelNs) / mcRequests;
}

Replay
replayLayers(const Cell &cell, core::System &sys,
             const std::vector<CasRecord> &requests, double liveEvents)
{
    // Replays must not feed the probe that counted the cell.
    sys.controller().setProbe(nullptr);
    sys.scheduler().setProbe(nullptr);
    sys.buddy().setProbe(nullptr, nullptr);
    if (auto *d = sys.scenarioDirector())
        d->setProbe(nullptr);

    Replay r;
    std::vector<Entry> entries;
    replayGenerator(cell, sys, entries, r);
    replayVmAndCache(sys, entries, r);
    r.eqNsPerEvent = kernelNsPerEvent(liveEvents);
    replayController(cell, requests, r);
    replayScheduler(cell, sys, r);
    return r;
}

} // namespace perfbench
