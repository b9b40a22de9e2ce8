/**
 * @file
 * Per-layer attribution for the traced run.
 *
 * In-situ counts come from a cell's own finished System: its stat
 * registry and component accessors (WholeRun) and a counting
 * validate::Probe attached through System::attachProbe
 * (CountingProbe).  Host cost per unit of work comes from replaying
 * the cell's own inputs through each layer's public entry point in
 * timed batches (Replay).  busy = in-situ count x replayed ns/unit.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cells.hh"
#include "core/system.hh"
#include "simcore/probe.hh"

namespace perfbench
{

/** Median of @p v (the mean of the middle two when even). */
double median(std::vector<double> v);

/** Probe event counts of one cell (or a sum over cells). */
struct ProbeCounts
{
    /** Indexed by validate::DramOp. */
    std::array<std::uint64_t, 7> cmds{};
    /** Indexed by validate::PickKind. */
    std::array<std::uint64_t, 5> picks{};
    std::uint64_t allocs = 0;
    std::uint64_t fallbackAllocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t migrations = 0;
    /** Event-queue population summed over every command and pick. */
    std::uint64_t liveSum = 0;
    std::uint64_t liveSamples = 0;

    bool operator==(const ProbeCounts &) const = default;
    void add(const ProbeCounts &o);
    double meanLive() const;
};

/** One column command the controller issued: the request it served. */
struct CasRecord
{
    refsched::Tick tick;
    int channel, rank, bank;
    std::uint64_t row;
    bool isWrite;
};

/** Counts DRAM commands by op, scheduler picks by kind and page
 *  alloc/free/migrate events, and samples the event-queue
 *  population at every command and pick.  With @p record, also
 *  appends every read/write column command to it. */
class CountingProbe final : public refsched::validate::Probe
{
  public:
    explicit CountingProbe(const refsched::EventQueue &eq,
                           std::vector<CasRecord> *record = nullptr)
        : eq_(eq), record_(record)
    {
    }

    void onDramCommand(const refsched::validate::DramCmdEvent &e) override;
    void onSchedPick(const refsched::validate::SchedPickEvent &e) override;
    void onPageAlloc(const refsched::validate::PageAllocEvent &e) override;
    void onPageFree(const refsched::validate::PageFreeEvent &) override;
    void
    onPageMigrate(const refsched::validate::PageMigrateEvent &) override;

    ProbeCounts counts;

  private:
    void sampleLive();

    const refsched::EventQueue &eq_;
    std::vector<CasRecord> *record_;
};

/**
 * Whole-run in-situ counts of one cell, read from a System that ran
 * run(0, warmup + measure): the reset at tick 0 makes every stat
 * cover the same simulated interval as the timed run(warmup,
 * measure), so counts and the timed wall describe the same work.
 */
struct WholeRun
{
    std::uint64_t events = 0;
    std::uint64_t instrs = 0;
    double simTicks = 0;
    int cores = 0;
    int channels = 0;
    double tCK = 0;

    double cacheAccesses = 0, l1Misses = 0, l2Misses = 0;
    double mcReads = 0, mcWrites = 0, rowHits = 0, rowMisses = 0;
    double readQueueWaitTicks = 0, readQueueWaitSamples = 0;
    double readQueueOccIntegral = 0;
    double writeDrainBatches = 0, refreshCommands = 0;
    double blockedReads = 0, refreshBlockedTicks = 0;
    double robStallTicks = 0, mshrStallTicks = 0, backpressure = 0;

    std::uint64_t pageFaults = 0;
    std::uint64_t buddyAllocs = 0, buddyFallbacks = 0;

    std::uint64_t servingArrivals = 0, servingCompleted = 0;
    std::uint64_t servingDrops = 0, servingBacklog = 0;
    double servingBacklogPeak = 0, servingRetryWaits = 0;
    /** Lines translated by the serving injector (started requests x
     *  lines per request). */
    std::uint64_t servingLines = 0;
    int servingPool = 0;

    void read(refsched::core::System &sys);
    /** Sum counts over cells (cores and channels stay per cell). */
    void add(const WholeRun &o);
};

/** Host time and work of each layer's replay for one cell. */
struct Replay
{
    double genNs = 0, genInstrs = 0;
    double vmNs = 0, vmCalls = 0;
    double cacheNs = 0, cacheCalls = 0;
    /** Controller replay: wall, requests served, kernel events it
     *  fired and their kernel cost each at the replay's own event
     *  population (charged to simcore, not memctrl). */
    double mcNs = 0, mcRequests = 0, mcEvents = 0, mcKernelNs = 0;
    double pickNs = 0, picks = 0;
    /** Kernel cost per fired event at the cell's live population. */
    double eqNsPerEvent = 0;

    double perInstrGen() const { return genNs / genInstrs; }
    double perTranslate() const { return vmNs / vmCalls; }
    double perAccess() const { return cacheNs / cacheCalls; }
    double perPick() const { return pickNs / picks; }
    /** Controller self time per request: replay wall minus the
     *  kernel cost of the events it fired (never below 0). */
    double perRequest() const;
};

/**
 * Replay @p cell's inputs through each layer's entry point, using
 * @p sys -- the finished System of the cell -- for the stateful
 * layers (page tables, caches, runqueues) and a fresh controller fed
 * @p requests, the cell's recorded request stream, for memctrl.
 * @p liveEvents is the cell's mean live-event population.
 */
Replay replayLayers(const Cell &cell, refsched::core::System &sys,
                    const std::vector<CasRecord> &requests,
                    double liveEvents);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
