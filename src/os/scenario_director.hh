/**
 * @file
 * Dynamic-workload scenario engine: executes a ScenarioScript against
 * a running system from the event kernel.
 *
 * At every scheduler quantum boundary (after the scheduler's own
 * expiry handler -- the director runs at StatDump priority) the
 * director:
 *
 *   1. finishes pending kills whose victim is off-CPU and has no
 *      in-flight migration copies (releasing its address space
 *      through the buddy allocator and removing it from the
 *      scheduler);
 *   2. executes the script events due this quantum: spawns (a new
 *      Task + instruction source via the System hook, sequential
 *      pids) and kills (a Running victim is put to sleep and
 *      finished at a later boundary);
 *   3. trims footprints of tasks whose macro-phase changed to a
 *      smaller effective footprint (growth demand-pages back in);
 *   4. re-binpacks every live task's possible_banks_vector after
 *      churn (when the script asks for it), the consolidation step
 *      that strands placements;
 *   5. migrates pages stranded outside their task's new mask
 *      (when the script asks for it): the mapping is rewritten
 *      immediately and the copy is modelled as real cache-line
 *      read/write requests through the memory controller, with the
 *      source frame freed only when the last line has been read.
 *
 * All decisions derive from the script and the shared event queue, so
 * scenario runs are bit-identical across --jobs.
 */

#ifndef REFSCHED_OS_SCENARIO_DIRECTOR_HH
#define REFSCHED_OS_SCENARIO_DIRECTOR_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dram/address_mapping.hh"
#include "os/buddy_allocator.hh"
#include "os/scheduler.hh"
#include "os/task.hh"
#include "os/virtual_memory.hh"
#include "simcore/event_queue.hh"
#include "simcore/probe.hh"
#include "simcore/stats.hh"
#include "workload/scenario.hh"

namespace refsched::memctrl
{
class MemoryController;
} // namespace refsched::memctrl

namespace refsched::os
{

class ScenarioDirector final : public Callee
{
  public:
    /** Seams into the owning System. */
    struct Hooks
    {
        /**
         * Create a Task (with @p pid) plus its instruction source for
         * a spawn event and register both with the System's ownership
         * lists.  Returns the task; the director enrolls it with the
         * scheduler.
         */
        std::function<Task *(const workload::ScenarioEvent &, Pid pid)>
            spawnTask;

        /** Recompute possible_banks_vector for @p live (in order). */
        std::function<void(const std::vector<Task *> &live)>
            reassignMasks;

        /** {phaseEpoch, effectiveFootprintBytes} of @p task's
         *  generator (macro-phase tracking). */
        std::function<std::pair<std::uint64_t, std::uint64_t>(
            const Task &)>
            phaseState;
    };

    ScenarioDirector(EventQueue &eq, Scheduler &sched,
                     VirtualMemory &vm, BuddyAllocator &buddy,
                     memctrl::MemoryController &mem,
                     const dram::AddressMapping &mapping,
                     const workload::ScenarioScript &script,
                     Hooks hooks);

    /** Register the initial task set (pid order) and schedule the
     *  first boundary.  Call after Scheduler::start(). */
    void start(const std::vector<Task *> &initialTasks);

    /** Migration-copy read completions (cookie0 = job index,
     *  cookie1 = line index). */
    void fire(Tick now, std::uint64_t jobIdx,
              std::uint64_t lineIdx) override;

    void registerStats(StatRegistry &reg, const std::string &prefix);

    /** Live tasks, in pid order. */
    const std::vector<Task *> &liveTasks() const { return live_; }

    /** Migration copies still in flight (tests drain on this). */
    bool migrationsPending() const { return outstandingReads_ > 0; }

    // --- Statistics ---
    Scalar spawns;
    Scalar kills;
    Scalar phaseChanges;
    Scalar pagesMigrated;
    Scalar migrationReads;
    Scalar migrationWrites;
    Scalar pagesTrimmed;

  private:
    /** One page being copied: reads from the old frame, then posted
     *  writes to the new one; the source frame is freed when the
     *  last line completes. */
    struct MigrationJob
    {
        Task *task = nullptr;
        Pid pid = -1;
        std::uint64_t fromPfn = 0;
        std::uint64_t toPfn = 0;
        int linesIssued = 0;
        int linesDone = 0;
    };

    void onBoundary(std::uint64_t k);
    void finalizeKill(Task *task);
    void migrateStalePages(Task *task);
    void issueCopyReads();
    void flushPendingWrites();
    void armRetry();

    int linesPerPage() const
    {
        return static_cast<int>(mapping_.pageBytes() / 64);
    }

    EventQueue &eq_;
    Scheduler &sched_;
    VirtualMemory &vm_;
    BuddyAllocator &buddy_;
    memctrl::MemoryController &mem_;
    const dram::AddressMapping &mapping_;
    workload::ScenarioScript script_;
    Hooks hooks_;
    validate::Probe *probe_ = nullptr;

  public:
    /** Attach an instrumentation probe (task lifecycle and page
     *  migration events are reported through it).  Null detaches. */
    void setProbe(validate::Probe *probe) { probe_ = probe; }

  private:
    std::vector<Task *> live_;
    std::vector<Task *> pendingKills_;
    std::size_t eventIdx_ = 0;
    Pid nextPid_ = 1;
    Tick base_ = 0;

    std::unordered_map<Pid, std::uint64_t> lastEpoch_;
    /** In-flight migration jobs per pid (kills wait on zero). */
    std::unordered_map<Pid, int> activeJobs_;

    /** Jobs are appended, never erased: cookie0 indexes here. */
    std::vector<MigrationJob> jobs_;
    /** Jobs with unissued read lines, in creation order. */
    std::deque<std::size_t> readQueue_;
    /** Copy writes bounced by a full write queue. */
    std::deque<std::pair<Addr, Pid>> pendingWrites_;
    int outstandingReads_ = 0;
    bool retryArmed_ = false;

    /** Cap on in-flight copy reads: one page's worth of lines, so a
     *  consolidation sweep drains within a few quanta without
     *  monopolising the read queue. */
    static constexpr int kMaxOutstandingReads = 64;
};

} // namespace refsched::os

#endif // REFSCHED_OS_SCENARIO_DIRECTOR_HH
