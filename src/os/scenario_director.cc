#include "os/scenario_director.hh"

#include <algorithm>

#include "memctrl/memory_controller.hh"
#include "simcore/logging.hh"

namespace refsched::os
{

ScenarioDirector::ScenarioDirector(
    EventQueue &eq, Scheduler &sched, VirtualMemory &vm,
    BuddyAllocator &buddy, memctrl::MemoryController &mem,
    const dram::AddressMapping &mapping,
    const workload::ScenarioScript &script, Hooks hooks)
    : eq_(eq),
      sched_(sched),
      vm_(vm),
      buddy_(buddy),
      mem_(mem),
      mapping_(mapping),
      script_(script),
      hooks_(std::move(hooks))
{
    script_.check();
}

void
ScenarioDirector::start(const std::vector<Task *> &initialTasks)
{
    live_ = initialTasks;
    nextPid_ = 1;
    for (const Task *t : live_) {
        nextPid_ = std::max<Pid>(nextPid_, t->pid() + 1);
        lastEpoch_[t->pid()] = 0;
    }
    base_ = eq_.now();
    const Tick quantum = sched_.params().quantum;
    // StatDump priority: boundary k runs AFTER the scheduler's own
    // expiry handler at the same tick, so churn acts on settled
    // runqueues and the new masks/placements are visible to the very
    // next pick.
    eq_.schedule(base_ + quantum, *this, kBoundaryCookie, 1,
                 EventPriority::StatDump);
}

void
ScenarioDirector::finalizeKill(Task *task)
{
    vm_.releaseTask(*task);
    sched_.removeTask(task);
    live_.erase(std::remove(live_.begin(), live_.end(), task),
                live_.end());
    lastEpoch_.erase(task->pid());
    if (probe_)
        probe_->onTaskExit({eq_.now(), task->pid(), false, -1});
    ++kills;
}

void
ScenarioDirector::onBoundary(std::uint64_t k)
{
    const Tick quantum = sched_.params().quantum;
    bool churned = false;

    // 1. Finish kills whose victim has left its CPU and has no copy
    //    traffic still reading its frames.
    for (std::size_t i = 0; i < pendingKills_.size();) {
        Task *victim = pendingKills_[i];
        const int cpu = sched_.cpuOf(victim);
        const bool running = cpu >= 0
            && sched_.currentOn(cpu) == victim;
        auto jobs = activeJobs_.find(victim->pid());
        const bool copying =
            jobs != activeJobs_.end() && jobs->second > 0;
        if (running || copying) {
            ++i;
            continue;
        }
        finalizeKill(victim);
        churned = true;
        pendingKills_.erase(
            pendingKills_.begin() + static_cast<std::ptrdiff_t>(i));
    }

    // 2. Script events due this quantum.
    while (eventIdx_ < script_.events.size()
           && script_.events[eventIdx_].quantum <= k) {
        const workload::ScenarioEvent &ev = script_.events[eventIdx_];
        ++eventIdx_;
        if (ev.kind == workload::ScenarioEventKind::Spawn) {
            Task *task = hooks_.spawnTask(ev, nextPid_);
            ++nextPid_;
            // Enter at the pack's minimum vruntime (CFS places new
            // tasks at min_vruntime) so a late arrival neither
            // monopolises the CPU nor starves.
            Tick minV = kMaxTick;
            for (const Task *t : live_)
                minV = std::min(minV, t->vruntime);
            if (minV != kMaxTick)
                task->vruntime = minV;
            live_.push_back(task);
            lastEpoch_[task->pid()] = 0;
            sched_.addTask(task, ev.cpu);
            if (probe_)
                probe_->onTaskSpawn({eq_.now(), task->pid(), true,
                                     sched_.cpuOf(task)});
            ++spawns;
            churned = true;
        } else {
            auto it = std::find_if(
                live_.begin(), live_.end(),
                [&](const Task *t) { return t->pid() == ev.pid; });
            if (it == live_.end()) {
                warn("scenario: kill of pid ", ev.pid,
                     " which is not alive at quantum ", k);
                continue;
            }
            Task *victim = *it;
            const int cpu = sched_.cpuOf(victim);
            sched_.sleepTask(victim);
            if (cpu >= 0 && sched_.currentOn(cpu) == victim) {
                // Running: it stops at the next boundary.
                pendingKills_.push_back(victim);
            } else {
                auto jobs = activeJobs_.find(victim->pid());
                if (jobs != activeJobs_.end() && jobs->second > 0)
                    pendingKills_.push_back(victim);
                else {
                    finalizeKill(victim);
                    churned = true;
                }
            }
        }
    }

    // 3. Macro-phase changes: shrink the address space down to the
    //    new effective footprint (a grow demand-pages lazily).
    if (hooks_.phaseState) {
        for (Task *t : live_) {
            const auto [epoch, fpBytes] = hooks_.phaseState(*t);
            auto &last = lastEpoch_[t->pid()];
            if (epoch == last)
                continue;
            last = epoch;
            ++phaseChanges;
            const std::uint64_t pageBytes = mapping_.pageBytes();
            const std::uint64_t bound =
                (fpBytes + pageBytes - 1) / pageBytes;
            pagesTrimmed += static_cast<double>(
                vm_.trimFootprint(*t, bound));
        }
    }

    // 4. Consolidation re-binpack after churn.
    if (churned && script_.reassignOnChurn && hooks_.reassignMasks)
        hooks_.reassignMasks(live_);

    // 5. Migrate pages stranded outside the (possibly new) masks.
    if (script_.migrate) {
        for (Task *t : live_)
            migrateStalePages(t);
        issueCopyReads();
    }

    eq_.schedule(base_ + (k + 1) * quantum, *this, kBoundaryCookie,
                 k + 1, EventPriority::StatDump);
}

void
ScenarioDirector::migrateStalePages(Task *task)
{
    for (const std::uint64_t vpn : vm_.collectStalePages(*task)) {
        // freeOld=false: the source frame stays allocated (and the
        // task transiently counts resident in both banks) until the
        // copy's last line has been read out of it.
        const auto moved = vm_.migratePage(*task, vpn, false);
        if (!moved)
            return;  // permitted banks exhausted; stop trying
        if (probe_)
            probe_->onPageMigrate({eq_.now(), task->pid(), vpn,
                                   moved->first, moved->second,
                                   linesPerPage(),
                                   &task->possibleBanksVector});
        ++pagesMigrated;
        jobs_.push_back({task, task->pid(), moved->first,
                         moved->second, 0, 0});
        readQueue_.push_back(jobs_.size() - 1);
        ++activeJobs_[task->pid()];
    }
}

void
ScenarioDirector::issueCopyReads()
{
    while (outstandingReads_ < kMaxOutstandingReads
           && !readQueue_.empty()) {
        const std::size_t jobIdx = readQueue_.front();
        MigrationJob &job = jobs_[jobIdx];
        const int line = job.linesIssued;

        memctrl::Request req;
        req.paddr = (job.fromPfn << mapping_.pageShift())
            + static_cast<Addr>(line) * 64;
        req.type = memctrl::Request::Type::Read;
        req.pid = job.pid;
        req.completion = this;
        req.cookie0 = jobIdx;
        req.cookie1 = static_cast<std::uint64_t>(line);
        if (!mem_.enqueue(req)) {
            armRetry();
            return;
        }
        ++migrationReads;
        ++outstandingReads_;
        if (++job.linesIssued == linesPerPage())
            readQueue_.pop_front();
    }
}

void
ScenarioDirector::flushPendingWrites()
{
    while (!pendingWrites_.empty()) {
        memctrl::Request req;
        req.paddr = pendingWrites_.front().first;
        req.type = memctrl::Request::Type::Write;
        req.pid = pendingWrites_.front().second;
        if (!mem_.enqueue(req)) {
            armRetry();
            return;
        }
        ++migrationWrites;
        pendingWrites_.pop_front();
    }
}

void
ScenarioDirector::armRetry()
{
    if (retryArmed_)
        return;
    retryArmed_ = true;
    mem_.requestRetryNotification(*this, kRetryCookie, 0);
}

void
ScenarioDirector::fire(Tick now, std::uint64_t jobIdx,
                       std::uint64_t lineIdx)
{
    if (jobIdx == kBoundaryCookie) {
        onBoundary(lineIdx);
        return;
    }
    if (jobIdx == kRetryCookie) {
        retryArmed_ = false;
        flushPendingWrites();
        if (pendingWrites_.empty())
            issueCopyReads();
        return;
    }
    MigrationJob &job = jobs_[jobIdx];

    // Write the line into the destination frame (posted).
    const Addr waddr = (job.toPfn << mapping_.pageShift())
        + static_cast<Addr>(lineIdx) * 64;
    if (pendingWrites_.empty()) {
        memctrl::Request req;
        req.paddr = waddr;
        req.type = memctrl::Request::Type::Write;
        req.pid = job.pid;
        if (mem_.enqueue(req))
            ++migrationWrites;
        else {
            pendingWrites_.emplace_back(waddr, job.pid);
            armRetry();
        }
    } else {
        // Keep writes in line order behind the ones already waiting.
        pendingWrites_.emplace_back(waddr, job.pid);
        armRetry();
    }

    --outstandingReads_;
    if (++job.linesDone == linesPerPage()) {
        // Last line read: the source frame's data is gone; drop the
        // transient double residency and return the frame.
        job.task->removeResidentPage(
            mapping_.bankOfFrame(job.fromPfn));
        buddy_.freePage(job.fromPfn, job.pid);
        auto it = activeJobs_.find(job.pid);
        if (it != activeJobs_.end() && --it->second == 0)
            activeJobs_.erase(it);
    }
    (void)now;
    issueCopyReads();
}

void
ScenarioDirector::registerStats(StatRegistry &reg,
                                const std::string &prefix)
{
    reg.add(prefix + ".spawns", &spawns);
    reg.add(prefix + ".kills", &kills);
    reg.add(prefix + ".phaseChanges", &phaseChanges);
    reg.add(prefix + ".pagesMigrated", &pagesMigrated);
    reg.add(prefix + ".migrationReads", &migrationReads);
    reg.add(prefix + ".migrationWrites", &migrationWrites);
    reg.add(prefix + ".pagesTrimmed", &pagesTrimmed);
}

} // namespace refsched::os
