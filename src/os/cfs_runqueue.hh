/**
 * @file
 * CFS-style per-CPU runqueue: tasks ordered by (vruntime, pid), like
 * the Linux scheduler's cfs_rq (paper section 2.4).  std::map is a
 * red-black tree too.  The leftmost entry is the conventional pick;
 * the refresh-aware scheduler walks in order from the left
 * (Algorithm 3).
 */

#ifndef REFSCHED_OS_CFS_RUNQUEUE_HH
#define REFSCHED_OS_CFS_RUNQUEUE_HH

#include <map>
#include <optional>

#include "os/task.hh"
#include "simcore/types.hh"

namespace refsched::os
{

/** Queue key: vruntime ordered, pid tie-broken for determinism. */
struct VruntimeKey
{
    Tick vruntime = 0;
    Pid pid = 0;

    bool
    operator<(const VruntimeKey &o) const
    {
        if (vruntime != o.vruntime)
            return vruntime < o.vruntime;
        return pid < o.pid;
    }
};

/**
 * A task is found by its key {vruntime, pid}, so its vruntime must
 * not change while it is enqueued (see Task::vruntime).
 */
class CfsRunQueue
{
  public:
    using Map = std::map<VruntimeKey, Task *>;

    /** Add a runnable task (keyed by its current vruntime). */
    void enqueue(Task *task);

    /** Remove @p task (it must be enqueued here). */
    void dequeue(Task *task);

    /** True if @p task is currently enqueued. */
    bool contains(const Task *task) const;

    /** Leftmost (minimum-vruntime) task, or nullptr. */
    Task *first() const;

    /**
     * Smallest vruntime in the queue, or nullopt when empty.  An
     * empty queue deliberately has NO min vruntime: returning a
     * sentinel 0 would be indistinguishable from a real vruntime of
     * 0 and would drag the wake-clamp floor (Scheduler::wakeTask) to
     * zero whenever any sibling queue is momentarily empty.
     */
    std::optional<Tick> minVruntime() const;

    /** In-order (vruntime, pid) walk; Algorithm 3 stops it early. */
    Map::const_iterator begin() const { return tasks_.begin(); }
    Map::const_iterator end() const { return tasks_.end(); }

    std::size_t size() const { return tasks_.size(); }
    bool empty() const { return tasks_.empty(); }

  private:
    static VruntimeKey keyOf(const Task *task)
    {
        return {task->vruntime, task->pid()};
    }

    Map tasks_;
};

} // namespace refsched::os

#endif // REFSCHED_OS_CFS_RUNQUEUE_HH
