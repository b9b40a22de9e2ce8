#include "os/cfs_runqueue.hh"

#include "simcore/logging.hh"

namespace refsched::os
{

void
CfsRunQueue::enqueue(Task *task)
{
    REFSCHED_ASSERT(task != nullptr, "enqueue null task");
    const bool added = tasks_.emplace(keyOf(task), task).second;
    REFSCHED_ASSERT(added, "task already enqueued: pid ", task->pid());
}

void
CfsRunQueue::dequeue(Task *task)
{
    // The found entry must be this task: a vruntime written while
    // enqueued would miss here or hit a different task.
    const auto it = tasks_.find(keyOf(task));
    REFSCHED_ASSERT(it != tasks_.end() && it->second == task,
                    "dequeue of absent task: pid ", task->pid());
    tasks_.erase(it);
}

bool
CfsRunQueue::contains(const Task *task) const
{
    const auto it = tasks_.find(keyOf(task));
    return it != tasks_.end() && it->second == task;
}

Task *
CfsRunQueue::first() const
{
    return tasks_.empty() ? nullptr : tasks_.begin()->second;
}

std::optional<Tick>
CfsRunQueue::minVruntime() const
{
    if (tasks_.empty())
        return std::nullopt;
    return tasks_.begin()->first.vruntime;
}

} // namespace refsched::os
