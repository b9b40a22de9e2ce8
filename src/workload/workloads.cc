#include "workload/workloads.hh"

#include <sstream>

#include "simcore/logging.hh"

namespace refsched::workload
{

int
WorkloadSpec::baseTaskCount() const
{
    int n = 0;
    for (const auto &[bench, count] : mix)
        n += count;
    return n;
}

std::vector<std::string>
WorkloadSpec::taskList(int totalTasks) const
{
    const int base = baseTaskCount();
    REFSCHED_ASSERT(base > 0, "empty workload mix");

    std::vector<std::string> tasks;
    tasks.reserve(static_cast<std::size_t>(totalTasks));

    if (totalTasks % base == 0) {
        // Exact replication of the mix.
        const int times = totalTasks / base;
        for (const auto &[bench, count] : mix) {
            for (int i = 0; i < count * times; ++i)
                tasks.push_back(bench);
        }
        return tasks;
    }

    // Proportional down/up-scaling (e.g. 8-task mix onto 4 tasks):
    // round-robin over the mix until the target count is reached,
    // weighting by the original counts.
    while (static_cast<int>(tasks.size()) < totalTasks) {
        for (const auto &[bench, count] : mix) {
            const int want = (count * totalTasks + base - 1) / base;
            int have = 0;
            for (const auto &t : tasks)
                if (t == bench)
                    ++have;
            if (have < want
                && static_cast<int>(tasks.size()) < totalTasks) {
                tasks.push_back(bench);
            }
        }
    }
    return tasks;
}

const std::vector<WorkloadSpec> &
table2Workloads()
{
    static const std::vector<WorkloadSpec> workloads = {
        {"WL-1", {{"mcf", 8}}, "H"},
        {"WL-2", {{"povray", 8}}, "L"},
        {"WL-3", {{"h264ref", 8}}, "L"},
        {"WL-4", {{"povray", 4}, {"h264ref", 4}}, "L"},
        {"WL-5", {{"GemsFDTD", 8}}, "M"},
        {"WL-6", {{"mcf", 4}, {"povray", 4}}, "H + L"},
        {"WL-7", {{"stream", 4}, {"h264ref", 4}}, "M + L"},
        {"WL-8", {{"bwaves", 4}, {"h264ref", 4}}, "H + L"},
        {"WL-9", {{"npb_ua", 4}, {"povray", 4}}, "M + L"},
        {"WL-10", {{"mcf", 4}, {"bwaves", 2}, {"povray", 2}}, "H + L"},
    };
    return workloads;
}

const WorkloadSpec &
workloadByName(const std::string &name)
{
    for (const auto &wl : table2Workloads()) {
        if (wl.name == name)
            return wl;
    }
    fatal("unknown workload: ", name);
}

std::vector<std::string>
randomTaskList(Rng &rng, int totalTasks)
{
    REFSCHED_ASSERT(totalTasks > 0, "empty task list requested");
    const auto names = builtinProfileNames();
    std::vector<std::string> tasks;
    tasks.reserve(static_cast<std::size_t>(totalTasks));
    for (int i = 0; i < totalTasks; ++i)
        tasks.push_back(names[rng.below(names.size())]);
    return tasks;
}

std::vector<std::string>
splitBenchmarkList(const std::string &csv)
{
    std::vector<std::string> names;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            names.push_back(item);
    return names;
}

} // namespace refsched::workload
