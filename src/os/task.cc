#include "os/task.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace refsched::os
{

Task::Task(Pid pid, std::string name, int numGlobalBanks,
           std::uint64_t addressSpacePages)
    : possibleBanksVector(static_cast<std::size_t>(numGlobalBanks),
                          true),
      pageTable(addressSpacePages, 0),
      residentPagesPerBank(static_cast<std::size_t>(numGlobalBanks), 0),
      residentBanksMask(
          (static_cast<std::size_t>(numGlobalBanks) + 63) / 64, 0),
      pid_(pid),
      name_(std::move(name))
{
    REFSCHED_ASSERT(numGlobalBanks > 0, "task needs at least one bank");
}

void
Task::allowAllBanks()
{
    std::fill(possibleBanksVector.begin(), possibleBanksVector.end(),
              true);
}

int
Task::allowedBankCount() const
{
    return static_cast<int>(std::count(possibleBanksVector.begin(),
                                       possibleBanksVector.end(), true));
}

double
Task::residentFractionIn(int globalBank) const
{
    const std::uint64_t total = residentPages();
    if (total == 0)
        return 0.0;
    return static_cast<double>(
               residentPagesPerBank[static_cast<std::size_t>(globalBank)])
        / static_cast<double>(total);
}

double
Task::ipc(Tick cpuPeriod) const
{
    if (scheduledTicks == 0)
        return 0.0;
    const double cycles = static_cast<double>(scheduledTicks)
        / static_cast<double>(cpuPeriod);
    return static_cast<double>(instrsRetired) / cycles;
}

void
Task::resetAccounting()
{
    instrsRetired = 0;
    memOps = 0;
    scheduledTicks = 0;
    quantaRun = 0;
    pageFaults = 0;
    fallbackAllocs = 0;
    dramReads = 0;
}

} // namespace refsched::os
