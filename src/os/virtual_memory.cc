#include "os/virtual_memory.hh"

#include "simcore/logging.hh"

namespace refsched::os
{

VirtualMemory::VirtualMemory(const dram::AddressMapping &mapping,
                             BuddyAllocator &buddy)
    : mapping_(mapping), buddy_(buddy),
      pageShift_(mapping.pageShift()),
      pageOffsetMask_((Addr{1} << mapping.pageShift()) - 1)
{
}

Addr
VirtualMemory::pageFault(Task &task, Addr vaddr, bool *faulted)
{
    const std::uint64_t vpn = vaddr >> pageShift_;
    if (vpn >= task.pageTable.size())
        fatal("task ", task.name(), " (pid ", task.pid(),
              ") touched vpn ", vpn, " past its address space of ",
              task.pageTable.size(), " pages");

    // Demand paging: Algorithm 2 first, any-bank fallback second.
    // The allocator records the task's bank footprint (and the
    // fallbackAllocs count on a spill) at the allocation site.
    auto pfn = buddy_.allocPage(task);
    if (!pfn) {
        pfn = buddy_.allocPageAnyBank(&task);
        if (pfn)
            ++fallbacks_;
    }
    if (!pfn)
        fatal("out of physical memory: task ", task.name(), " (pid ",
              task.pid(), ") touched vpn ", vpn, " with ",
              buddy_.freeFrames(), " free frames");

    task.pageTable[vpn] = *pfn + 1;
    ++task.pageFaults;
    ++pageFaults_;
    if (faulted)
        *faulted = true;
    return (*pfn << pageShift_) | (vaddr & pageOffsetMask_);
}

void
VirtualMemory::releaseTask(Task &task)
{
    // Frees are probe-visible: the vpn-order walk keeps them in a
    // fixed order.
    for (std::uint64_t &entry : task.pageTable) {
        if (entry != 0) {
            buddy_.freePage(entry - 1, task.pid());
            entry = 0;
        }
    }
    task.clearResidentPages();
}

std::vector<std::uint64_t>
VirtualMemory::collectStalePages(const Task &task) const
{
    std::vector<std::uint64_t> stale;
    for (std::uint64_t vpn = 0; vpn < task.pageTable.size(); ++vpn) {
        const std::uint64_t entry = task.pageTable[vpn];
        if (entry != 0
            && !task.allowsBank(mapping_.bankOfFrame(entry - 1)))
            stale.push_back(vpn);
    }
    return stale;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
VirtualMemory::migratePage(Task &task, std::uint64_t vpn, bool freeOld)
{
    REFSCHED_ASSERT(vpn < task.pageTable.size()
                        && task.pageTable[vpn] != 0,
                    "migratePage: vpn ", vpn, " not mapped for pid ",
                    task.pid());
    std::uint64_t &entry = task.pageTable[vpn];
    const std::uint64_t fromPfn = entry - 1;

    // Algorithm 2 placement into the new mask; allocPage records the
    // destination in the task's residency footprint.
    const auto toPfn = buddy_.allocPage(task);
    if (!toPfn)
        return std::nullopt;  // permitted banks exhausted: stay put

    entry = *toPfn + 1;
    if (freeOld) {
        task.removeResidentPage(mapping_.bankOfFrame(fromPfn));
        buddy_.freePage(fromPfn, task.pid());
    }
    return std::make_pair(fromPfn, *toPfn);
}

std::uint64_t
VirtualMemory::trimFootprint(Task &task, std::uint64_t vpnBound)
{
    std::uint64_t released = 0;
    for (std::uint64_t vpn = vpnBound; vpn < task.pageTable.size();
         ++vpn) {
        std::uint64_t &entry = task.pageTable[vpn];
        if (entry == 0)
            continue;
        const std::uint64_t pfn = entry - 1;
        entry = 0;
        task.removeResidentPage(mapping_.bankOfFrame(pfn));
        buddy_.freePage(pfn, task.pid());
        ++released;
    }
    return released;
}

} // namespace refsched::os
