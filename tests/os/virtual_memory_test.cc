/** @file Tests for per-task virtual memory / demand paging. */

#include "os/virtual_memory.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "simcore/rng.hh"

#include "simcore/logging.hh"

namespace refsched::os
{
namespace
{

struct Fixture
{
    Fixture()
        : dev(dram::makeDdr3_1600(dram::DensityGb::d32,
                                  milliseconds(64.0), 256)),
          mapping(dev.org),
          buddy(mapping),
          vm(mapping, buddy)
    {
    }

    /** A task whose address space covers all of physical memory. */
    Task
    task(Pid pid, const char *name = "t") const
    {
        return Task(pid, name, mapping.totalBanks(),
                    mapping.totalFrames());
    }

    dram::DramDeviceConfig dev;
    dram::AddressMapping mapping;
    BuddyAllocator buddy;
    VirtualMemory vm;
};

TEST(VirtualMemoryTest, FirstTouchFaultsThenStable)
{
    Fixture f;
    Task t = f.task(1);

    bool faulted = false;
    const Addr pa1 = f.vm.translate(t, 0x12345, &faulted);
    EXPECT_TRUE(faulted);
    EXPECT_EQ(t.pageFaults, 1u);

    const Addr pa2 = f.vm.translate(t, 0x12345, &faulted);
    EXPECT_FALSE(faulted);
    EXPECT_EQ(pa1, pa2);
    EXPECT_EQ(t.pageFaults, 1u);
}

TEST(VirtualMemoryTest, PageOffsetPreserved)
{
    Fixture f;
    Task t = f.task(1);
    const Addr base = f.vm.translate(t, 0x4000);
    EXPECT_EQ(f.vm.translate(t, 0x4000 + 100), base + 100);
    EXPECT_EQ(base & (f.mapping.pageBytes() - 1), 0u);
}

TEST(VirtualMemoryTest, DistinctPagesGetDistinctFrames)
{
    Fixture f;
    Task t = f.task(1);
    const Addr a = f.vm.translate(t, 0 * f.mapping.pageBytes());
    const Addr b = f.vm.translate(t, 1 * f.mapping.pageBytes());
    EXPECT_NE(a >> f.mapping.pageShift(), b >> f.mapping.pageShift());
}

TEST(VirtualMemoryTest, TasksHaveIndependentAddressSpaces)
{
    Fixture f;
    Task t1 = f.task(1, "a");
    Task t2 = f.task(2, "b");
    const Addr a = f.vm.translate(t1, 0x8000);
    const Addr b = f.vm.translate(t2, 0x8000);
    EXPECT_NE(a, b);
}

TEST(VirtualMemoryTest, ResidentCountersTrackBanks)
{
    Fixture f;
    Task t = f.task(1);
    std::fill(t.possibleBanksVector.begin(),
              t.possibleBanksVector.end(), false);
    t.allowBank(4);
    t.allowBank(7);

    for (std::uint64_t p = 0; p < 20; ++p)
        f.vm.translate(t, p * f.mapping.pageBytes());

    EXPECT_EQ(t.residentPages(), 20u);
    EXPECT_EQ(t.residentPagesPerBank[4] + t.residentPagesPerBank[7],
              20u);
    EXPECT_NEAR(t.residentFractionIn(4), 0.5, 0.11);
    EXPECT_EQ(t.residentPagesPerBank[0], 0u);
}

TEST(VirtualMemoryTest, FallbackWhenPermittedBanksExhausted)
{
    Fixture f;
    Task t = f.task(1);
    std::fill(t.possibleBanksVector.begin(),
              t.possibleBanksVector.end(), false);
    t.allowBank(0);

    const auto framesPerBank = f.mapping.totalFrames()
        / static_cast<std::uint64_t>(f.mapping.totalBanks());
    // Touch more pages than bank 0 can hold.
    for (std::uint64_t p = 0; p < framesPerBank + 10; ++p)
        f.vm.translate(t, p * f.mapping.pageBytes());

    EXPECT_EQ(t.fallbackAllocs, 10u);
    EXPECT_EQ(f.vm.fallbackAllocations(), 10u);
    EXPECT_EQ(t.residentPagesPerBank[0], framesPerBank);
    EXPECT_EQ(t.residentPages(), framesPerBank + 10);
}

TEST(VirtualMemoryTest, ReleaseTaskFreesEverything)
{
    Fixture f;
    Task t = f.task(1);
    for (std::uint64_t p = 0; p < 50; ++p)
        f.vm.translate(t, p * f.mapping.pageBytes());
    const auto freeBefore = f.buddy.freeFrames();

    f.vm.releaseTask(t);
    EXPECT_EQ(f.buddy.freeFrames(), freeBefore + 50);
    EXPECT_EQ(std::count(t.pageTable.begin(), t.pageTable.end(), 0u),
              static_cast<std::ptrdiff_t>(t.pageTable.size()));
    EXPECT_EQ(t.residentPages(), 0u);
}

TEST(VirtualMemoryTest, OutOfMemoryIsFatal)
{
    auto dev = dram::makeDdr3_1600(dram::DensityGb::d32,
                                   milliseconds(64.0), 8192);
    dram::AddressMapping mapping(dev.org);
    BuddyAllocator buddy(mapping);
    VirtualMemory vm(mapping, buddy);
    Task t(1, "t", mapping.totalBanks(), mapping.totalFrames() + 1);

    for (std::uint64_t p = 0; p < mapping.totalFrames(); ++p)
        vm.translate(t, p * mapping.pageBytes());
    EXPECT_THROW(vm.translate(t, mapping.totalFrames()
                                     * mapping.pageBytes()),
                 FatalError);
}

TEST(VirtualMemoryTest, VpnPastAddressSpaceIsFatal)
{
    Fixture f;
    constexpr std::uint64_t kPages = 8;
    Task t(1, "t", f.mapping.totalBanks(), kPages);
    const auto pageBytes = f.mapping.pageBytes();
    f.vm.translate(t, (kPages - 1) * pageBytes + pageBytes - 1);
    const auto freeBefore = f.buddy.freeFrames();

    EXPECT_THROW(f.vm.translate(t, kPages * pageBytes), FatalError);
    EXPECT_THROW(f.vm.translate(t, ~Addr{0}), FatalError);
    // The rejected touches allocated nothing and grew nothing.
    EXPECT_EQ(f.buddy.freeFrames(), freeBefore);
    EXPECT_EQ(t.pageFaults, 1u);
    EXPECT_EQ(t.pageTable.size(), kPages);

    Task empty(2, "e", f.mapping.totalBanks());
    EXPECT_THROW(f.vm.translate(empty, 0), FatalError);
}

/** The dense page table against a std::map of the same mappings. */
TEST(VirtualMemoryPropertyTest, ChurnMatchesReferenceMap)
{
    Fixture f;
    constexpr std::uint64_t kPages = 160;
    constexpr int kTasks = 3;
    const auto pageBytes = f.mapping.pageBytes();
    const unsigned shift = f.mapping.pageShift();
    const int banks = f.mapping.totalBanks();

    std::vector<Task> tasks;
    for (int i = 0; i < kTasks; ++i)
        tasks.emplace_back(i + 1, "t", banks, kPages);
    std::vector<std::map<std::uint64_t, std::uint64_t>> ref(kTasks);

    const auto check = [&](int i) {
        const Task &t = tasks[static_cast<std::size_t>(i)];
        const auto &m = ref[static_cast<std::size_t>(i)];
        ASSERT_EQ(t.pageTable.size(), kPages);
        for (std::uint64_t vpn = 0; vpn < kPages; ++vpn) {
            const auto it = m.find(vpn);
            const std::uint64_t want = it == m.end() ? 0 : it->second + 1;
            ASSERT_EQ(t.pageTable[vpn], want) << "pid " << t.pid()
                                              << " vpn " << vpn;
        }
        EXPECT_EQ(t.residentPages(), m.size());
    };

    Rng rng(20261017);
    for (int step = 0; step < 4000; ++step) {
        const int i = static_cast<int>(rng.below(kTasks));
        Task &t = tasks[static_cast<std::size_t>(i)];
        auto &m = ref[static_cast<std::size_t>(i)];
        const std::uint64_t op = rng.below(100);
        if (op < 60) {
            // Translate: a hit returns the recorded frame, a miss
            // faults a new one in.
            const std::uint64_t vpn = rng.below(kPages);
            const Addr offset = rng.below(pageBytes);
            bool faulted = false;
            const Addr pa =
                f.vm.translate(t, (vpn << shift) | offset, &faulted);
            EXPECT_EQ(pa & (pageBytes - 1), offset);
            const auto it = m.find(vpn);
            if (it != m.end()) {
                EXPECT_FALSE(faulted);
                EXPECT_EQ(pa >> shift, it->second);
            } else {
                EXPECT_TRUE(faulted);
                m.emplace(vpn, pa >> shift);
            }
        } else if (op < 75) {
            // Re-mask, then migrate every stale page the table
            // reports; the reference computes the same stale set.
            std::fill(t.possibleBanksVector.begin(),
                      t.possibleBanksVector.end(), false);
            const int start = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(banks)));
            for (int k = 0; k < banks / 2; ++k)
                t.allowBank((start + k) % banks);
            std::vector<std::uint64_t> stale;
            for (const auto &[vpn, pfn] : m) {
                if (!t.allowsBank(f.mapping.bankOfFrame(pfn)))
                    stale.push_back(vpn);
            }
            ASSERT_EQ(f.vm.collectStalePages(t), stale);
            for (const std::uint64_t vpn : stale) {
                const auto moved = f.vm.migratePage(t, vpn);
                ASSERT_TRUE(moved.has_value());
                EXPECT_EQ(moved->first, m[vpn]);
                EXPECT_TRUE(
                    t.allowsBank(f.mapping.bankOfFrame(moved->second)));
                m[vpn] = moved->second;
            }
            EXPECT_TRUE(f.vm.collectStalePages(t).empty());
        } else if (op < 95) {
            const std::uint64_t bound = rng.below(kPages + 1);
            const auto first = m.lower_bound(bound);
            const auto doomed =
                static_cast<std::uint64_t>(std::distance(first, m.end()));
            m.erase(first, m.end());
            EXPECT_EQ(f.vm.trimFootprint(t, bound), doomed);
        } else {
            f.vm.releaseTask(t);
            m.clear();
            t.allowAllBanks();
        }
        check(i);

        std::uint64_t mapped = 0;
        for (const auto &mm : ref)
            mapped += mm.size();
        ASSERT_EQ(f.buddy.freeFrames() + mapped, f.buddy.totalFrames());
    }
    for (Task &t : tasks)
        f.vm.releaseTask(t);
    EXPECT_EQ(f.buddy.freeFrames(), f.buddy.totalFrames());
    std::string why;
    EXPECT_TRUE(f.buddy.checkInvariants(&why)) << why;
}

} // namespace
} // namespace refsched::os
