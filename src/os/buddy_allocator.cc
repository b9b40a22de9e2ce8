#include "os/buddy_allocator.hh"

#include <algorithm>
#include <set>

#include "simcore/logging.hh"

namespace refsched::os
{

BuddyAllocator::BuddyAllocator(const dram::AddressMapping &mapping)
    : mapping_(mapping),
      totalFrames_(mapping.totalFrames()),
      numBanks_(mapping.totalBanks()),
      freeLists_(static_cast<std::size_t>(kMaxOrder) + 1),
      perBankFree_(static_cast<std::size_t>(numBanks_))
{
    // Carve physical memory into maximal aligned blocks.
    std::uint64_t pfn = 0;
    while (pfn < totalFrames_) {
        int order = kMaxOrder;
        while (order > 0
               && ((pfn & ((1ULL << order) - 1)) != 0
                   || pfn + (1ULL << order) > totalFrames_)) {
            --order;
        }
        freeLists_[static_cast<std::size_t>(order)].push(pfn);
        pfn += 1ULL << order;
    }
    freeFrames_ = totalFrames_;
}

std::optional<std::uint64_t>
BuddyAllocator::allocBlock(int order)
{
    REFSCHED_ASSERT(order >= 0 && order <= kMaxOrder, "bad order ",
                    order);
    int cur = order;
    while (cur <= kMaxOrder
           && freeLists_[static_cast<std::size_t>(cur)].empty()) {
        ++cur;
    }
    if (cur > kMaxOrder)
        return std::nullopt;

    const std::uint64_t block =
        freeLists_[static_cast<std::size_t>(cur)].popMin();

    // Split down to the requested order, returning upper halves.
    while (cur > order) {
        --cur;
        const std::uint64_t buddy = block + (1ULL << cur);
        freeLists_[static_cast<std::size_t>(cur)].push(buddy);
    }

    freeFrames_ -= 1ULL << order;
    return block;
}

void
BuddyAllocator::freeBlock(std::uint64_t pfn, int order)
{
    REFSCHED_ASSERT(order >= 0 && order <= kMaxOrder, "bad order");
    REFSCHED_ASSERT((pfn & ((1ULL << order) - 1)) == 0,
                    "misaligned free: pfn=", pfn, " order=", order);
    REFSCHED_ASSERT(pfn + (1ULL << order) <= totalFrames_,
                    "free out of range");

    freeFrames_ += 1ULL << order;

    while (order < kMaxOrder) {
        const std::uint64_t buddy = pfn ^ (1ULL << order);
        auto &list = freeLists_[static_cast<std::size_t>(order)];
        if (buddy + (1ULL << order) > totalFrames_
            || !list.erase(buddy)) {
            break;
        }
        pfn = std::min(pfn, buddy);
        ++order;
    }
    freeLists_[static_cast<std::size_t>(order)].push(pfn);
}

std::optional<std::uint64_t>
BuddyAllocator::popBankCache(int bank)
{
    auto &cache = perBankFree_[static_cast<std::size_t>(bank)];
    if (cache.empty())
        return std::nullopt;
    const std::uint64_t pfn = cache.back();
    cache.pop_back();
    freeFrames_ -= 1;  // cached pages count as free
    return pfn;
}

std::uint64_t
BuddyAllocator::grant(Task *task, std::uint64_t pfn, int bank,
                      bool fallback)
{
    ++pagesAllocated_;
    if (fallback)
        ++fallbacks_;
    if (task) {
        task->lastAllocedBank = bank;
        task->addResidentPage(bank);
        if (fallback)
            ++task->fallbackAllocs;
    }
    if (probe_)
        probe_->onPageAlloc({clock_ ? clock_->now() : 0,
                             task ? task->pid() : -1, pfn, fallback,
                             task ? &task->possibleBanksVector
                                  : nullptr});
    return pfn;
}

std::optional<std::uint64_t>
BuddyAllocator::allocPage(Task &task)
{
    REFSCHED_ASSERT(static_cast<int>(task.possibleBanksVector.size())
                        == numBanks_,
                    "task bank vector size mismatch");

    // Algorithm 2: rotate over permitted banks starting after the
    // task's last successful bank.
    for (int count = 0; count < numBanks_; ++count) {
        const int allocBank =
            (task.lastAllocedBank + 1 + count) % numBanks_;
        if (!task.allowsBank(allocBank))
            continue;

        // Hit from a per-bank free list (line 15).
        if (auto pfn = popBankCache(allocBank)) {
            ++bankCacheHits_;
            return grant(&task, *pfn, allocBank, false);
        }

        // Fetch pages from the OS free list, stashing pages whose
        // bank does not match into their bank caches (lines 19-34).
        while (auto page = allocBlock(0)) {
            ++osListFetches_;
            const int bank = mapping_.bankOfFrame(*page);
            if (bank == allocBank)
                return grant(&task, *page, allocBank, false);
            // Maintaining a cache of per-bank free lists (line 33).
            perBankFree_[static_cast<std::size_t>(bank)].push_back(
                *page);
            freeFrames_ += 1;  // still free, just cached by bank
            ++stashes_;
        }
    }
    return std::nullopt;
}

std::optional<std::uint64_t>
BuddyAllocator::allocPageAnyBank(Task *task)
{
    // Prefer cached pages, rotating banks for BLP.
    const int start = task ? (task->lastAllocedBank + 1) : 0;
    for (int i = 0; i < numBanks_; ++i) {
        const int bank = (start + i) % numBanks_;
        if (auto pfn = popBankCache(bank))
            return grant(task, *pfn, bank, true);
    }
    if (auto page = allocBlock(0))
        return grant(task, *page, mapping_.bankOfFrame(*page), true);
    return std::nullopt;
}

void
BuddyAllocator::freePage(std::uint64_t pfn, Pid owner)
{
    REFSCHED_ASSERT(pfn < totalFrames_, "freePage out of range");
    const int bank = mapping_.bankOfFrame(pfn);
    perBankFree_[static_cast<std::size_t>(bank)].push_back(pfn);
    freeFrames_ += 1;
    if (probe_)
        probe_->onPageFree({clock_ ? clock_->now() : 0, pfn,
                            owner});
}

void
BuddyAllocator::drainBankCaches()
{
    for (auto &cache : perBankFree_) {
        for (const auto pfn : cache) {
            freeFrames_ -= 1;   // freeBlock re-adds it
            freeBlock(pfn, 0);
        }
        cache.clear();
    }
}

bool
BuddyAllocator::checkInvariants(std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    std::set<std::uint64_t> seen;
    std::uint64_t counted = 0;

    for (int order = 0; order <= kMaxOrder; ++order) {
        for (const auto pfn :
             freeLists_[static_cast<std::size_t>(order)].items()) {
            if ((pfn & ((1ULL << order) - 1)) != 0)
                return fail("misaligned free block");
            if (pfn + (1ULL << order) > totalFrames_)
                return fail("free block out of range");
            for (std::uint64_t f = pfn; f < pfn + (1ULL << order);
                 ++f) {
                if (!seen.insert(f).second)
                    return fail("overlapping free blocks");
            }
            counted += 1ULL << order;
            // No free buddy pair should remain uncoalesced.
            if (order < kMaxOrder) {
                const std::uint64_t buddy = pfn ^ (1ULL << order);
                if (buddy + (1ULL << order) <= totalFrames_
                    && freeLists_[static_cast<std::size_t>(order)]
                           .contains(buddy)
                    && buddy > pfn) {
                    return fail("uncoalesced buddy pair");
                }
            }
        }
    }

    for (const auto &cache : perBankFree_) {
        for (const auto pfn : cache) {
            if (pfn >= totalFrames_)
                return fail("cached page out of range");
            if (!seen.insert(pfn).second)
                return fail("cached page overlaps free block");
            counted += 1;
        }
    }

    if (counted != freeFrames_)
        return fail("free frame count mismatch");
    return true;
}

} // namespace refsched::os
