/** @file Tests for the set-associative cache tag store. */

#include "cache/cache.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "simcore/logging.hh"
#include "simcore/rng.hh"

namespace refsched::cache
{
namespace
{

CacheParams
tiny()
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    CacheParams p;
    p.sizeBytes = 512;
    p.associativity = 2;
    p.lineBytes = 64;
    p.hitLatency = 2;
    return p;
}

/** Address for (set, tag) in the tiny cache. */
Addr
at(std::uint64_t set, std::uint64_t tag)
{
    return (tag * 4 + set) * 64;
}

TEST(CacheTest, MissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(at(0, 1), false).hit);
    EXPECT_TRUE(c.access(at(0, 1), false).hit);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(CacheTest, DifferentOffsetsSameLineHit)
{
    Cache c(tiny());
    c.access(at(0, 1), false);
    EXPECT_TRUE(c.access(at(0, 1) + 8, false).hit);
    EXPECT_TRUE(c.access(at(0, 1) + 63, true).hit);
}

TEST(CacheTest, LruEviction)
{
    Cache c(tiny());
    c.access(at(2, 1), false);
    c.access(at(2, 2), false);  // set 2 now full
    c.access(at(2, 1), false);  // touch tag 1: tag 2 becomes LRU
    const auto out = c.access(at(2, 3), false);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.victimValid);
    EXPECT_EQ(out.victimAddr, at(2, 2));
    EXPECT_TRUE(c.contains(at(2, 1)));
    EXPECT_FALSE(c.contains(at(2, 2)));
    EXPECT_TRUE(c.contains(at(2, 3)));
}

TEST(CacheTest, DirtyVictimReported)
{
    Cache c(tiny());
    c.access(at(1, 1), true);   // dirty
    c.access(at(1, 2), false);  // clean
    const auto out = c.access(at(1, 3), false);  // evicts tag 1 (LRU)
    EXPECT_TRUE(out.victimValid);
    EXPECT_TRUE(out.victimDirty);
    EXPECT_EQ(out.victimAddr, at(1, 1));
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheTest, CleanVictimNotDirty)
{
    Cache c(tiny());
    c.access(at(1, 1), false);
    c.access(at(1, 2), false);
    const auto out = c.access(at(1, 3), false);
    EXPECT_TRUE(out.victimValid);
    EXPECT_FALSE(out.victimDirty);
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(CacheTest, WriteMarksLineDirtyLater)
{
    Cache c(tiny());
    c.access(at(3, 1), false);  // allocate clean
    c.access(at(3, 1), true);   // dirty it on a hit
    c.access(at(3, 2), false);
    const auto out = c.access(at(3, 3), false);
    EXPECT_TRUE(out.victimDirty);
}

TEST(CacheTest, InsertWithoutDemandAccess)
{
    Cache c(tiny());
    c.insert(at(0, 5), true);
    EXPECT_TRUE(c.contains(at(0, 5)));
    // insert() is not a demand access.
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
}

TEST(CacheTest, InsertOnPresentLineMergesDirty)
{
    Cache c(tiny());
    c.access(at(0, 5), false);
    c.insert(at(0, 5), true);
    c.access(at(0, 6), false);
    const auto out = c.access(at(0, 7), false);  // evicts tag 5
    EXPECT_TRUE(out.victimDirty);
}

TEST(CacheTest, InvalidateDropsLine)
{
    Cache c(tiny());
    c.access(at(0, 1), true);
    EXPECT_TRUE(c.invalidate(at(0, 1)));   // was dirty
    EXPECT_FALSE(c.contains(at(0, 1)));
    EXPECT_FALSE(c.invalidate(at(0, 1)));  // already gone
}

TEST(CacheTest, ResetClearsContents)
{
    Cache c(tiny());
    c.access(at(0, 1), false);
    c.reset();
    EXPECT_FALSE(c.contains(at(0, 1)));
}

TEST(CacheTest, ProbeDoesNotDisturbLru)
{
    Cache c(tiny());
    c.access(at(2, 1), false);
    c.access(at(2, 2), false);
    // Probing tag 1 must not make it MRU.
    EXPECT_TRUE(c.contains(at(2, 1)));
    const auto out = c.access(at(2, 3), false);
    EXPECT_EQ(out.victimAddr, at(2, 1));
}

TEST(CacheTest, FullCoverageOfAllSets)
{
    Cache c(tiny());
    for (std::uint64_t set = 0; set < 4; ++set) {
        for (std::uint64_t tag = 0; tag < 2; ++tag)
            EXPECT_FALSE(c.access(at(set, tag), false).hit);
    }
    for (std::uint64_t set = 0; set < 4; ++set) {
        for (std::uint64_t tag = 0; tag < 2; ++tag)
            EXPECT_TRUE(c.access(at(set, tag), false).hit);
    }
}

TEST(CacheTest, Table1Geometry)
{
    CacheParams l1{32 * kKiB, 4, 64, 2};
    EXPECT_EQ(l1.numSets(), 128u);
    CacheParams l2{2 * kMiB, 16, 64, 20};
    EXPECT_EQ(l2.numSets(), 2048u);
    Cache c1(l1), c2(l2);  // construct without error
}

TEST(CacheTest, BadParamsAreFatal)
{
    CacheParams p = tiny();
    p.lineBytes = 65;
    EXPECT_THROW(Cache{p}, FatalError);

    p = tiny();
    p.associativity = 0;
    EXPECT_THROW(Cache{p}, FatalError);

    p = tiny();
    p.sizeBytes = 384;  // 3 sets: not a power of two
    EXPECT_THROW(Cache{p}, FatalError);
}

/**
 * Naive true-LRU reference: per set, the resident lines in recency
 * order (most recent first), each a line address and a dirty bit.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t numSets, int ways)
        : sets_(numSets), ways_(static_cast<std::size_t>(ways))
    {
    }

    CacheAccessOutcome
    access(Addr paddr, bool isWrite)
    {
        ++accesses;
        auto &set = setOf(paddr);
        const auto it = lineIn(set, paddr);
        if (it != set.end()) {
            Line line = *it;
            line.dirty |= isWrite;
            set.erase(it);
            set.insert(set.begin(), line);
            return CacheAccessOutcome{true, false, false, 0};
        }
        ++misses;
        return insert(paddr, isWrite);
    }

    CacheAccessOutcome
    insert(Addr paddr, bool dirty)
    {
        auto &set = setOf(paddr);
        CacheAccessOutcome out;
        const auto it = lineIn(set, paddr);
        if (it != set.end()) {
            Line line = *it;
            line.dirty |= dirty;
            set.erase(it);
            set.insert(set.begin(), line);
            return out;
        }
        if (set.size() == ways_) {
            out.victimValid = true;
            out.victimDirty = set.back().dirty;
            out.victimAddr = set.back().addr;
            writebacks += out.victimDirty ? 1 : 0;
            set.pop_back();
        }
        set.insert(set.begin(), Line{paddr & ~Addr{63}, dirty});
        return out;
    }

    bool
    invalidate(Addr paddr)
    {
        auto &set = setOf(paddr);
        const auto it = lineIn(set, paddr);
        if (it == set.end())
            return false;
        const bool dirty = it->dirty;
        set.erase(it);
        return dirty;
    }

    bool
    contains(Addr paddr)
    {
        auto &set = setOf(paddr);
        return lineIn(set, paddr) != set.end();
    }

    void
    reset()
    {
        for (auto &set : sets_)
            set.clear();
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr addr;
        bool dirty;
    };

    std::vector<Line> &
    setOf(Addr paddr)
    {
        return sets_[(paddr / 64) % sets_.size()];
    }

    static std::vector<Line>::iterator
    lineIn(std::vector<Line> &set, Addr paddr)
    {
        return std::find_if(set.begin(), set.end(), [paddr](const Line &l) {
            return l.addr == (paddr & ~Addr{63});
        });
    }

    std::vector<std::vector<Line>> sets_;
    std::size_t ways_;
};

/** Random access/insert/invalidate streams, reads and writes, over
 *  three times the capacity: every outcome field and every counter
 *  must match the reference on every step. */
TEST(CacheDifferentialTest, MatchesReferenceLruAt1And4And16Ways)
{
    constexpr std::uint64_t kSets = 8;
    for (const int ways : {1, 4, 16}) {
        SCOPED_TRACE(testing::Message() << ways << " ways");
        const CacheParams params{kSets * static_cast<std::uint64_t>(ways)
                                     * 64,
                                 ways, 64, 2};
        Cache c(params);
        ReferenceLru ref(kSets, ways);
        const std::uint64_t lines =
            3 * kSets * static_cast<std::uint64_t>(ways);
        Rng rng(static_cast<std::uint64_t>(ways) * 7919);
        for (int step = 0; step < 50000; ++step) {
            const Addr paddr = rng.below(lines) * 64 + rng.below(64);
            const bool write = rng.bernoulli(0.3);
            const std::uint64_t op = rng.below(100);
            CacheAccessOutcome got, want;
            if (op < 70) {
                got = c.access(paddr, write);
                want = ref.access(paddr, write);
            } else if (op < 88) {
                got = c.insert(paddr, write);
                want = ref.insert(paddr, write);
            } else if (op < 99) {
                ASSERT_EQ(c.invalidate(paddr), ref.invalidate(paddr))
                    << "step " << step;
            } else {
                c.reset();
                ref.reset();
            }
            ASSERT_EQ(got.hit, want.hit) << "step " << step;
            ASSERT_EQ(got.victimValid, want.victimValid) << "step " << step;
            ASSERT_EQ(got.victimDirty, want.victimDirty) << "step " << step;
            ASSERT_EQ(got.victimAddr, want.victimAddr) << "step " << step;
            ASSERT_EQ(c.contains(paddr), ref.contains(paddr))
                << "step " << step;
            ASSERT_EQ(c.accesses(), ref.accesses);
            ASSERT_EQ(c.misses(), ref.misses);
            ASSERT_EQ(c.writebacks(), ref.writebacks);
        }
        EXPECT_GT(c.writebacks(), 0u);
        EXPECT_GT(c.misses(), 0u);
        EXPECT_LT(c.misses(), c.accesses());
    }
}

} // namespace
} // namespace refsched::cache
