/**
 * @file
 * Set-associative write-back cache with true-LRU replacement.
 *
 * The cache is a tag store only: it tracks presence and dirtiness of
 * physical lines, reporting hits, misses and evicted victims.  Data
 * values are never simulated.  Misses allocate immediately
 * (write-validate for stores); the caller charges latency and issues
 * DRAM traffic.
 */

#ifndef REFSCHED_CACHE_CACHE_HH
#define REFSCHED_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace refsched::cache
{

struct CacheParams
{
    std::uint64_t sizeBytes = 32 * kKiB;
    int associativity = 4;
    std::uint64_t lineBytes = 64;
    Cycles hitLatency = 2;  ///< in CPU cycles

    std::uint64_t
    numSets() const
    {
        return sizeBytes
            / (static_cast<std::uint64_t>(associativity) * lineBytes);
    }
};

/** Outcome of a single cache access. */
struct CacheAccessOutcome
{
    bool hit = false;
    /** A valid line was evicted to make room. */
    bool victimValid = false;
    /** The evicted line was dirty (needs write-back). */
    bool victimDirty = false;
    /** Line-aligned address of the evicted line. */
    Addr victimAddr = 0;
};

class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p paddr; on miss, allocate the line (evicting LRU).
     * @p isWrite marks the line dirty.  A hit is inline; only the
     * miss is a call.
     */
    CacheAccessOutcome
    access(Addr paddr, bool isWrite)
    {
        ++accesses_;
        const std::size_t line = find(paddr);
        if (line != kNoLine) [[likely]] {
            lastUse_[line] = ++useCounter_;
            dirty_[line] |= isWrite;
            return CacheAccessOutcome{true, false, false, 0};
        }
        ++misses_;
        return fill(paddr, isWrite);
    }

    /** Probe without allocating or updating LRU. */
    bool contains(Addr paddr) const { return find(paddr) != kNoLine; }

    /**
     * Insert a line without a demand access (e.g., a write-back
     * arriving from an upper level).  Returns the victim outcome.
     */
    CacheAccessOutcome insert(Addr paddr, bool dirty);

    /** Drop a line if present; returns true if it was dirty. */
    bool invalidate(Addr paddr);

    /** Drop everything (e.g., between experiments). */
    void reset();

    const CacheParams &params() const { return params_; }

    // --- Statistics ---
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    double
    missRate() const
    {
        return accesses_ ? static_cast<double>(misses_)
                / static_cast<double>(accesses_)
                         : 0.0;
    }
    void
    resetStats()
    {
        accesses_ = misses_ = writebacks_ = 0;
    }

  private:
    /** Tag of an empty way: no line address shifts down to it. */
    static constexpr Addr kInvalidTag = ~Addr{0};
    static constexpr std::size_t kNoLine = ~std::size_t{0};

    /** Index of the line holding @p paddr, or kNoLine. */
    std::size_t
    find(Addr paddr) const
    {
        const Addr tag = paddr >> tagShift_;
        const std::size_t base = setBase(paddr);
        for (std::size_t w = 0; w < ways_; ++w) {
            if (tags_[base + w] == tag)
                return base + w;
        }
        return kNoLine;
    }

    /** Index of way 0 of @p paddr's set. */
    std::size_t
    setBase(Addr paddr) const
    {
        return static_cast<std::size_t>((paddr >> lineShift_) & setMask_)
            * ways_;
    }

    /** Allocate @p paddr, known to be absent, over its set's first
     *  empty way or else its LRU way. */
    CacheAccessOutcome fill(Addr paddr, bool dirty);

    CacheParams params_;
    std::size_t ways_;
    unsigned lineShift_;
    unsigned setBits_;
    unsigned tagShift_;
    Addr setMask_;

    /** Per line, set-major (numSets * ways): the tag (kInvalidTag
     *  when empty), the dirty bit and the LRU stamp.  Lookups touch
     *  only tags_. */
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useCounter_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace refsched::cache

#endif // REFSCHED_CACHE_CACHE_HH
