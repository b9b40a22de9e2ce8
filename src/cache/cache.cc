#include "cache/cache.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace refsched::cache
{

Cache::Cache(const CacheParams &params) : params_(params)
{
    if (!isPowerOfTwo(params_.lineBytes))
        fatal("cache line size must be a power of two");
    if (params_.associativity < 1)
        fatal("cache associativity must be >= 1");
    const std::uint64_t numSets = params_.numSets();
    if (numSets == 0 || !isPowerOfTwo(numSets))
        fatal("cache set count must be a non-zero power of two; size=",
              params_.sizeBytes, " assoc=", params_.associativity,
              " line=", params_.lineBytes);
    ways_ = static_cast<std::size_t>(params_.associativity);
    lineShift_ = log2Exact(params_.lineBytes);
    setBits_ = log2Exact(numSets);
    tagShift_ = lineShift_ + setBits_;
    setMask_ = numSets - 1;
    const std::size_t lines = static_cast<std::size_t>(numSets) * ways_;
    tags_.assign(lines, kInvalidTag);
    dirty_.assign(lines, 0);
    lastUse_.assign(lines, 0);
}

CacheAccessOutcome
Cache::insert(Addr paddr, bool dirty)
{
    const std::size_t line = find(paddr);
    if (line == kNoLine)
        return fill(paddr, dirty);
    // Already present (write-back landing on a cached line).
    dirty_[line] |= dirty;
    lastUse_[line] = ++useCounter_;
    return CacheAccessOutcome{};
}

CacheAccessOutcome
Cache::fill(Addr paddr, bool dirty)
{
    const std::size_t base = setBase(paddr);
    std::size_t victim = base;
    for (std::size_t line = base; line < base + ways_; ++line) {
        if (tags_[line] == kInvalidTag) {
            victim = line;
            break;
        }
        if (lastUse_[line] < lastUse_[victim])
            victim = line;
    }

    CacheAccessOutcome out;
    if (tags_[victim] != kInvalidTag) {
        out.victimValid = true;
        out.victimDirty = dirty_[victim] != 0;
        out.victimAddr = ((tags_[victim] << setBits_)
                          | ((paddr >> lineShift_) & setMask_))
            << lineShift_;
        if (out.victimDirty)
            ++writebacks_;
    }

    tags_[victim] = paddr >> tagShift_;
    dirty_[victim] = dirty;
    lastUse_[victim] = ++useCounter_;
    return out;
}

bool
Cache::invalidate(Addr paddr)
{
    const std::size_t line = find(paddr);
    if (line == kNoLine)
        return false;
    const bool wasDirty = dirty_[line] != 0;
    tags_[line] = kInvalidTag;
    dirty_[line] = 0;
    return wasDirty;
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    useCounter_ = 0;
}

} // namespace refsched::cache
