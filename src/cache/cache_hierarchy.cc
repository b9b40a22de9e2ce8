#include "cache/cache_hierarchy.hh"

#include "simcore/logging.hh"

namespace refsched::cache
{

CacheHierarchy::CacheHierarchy(int numCores,
                               const HierarchyParams &params)
    : params_(params), l2_(params.l2)
{
    if (numCores < 1)
        fatal("need at least one core");
    if (params_.l1.lineBytes != params_.l2.lineBytes)
        fatal("L1/L2 line sizes must match");
    l1s_.reserve(static_cast<std::size_t>(numCores));
    for (int i = 0; i < numCores; ++i)
        l1s_.emplace_back(params_.l1);
}

HierarchyResult
CacheHierarchy::l1Miss(Pid pid, Addr paddr, bool isWrite,
                       const CacheAccessOutcome &l1Out)
{
    HierarchyResult res;
    res.latency = maxLatency();
    ++l1Misses_;

    // A dirty L1 victim is written down into L2.  If L2 must evict a
    // dirty line to take it, that victim goes to DRAM.
    if (l1Out.victimValid && l1Out.victimDirty) {
        const auto wbOut = l2_.insert(l1Out.victimAddr, true);
        if (wbOut.victimValid && wbOut.victimDirty) {
            REFSCHED_ASSERT(res.writebackCount < 2, "writeback overflow");
            res.writebacks[res.writebackCount++] = wbOut.victimAddr;
            ++dramWritebacks_;
        }
    }

    // The L1 fill itself starts clean: dirtiness lives in L1 until
    // that line is evicted (isWrite already marked the L1 line).
    const auto l2Out = l2_.access(paddr, false);
    if (l2Out.hit)
        return res;

    ++l2Misses_;
    REFSCHED_ASSERT(pid >= 0, "L2 miss without a task");
    const auto slot = static_cast<std::size_t>(pid);
    if (slot >= l2MissesPerPid_.size())
        l2MissesPerPid_.resize(slot + 1, 0);
    ++l2MissesPerPid_[slot];
    if (l2Out.victimValid && l2Out.victimDirty) {
        REFSCHED_ASSERT(res.writebackCount < 2, "writeback overflow");
        res.writebacks[res.writebackCount++] = l2Out.victimAddr;
        ++dramWritebacks_;
    }

    // Loads must fetch the line from DRAM; stores write-validate the
    // freshly allocated line without a fetch.
    res.dramMiss = !isWrite;
    return res;
}

std::uint64_t
CacheHierarchy::l2MissesOf(Pid pid) const
{
    const auto slot = static_cast<std::size_t>(pid);
    return pid >= 0 && slot < l2MissesPerPid_.size()
        ? l2MissesPerPid_[slot]
        : 0;
}

void
CacheHierarchy::reset()
{
    for (auto &l1 : l1s_) {
        l1.reset();
        l1.resetStats();
    }
    l2_.reset();
    l2_.resetStats();
    l2MissesPerPid_.clear();
}

void
CacheHierarchy::resetStats()
{
    for (auto &l1 : l1s_)
        l1.resetStats();
    l2_.resetStats();
    l2MissesPerPid_.clear();
    totalAccesses_.reset();
    l1Misses_.reset();
    l2Misses_.reset();
    dramWritebacks_.reset();
}

void
CacheHierarchy::registerStats(StatRegistry &reg,
                              const std::string &prefix)
{
    reg.add(prefix + ".accesses", &totalAccesses_);
    reg.add(prefix + ".l1Misses", &l1Misses_);
    reg.add(prefix + ".l2Misses", &l2Misses_);
    reg.add(prefix + ".dramWritebacks", &dramWritebacks_);
}

} // namespace refsched::cache
