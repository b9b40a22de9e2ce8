#include "workload/trace_generator.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>

#include "simcore/logging.hh"

namespace refsched::workload
{

namespace
{

/** Clamp on the instruction gap between memory operations. */
constexpr std::uint64_t kMaxGap = 4096;

/**
 * The gap sampler for @p memOpFraction.  A sampler is immutable and
 * costs a few microseconds to build, against well under one for the
 * rest of a generator, so each fraction's is built once, on first
 * use, and shared by every generator in the process (the builtin
 * profiles use four fractions).  Map nodes never move, so the
 * returned reference stays valid.
 */
const GeometricSampler &
gapSampler(double memOpFraction)
{
    static std::mutex mutex;
    static std::map<double, GeometricSampler> samplers;
    const std::lock_guard<std::mutex> lock(mutex);
    return samplers.try_emplace(memOpFraction, memOpFraction, kMaxGap)
        .first->second;
}

/** Effective footprint of a macro-phase at @p scale of @p base. */
std::uint64_t
phaseFootprint(std::uint64_t base, double scale, std::uint64_t hotset)
{
    return std::max<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(base) * scale),
        hotset);
}

} // namespace

std::uint64_t
SyntheticTraceGenerator::peakFootprintBytes(
    const BenchmarkProfile &profile, std::uint64_t footprintBytes)
{
    const std::uint64_t base =
        std::max(footprintBytes, profile.hotsetBytes);
    std::uint64_t peak = base;
    for (const PhaseSpec &spec : profile.phases.phases) {
        peak = std::max(peak, phaseFootprint(base, spec.footprintScale,
                                             profile.hotsetBytes));
    }
    return peak;
}

SyntheticTraceGenerator::SyntheticTraceGenerator(
    const BenchmarkProfile &profile, std::uint64_t seed,
    std::uint64_t footprintBytes)
    : base_(profile),
      baseFootprint_(std::max(footprintBytes, profile.hotsetBytes)),
      profile_(profile),
      footprint_(baseFootprint_),
      rng_(seed),
      accessShift_(std::countr_zero(profile.accessBytes))
{
    profile_.check();
    base_.phases.check();
    gaps_ = &gapSampler(profile_.memOpFraction);
    for (const PhaseSpec &spec : base_.phases.phases) {
        phaseGaps_.push_back(
            &gapSampler(profileByName(spec.profile).memOpFraction));
    }

    // Spread the stream cursors across the footprint, like the
    // separate operand arrays of a streaming kernel.  Each cursor is
    // additionally staggered by one page: quarter-footprint offsets
    // are typically congruent modulo the bank-interleave period, and
    // without the stagger all streams would walk the same bank with
    // different rows, destroying row-buffer locality artificially.
    for (int s = 0; s < kNumStreams; ++s) {
        streamCursor_[s] = ((footprint_ / kNumStreams + 4 * kKiB)
                            * static_cast<std::uint64_t>(s))
            % footprint_;
    }
    if (profile_.phased())
        phaseInstrsLeft_ = profile_.memPhaseInstrs;
    if (!base_.phases.empty())
        applyPhase(0);
}

void
SyntheticTraceGenerator::applyPhase(std::size_t idx)
{
    const PhaseSpec &spec = base_.phases.phases[idx];
    phaseIdx_ = idx;
    macroInstrsLeft_ = spec.instrs;
    gaps_ = phaseGaps_[idx];

    // The phase contributes its pattern mixture and intensity; the
    // task keeps its identity (hot set, access granularity).
    BenchmarkProfile eff = profileByName(spec.profile);
    eff.name = base_.name + ":" + spec.profile;
    eff.hotsetBytes = base_.hotsetBytes;
    eff.accessBytes = base_.accessBytes;
    eff.phases = {};

    footprint_ = phaseFootprint(baseFootprint_, spec.footprintScale,
                                eff.hotsetBytes);
    eff.footprintBytes = footprint_;
    eff.check();
    profile_ = eff;

    // A shrink can leave cursors past the new footprint.
    for (auto &cur : streamCursor_)
        cur %= footprint_;

    inMemPhase_ = true;
    phaseInstrsLeft_ = profile_.phased() ? profile_.memPhaseInstrs : 0;
}

cpu::TraceEntry
SyntheticTraceGenerator::next()
{
    if (!base_.phases.empty() && macroInstrsLeft_ == 0) {
        ++phaseEpoch_;
        applyPhase((phaseIdx_ + 1) % base_.phases.phases.size());
    }

    cpu::TraceEntry e;
    // Gap between memory ops: geometric with mean (1-f)/f.
    e.gap = static_cast<std::uint32_t>(gaps_->sample(rng_));
    e.isWrite = rng_.bernoulli(profile_.writeFraction);

    if (!base_.phases.empty()) {
        macroInstrsLeft_ -=
            std::min<std::uint64_t>(macroInstrsLeft_, e.gap + 1ULL);
    }

    if (profile_.phased()) {
        if (phaseInstrsLeft_ == 0) {
            inMemPhase_ = !inMemPhase_;
            phaseInstrsLeft_ = inMemPhase_
                ? profile_.memPhaseInstrs
                : profile_.computePhaseInstrs;
        }
        const std::uint64_t consumed = e.gap + 1ULL;
        phaseInstrsLeft_ -= std::min(phaseInstrsLeft_, consumed);
        if (!inMemPhase_) {
            // Compute phase: everything hits the hot set.
            e.vaddr = rng_.below(profile_.hotsetBytes >> accessShift_)
                << accessShift_;
            return e;
        }
    }

    const double which = rng_.real();
    if (which < profile_.seqFraction) {
        auto &cur = streamCursor_[nextStream_];
        nextStream_ = (nextStream_ + 1) % kNumStreams;
        cur += profile_.accessBytes;
        if (cur >= footprint_)
            cur = 0;
        e.vaddr = cur;
        e.sequential = true;
    } else if (which < profile_.seqFraction + profile_.randomFraction) {
        e.vaddr = rng_.below(footprint_ >> accessShift_) << accessShift_;
        e.dependent = rng_.bernoulli(profile_.dependentFraction);
    } else {
        e.vaddr = rng_.below(profile_.hotsetBytes >> accessShift_)
            << accessShift_;
    }
    return e;
}

} // namespace refsched::workload
