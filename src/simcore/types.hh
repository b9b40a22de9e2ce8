/**
 * @file
 * Fundamental simulation types shared by every refsched module.
 *
 * The simulator measures time in integer picoseconds ("ticks"), which
 * is fine-grained enough to express both the 3.2 GHz CPU clock
 * (312.5 ps -> we round the CPU period to an integral number of ticks
 * by doubling: see SimClock) and the DDR3-1600 memory clock (1250 ps)
 * without accumulating rounding error over a 64 ms refresh window.
 */

#ifndef REFSCHED_SIMCORE_TYPES_HH
#define REFSCHED_SIMCORE_TYPES_HH

#include <cstdint>
#include <limits>

namespace refsched
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A count of clock cycles of some domain (CPU or DRAM). */
using Cycles = std::uint64_t;

/** Physical or virtual byte address in the simulated machine. */
using Addr = std::uint64_t;

/** OS process identifier. */
using Pid = std::int32_t;

/** Sentinel for "no tick scheduled". */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** Unit helpers, all expressed in ticks (picoseconds). */
constexpr Tick kPsPerNs = 1000ULL;
constexpr Tick kPsPerUs = 1000ULL * kPsPerNs;
constexpr Tick kPsPerMs = 1000ULL * kPsPerUs;
constexpr Tick kPsPerSec = 1000ULL * kPsPerMs;

constexpr Tick
nanoseconds(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kPsPerNs));
}

constexpr Tick
microseconds(double us)
{
    return static_cast<Tick>(us * static_cast<double>(kPsPerUs));
}

/** Saturates at 0 and kMaxTick, so a wild input (a negative or huge
 *  retention) reaches SystemConfig::check() as an out-of-range tick
 *  count instead of an undefined conversion. */
constexpr Tick
milliseconds(double ms)
{
    const double ps = ms * static_cast<double>(kPsPerMs);
    if (!(ps > 0.0))
        return 0;
    return ps < 0x1p64 ? static_cast<Tick>(ps) : kMaxTick;
}

/** Size helpers. */
constexpr std::uint64_t kKiB = 1024ULL;
constexpr std::uint64_t kMiB = 1024ULL * kKiB;
constexpr std::uint64_t kGiB = 1024ULL * kMiB;

/** Returns true iff @p v is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power-of-two value. */
constexpr unsigned
log2Exact(std::uint64_t v)
{
    unsigned n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

/** Integer ceiling division. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * A fixed-frequency clock domain: converts between cycles and ticks.
 */
class ClockDomain
{
  public:
    explicit ClockDomain(Tick period_ps) : period(period_ps) {}

    Tick periodTicks() const { return period; }

    Tick cyclesToTicks(Cycles c) const { return c * period; }

    Cycles ticksToCycles(Tick t) const { return t / period; }

    /** The first edge at or after @p t. */
    Tick
    nextEdgeAtOrAfter(Tick t) const
    {
        return divCeil(t, period) * period;
    }

    double frequencyGHz() const
    {
        return 1000.0 / static_cast<double>(period);
    }

  private:
    Tick period;
};

} // namespace refsched

#endif // REFSCHED_SIMCORE_TYPES_HH
