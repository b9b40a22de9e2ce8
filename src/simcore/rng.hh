/**
 * @file
 * Deterministic pseudo-random number generation for workload traces.
 *
 * We implement xoshiro256** (Blackman & Vigna) rather than using
 * std::mt19937 so that trace streams are bit-identical across
 * standard-library implementations; every experiment in the paper
 * reproduction is seeded and therefore exactly repeatable.
 */

#ifndef REFSCHED_SIMCORE_RNG_HH
#define REFSCHED_SIMCORE_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace refsched
{

/**
 * Named stream-domain keys for CounterRng.
 *
 * Every counter-based generator in the simulator draws from
 * mix(seed, streamKey, counter); two generators sharing a key (and
 * seed) would silently consume the *same* sequence, which breaks the
 * jobs=1-vs-N bit-identity the moment their draw orders diverge.  Keys live here, in one place, so collisions are
 * a code-review diff rather than a debugging session.
 *
 * The stateful Rng consumers predating this scheme key themselves
 * by seed derivation instead and stay disjoint by construction:
 * initial task traces use seed*1000003 + coreIdx and scenario
 * spawns use seed*1000003 + 7919*pid with spawn pids strictly above
 * every initial task index, while the randomScenario sampler runs
 * before the simulation on its own Rng instance.  The serving layer
 * must not piggyback on any of those streams.
 */
namespace rngstream
{
/** Interarrival draws of the open-loop arrival process. */
inline constexpr std::uint64_t kArrival = 0x41525249564C5331ULL;
/** MMPP modulating-state dwell-time draws. */
inline constexpr std::uint64_t kArrivalPhase = 0x41525249564C5332ULL;
/** Serving-request target-task selection. */
inline constexpr std::uint64_t kServingTask = 0x53455256544B5331ULL;
/** Serving-request line-address selection within a footprint. */
inline constexpr std::uint64_t kServingAddr = 0x5345525641445231ULL;
} // namespace rngstream

/**
 * Counter-based (stateless) PRNG: output i is a pure function
 * mix(seed, stream, i) built from splitmix64 finalizer rounds.
 *
 * Unlike the stateful Rng, interleaving draws from two CounterRngs
 * cannot entangle their sequences -- each owns an independent
 * counter -- which is exactly the property the open-loop serving
 * layer needs to stay bit-identical across --jobs regardless of who
 * draws first.
 */
class CounterRng
{
  public:
    CounterRng(std::uint64_t seed, std::uint64_t streamKey)
        : seed_(seed), stream_(streamKey)
    {
    }

    /** Pure mixing function; the whole generator in one place. */
    static std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t counter);

    /** Next raw 64-bit value (advances the counter). */
    std::uint64_t next() { return mix(seed_, stream_, counter_++); }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    std::uint64_t counter() const { return counter_; }
    std::uint64_t streamKey() const { return stream_; }

  private:
    std::uint64_t seed_;
    std::uint64_t stream_;
    std::uint64_t counter_ = 0;
};

/** xoshiro256** PRNG with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
    {
        reseed(seed);
    }

    /** Re-initialise the full state from a single 64-bit seed. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded generation; the tiny
        // modulo bias of the simple 128-bit multiply-shift is
        // irrelevant for workload synthesis, so we keep it simple.
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    inRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p) { return real() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

/**
 * Geometric "gap" sampler: the number of failures before the first
 * success with success probability p, clamped to maxGap.  Used for
 * instruction gaps between memory operations.
 *
 * The distribution is defined by the inverse-CDF formula
 *
 *     f(m) = min(floor(log1p(-u) / log1p(-p)), maxGap),  u = m * 2^-53
 *
 * of one 53-bit draw m = Rng::next() >> 11 (the draw Rng::real()
 * consumes).  reference() evaluates it directly; sample() returns the
 * same integer for every m from a 256-bucket table indexed by the top
 * 8 bits of m, so the common draw costs one load and one compare
 * instead of a log1p.
 *
 * f is non-decreasing in m and steps at thresholds t_k, the smallest
 * m with f(m) >= k.  A bucket holding at most one threshold stores
 * f at its start and that threshold.  Draws fall back to reference()
 * in a bucket holding two or more thresholds, within kGuard grid
 * points of any threshold, and from the first such crowded bucket on
 * (the gaps past the table).  The guard keeps the table exact even
 * though log1p is only faithfully rounded: the computed f can
 * disagree with the exact floor only within a couple of grid points
 * of a threshold (DESIGN.md, "Gap sampler").
 */
class GeometricSampler
{
  public:
    /** Draws within this many grid points of a threshold use the
     *  reference formula. */
    static constexpr std::uint64_t kGuard = 1024;
    static constexpr int kBucketBits = 8;
    /** Shift from a 53-bit draw to its bucket index. */
    static constexpr int kBucketShift = 53 - kBucketBits;

    /** Builds the table (a few reference evaluations per threshold).
     *  p >= 1 always yields 0 and p <= 0 always yields @p maxGap. */
    GeometricSampler(double p, std::uint64_t maxGap);

    /** One gap; consumes exactly one Rng::next(). */
    std::uint64_t sample(Rng &rng) const { return at(rng.next() >> 11); }

    /** The gap for the 53-bit draw @p m, through the table. */
    std::uint64_t
    at(std::uint64_t m) const
    {
        const Bucket &b = table_[m >> kBucketShift];
        if (m < b.below)
            return b.value;
        if (m >= b.above)
            return b.value + 1;
        return reference(m);
    }

    /** f(m) evaluated with log1p: the definition sample() matches. */
    std::uint64_t reference(std::uint64_t m) const;

    /** Tabulated thresholds t_1 < t_2 < ..., ascending. */
    const std::vector<std::uint64_t> &thresholds() const
    {
        return thresholds_;
    }

    double p() const { return p_; }
    std::uint64_t maxGap() const { return maxGap_; }

  private:
    /** Draws below `below` map to value, draws at or above `above`
     *  to value + 1, the rest to reference(). */
    struct Bucket
    {
        std::uint64_t below;
        std::uint64_t above;
        std::uint64_t value;
    };

    /** Smallest m with reference(m) >= k, or 2^53 if there is none. */
    std::uint64_t firstAtLeast(std::uint64_t k) const;

    double p_;
    std::uint64_t maxGap_;
    double logQ_;
    std::vector<std::uint64_t> thresholds_;
    std::array<Bucket, std::size_t{1} << kBucketBits> table_;
};

} // namespace refsched

#endif // REFSCHED_SIMCORE_RNG_HH
