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

#include <cstdint>

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

    /**
     * Geometric "gap" sample: number of failures before the first
     * success with success probability @p p, clamped to @p maxGap.
     * Used for instruction gaps between memory operations.
     */
    std::uint64_t geometric(double p, std::uint64_t maxGap = 100000);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];

    /** geometric() is called with the same p for a whole trace
     *  stream; cache log1p(-p) instead of recomputing per sample. */
    double geomP_ = -1.0;
    double geomLogQ_ = 0.0;
};

} // namespace refsched

#endif // REFSCHED_SIMCORE_RNG_HH
