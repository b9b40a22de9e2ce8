#include "simcore/rng.hh"

#include <cmath>

namespace refsched
{

namespace
{

/** splitmix64: expands one 64-bit seed into a stream of state words. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** The splitmix64 output finalizer (full-avalanche bijection). */
std::uint64_t
finalize(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
CounterRng::mix(std::uint64_t seed, std::uint64_t stream,
                std::uint64_t counter)
{
    // Weyl-style increments keep (seed, stream, counter) in distinct
    // linear subspaces before each avalanche round, so adjacent
    // counters, adjacent seeds and adjacent stream keys all map to
    // unrelated outputs.
    std::uint64_t z = seed;
    z = finalize(z + 0x9E3779B97F4A7C15ULL * stream);
    z = finalize(z + 0xD1B54A32D192ED03ULL * counter);
    return finalize(z + 0x8CB92BA72F3D8DD7ULL);
}

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
    // Guard against the (astronomically unlikely) all-zero state,
    // which is the one fixed point of xoshiro256**.
    if ((s[0] | s[1] | s[2] | s[3]) == 0)
        s[0] = 1;
}

namespace
{

/** Number of 53-bit draws: m ranges over [0, kSpan). */
constexpr std::uint64_t kSpan = std::uint64_t{1} << 53;
constexpr std::uint64_t kBucketSpan =
    std::uint64_t{1} << GeometricSampler::kBucketShift;

} // namespace

GeometricSampler::GeometricSampler(double p, std::uint64_t maxGap)
    : p_(p), maxGap_(maxGap), logQ_(std::log1p(-p))
{
    const std::size_t buckets = table_.size();
    std::size_t crowded = buckets;  // first bucket with >= 2 thresholds
    if (p_ > 0.0 && p_ < 1.0) {
        thresholds_.reserve(buckets + 1);
        for (std::uint64_t k = 1; k <= maxGap_; ++k) {
            const std::uint64_t t = firstAtLeast(k);
            if (t >= kSpan)
                break;
            if (!thresholds_.empty()
                && (t >> kBucketShift)
                    <= (thresholds_.back() >> kBucketShift)) {
                crowded = static_cast<std::size_t>(t >> kBucketShift);
                break;
            }
            thresholds_.push_back(t);
        }
    }

    // Up to the crowded bucket, bucket b holds f(start of b), which
    // is f(0) plus the thresholds below b, and its own threshold.
    const std::uint64_t base = reference(0);
    constexpr Bucket kFallback{0, UINT64_MAX, 0};
    std::size_t b = 0;
    for (std::size_t i = 0; i <= thresholds_.size(); ++i) {
        const bool last = i == thresholds_.size();
        const std::size_t own = last
            ? crowded
            : static_cast<std::size_t>(thresholds_[i] >> kBucketShift);
        for (; b < own; ++b)
            table_[b] = {UINT64_MAX, UINT64_MAX, base + i};
        if (!last && b < crowded) {
            const std::uint64_t t = thresholds_[i];
            table_[b++] = {t > kGuard ? t - kGuard : 0, t + kGuard + 1,
                           base + i};
        }
    }
    for (; b < buckets; ++b)
        table_[b] = kFallback;

    // A threshold's guard that reaches into a neighbouring bucket
    // sends that whole bucket to the reference formula.
    for (const std::uint64_t t : thresholds_) {
        const std::size_t own = static_cast<std::size_t>(t >> kBucketShift);
        if (t >= kGuard && ((t - kGuard) >> kBucketShift) != own)
            table_[own - 1] = kFallback;
        if (((t + kGuard) >> kBucketShift) != own && own + 1 < buckets)
            table_[own + 1] = kFallback;
    }
}

std::uint64_t
GeometricSampler::reference(std::uint64_t m) const
{
    if (p_ >= 1.0)
        return 0;
    if (!(p_ > 0.0))
        return maxGap_;
    // Inverse-CDF sampling: floor(log(U) / log(1-p)).
    const double u = static_cast<double>(m) * 0x1.0p-53;
    const double g = std::floor(std::log1p(-u) / logQ_);
    if (g >= static_cast<double>(maxGap_))
        return maxGap_;
    return static_cast<std::uint64_t>(g);
}

std::uint64_t
GeometricSampler::firstAtLeast(std::uint64_t k) const
{
    // Start at the closed form (1 - q^k) * 2^53, which lands within a
    // few grid points, then gallop to a bracket lo < t <= hi with
    // f(lo) < k <= f(hi) and bisect it.
    const double est =
        -std::expm1(static_cast<double>(k) * logQ_) * 0x1.0p53;
    std::uint64_t lo = 0;
    std::uint64_t hi = kSpan - 1;
    const std::uint64_t m0 = est <= 0.0 ? 0
        : est >= static_cast<double>(kSpan - 1)
        ? kSpan - 1
        : static_cast<std::uint64_t>(est);
    if (reference(m0) >= k) {
        hi = m0;
        for (std::uint64_t step = 1;; step *= 2) {
            if (hi == 0)
                return 0;
            const std::uint64_t probe = hi > step ? hi - step : 0;
            if (reference(probe) < k) {
                lo = probe;
                break;
            }
            hi = probe;
        }
    } else {
        lo = m0;
        for (std::uint64_t step = 1;; step *= 2) {
            if (lo == kSpan - 1)
                return kSpan;
            const std::uint64_t probe =
                kSpan - 1 - lo > step ? lo + step : kSpan - 1;
            if (reference(probe) >= k) {
                hi = probe;
                break;
            }
            lo = probe;
        }
    }
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (reference(mid) >= k)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace refsched
