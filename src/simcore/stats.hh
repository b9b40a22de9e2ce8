/**
 * @file
 * Lightweight statistics framework, modelled on gem5's stats package.
 *
 * Components own stat objects and register them with a StatRegistry
 * under hierarchical dotted names ("mc0.readReqs").  The registry
 * supports a global reset, which the experiment runner uses to drop
 * warm-up activity before measurement, and a text dump.
 */

#ifndef REFSCHED_SIMCORE_STATS_HH
#define REFSCHED_SIMCORE_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace refsched
{

/** Base class for all statistics. */
class StatBase
{
  public:
    virtual ~StatBase() = default;

    /** Discard accumulated data (used at end of warm-up). */
    virtual void reset() = 0;

    /** One-line textual rendering of the value. */
    virtual std::string render() const = 0;

    /** JSON rendering of the value (a number or an object). */
    virtual std::string renderJson() const = 0;
};

/** Monotonic counter / gauge. */
class Scalar : public StatBase
{
  public:
    void operator+=(double v) { val += v; }
    void operator-=(double v) { val -= v; }
    void operator++() { val += 1.0; }
    void operator++(int) { val += 1.0; }
    void set(double v) { val = v; }

    double value() const { return val; }

    void reset() override { val = 0.0; }
    std::string render() const override;
    std::string renderJson() const override;

  private:
    double val = 0.0;
};

/** Running mean with count (e.g., average memory latency). */
class Average : public StatBase
{
  public:
    void
    sample(double v)
    {
        sum += v;
        ++count;
    }

    double mean() const { return count ? sum / count : 0.0; }
    std::uint64_t samples() const { return count; }
    double total() const { return sum; }

    void
    reset() override
    {
        sum = 0.0;
        count = 0;
    }

    std::string render() const override;
    std::string renderJson() const override;

  private:
    double sum = 0.0;
    std::uint64_t count = 0;
};

/**
 * Log2-bucketed histogram for long-tailed quantities (latencies,
 * queue residencies): bucket b counts samples v with
 * floor(v) in [2^(b-1), 2^b), bucket 0 counts v < 1.  Needs no
 * a-priori range, never loses a sample, and covers the full uint64
 * dynamic range in 65 counters.  Running count/sum/min/max are exact;
 * quantiles interpolate within the covering bucket.
 */
class Histogram : public StatBase
{
  public:
    static constexpr std::size_t kNumBuckets = 65;

    void sample(double v);

    std::uint64_t samples() const { return count; }
    double mean() const { return count ? sum / count : 0.0; }
    double minValue() const { return count ? minV : 0.0; }
    double maxValue() const { return count ? maxV : 0.0; }
    const std::vector<std::uint64_t> &bucketCounts() const
    {
        return buckets;
    }

    /** Inclusive lower edge of bucket @p b (0, 1, 2, 4, 8, ...). */
    static double bucketLo(std::size_t b);
    /** Exclusive upper edge of bucket @p b (1, 2, 4, 8, 16, ...). */
    static double bucketHi(std::size_t b);

    /** Approximate p-quantile (0..1), linearly interpolated inside
     *  the covering bucket. */
    double quantile(double q) const;

    void reset() override;
    std::string render() const override;
    std::string renderJson() const override;

  private:
    std::vector<std::uint64_t> buckets =
        std::vector<std::uint64_t>(kNumBuckets, 0);
    std::uint64_t count = 0;
    double sum = 0.0, minV = 0.0, maxV = 0.0;
};

/**
 * Name -> stat registry.  Does not own the stats; components keep
 * their stat members and register pointers, matching gem5's model.
 */
class StatRegistry
{
  public:
    /** Register @p stat under @p name; duplicate names are fatal. */
    void add(const std::string &name, StatBase *stat);

    /** Look up a stat (nullptr if absent). */
    StatBase *find(const std::string &name) const;

    /** Reset every registered stat. */
    void resetAll();

    /** Dump "name value" lines, sorted by name. */
    void dump(std::ostream &os) const;

    /** Dump a JSON object {"name": value, ...}, sorted by name. */
    void dumpJson(std::ostream &os, int indent = 0) const;

    std::size_t size() const { return stats.size(); }

  private:
    std::map<std::string, StatBase *> stats;
};

} // namespace refsched

#endif // REFSCHED_SIMCORE_STATS_HH
