/**
 * @file
 * Hierarchical metrics registry: process-wide counters, gauges and
 * latency histograms with deterministic snapshots.
 *
 * This is the simulator's one metrics system. A decode hot path
 * bumps a named counter from any thread (relaxed atomic add), and a
 * bench or the CLI snapshots everything at exit. A component that
 * also reads a count back (a tile's exec-unit latches, a master's
 * bus bytes) keeps it in a Tally: a plain per-instance integer that
 * feeds the same registry counter, so each count is stored once per
 * instance and reported once, summed over instances, in a snapshot.
 *
 * Determinism contract (the golden-trace tests): every Counter and
 * Histogram holds only integers, so concurrent accumulation is
 * order-independent and a snapshot is byte-identical across thread
 * counts and runs. Metrics that record wall-clock quantities are
 * registered as Stability::Wallclock and excluded from the default
 * snapshot; they appear only when explicitly requested (the bench
 * JSON reports).
 */

#ifndef QUEST_SIM_METRICS_HPP
#define QUEST_SIM_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

namespace quest::sim {
namespace metrics {

/** Is a metric reproducible across runs and thread counts? */
enum class Stability
{
    Stable,    ///< pure function of the simulated work
    Wallclock, ///< host timing; varies run to run
};

/** A monotonically accumulating integer counter. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    Counter &operator+=(std::uint64_t n) { add(n); return *this; }
    Counter &operator++() { add(1); return *this; }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/** A last-writer-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        _value.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> _value{0.0};
};

/**
 * A lock-free histogram over non-negative integer samples with
 * power-of-two buckets: bucket i counts samples whose bit width is
 * i (sample 0 lands in bucket 0). Integer state only, so concurrent
 * recording is deterministic; percentile queries resolve to a
 * bucket's inclusive upper bound.
 */
class Histogram
{
  public:
    /** Buckets: width-0 (the value 0) through width-64. */
    static constexpr std::size_t numBuckets = 65;

    /**
     * The defined result of a percentile query on an empty
     * histogram. Callers that need a number (JSON writers) must
     * test count() first; nothing here ever reads out of bounds.
     */
    static double
    emptySentinel()
    {
        return std::numeric_limits<double>::quiet_NaN();
    }

    void record(std::uint64_t sample, std::uint64_t count = 1);

    std::uint64_t count() const
    {
        return _count.load(std::memory_order_relaxed);
    }

    std::uint64_t sum() const
    {
        return _sum.load(std::memory_order_relaxed);
    }

    /** Smallest/largest recorded sample; 0 when empty. */
    std::uint64_t minSample() const;
    std::uint64_t maxSample() const;

    double mean() const;

    /**
     * The q-quantile (q in [0, 1]) as the inclusive upper bound of
     * the bucket holding the ceil(q * count)-th sample, clamped to
     * the observed min/max. Empty histograms return
     * emptySentinel(); a single-sample histogram returns that
     * sample for every q.
     */
    double percentile(double q) const;

    std::uint64_t bucketCount(std::size_t i) const
    {
        return _buckets[i].load(std::memory_order_relaxed);
    }

    void reset();

  private:
    std::atomic<std::uint64_t> _buckets[numBuckets] = {};
    std::atomic<std::uint64_t> _count{0};
    std::atomic<std::uint64_t> _sum{0};
    std::atomic<std::uint64_t> _min{
        std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> _max{0};
};

/**
 * The process-wide registry. Metric objects are created on first
 * use, never destroyed, and safe to cache by reference: bind the
 * reference at construction (a member initializer, never a
 * function-local static) so steady-state recording is one relaxed
 * atomic op.
 */
class Registry
{
  public:
    static Registry &global();

    Counter &counter(const std::string &name,
                     const std::string &desc,
                     Stability stability = Stability::Stable);
    Gauge &gauge(const std::string &name, const std::string &desc,
                 Stability stability = Stability::Stable);
    Histogram &histogram(const std::string &name,
                         const std::string &desc,
                         Stability stability = Stability::Stable);

    /**
     * Deterministic text snapshot: one "name value" line per
     * metric, sorted by name.
     * Counters print as integers; doubles print with %.17g.
     * Wallclock metrics are excluded unless requested — the
     * golden-trace byte-identity contract covers the default form.
     */
    std::string snapshot(bool include_wallclock = false) const;

    /**
     * The same data as a flat JSON object, histograms expanded to
     * .count/.sum/.mean/.min/.max/.p50/.p99 subkeys (percentile
     * keys are omitted while a histogram is empty).
     */
    void writeJson(std::ostream &os,
                   bool include_wallclock = true) const;

    /** Zero every metric; registrations persist. */
    void reset();

  private:
    Registry() = default;

    struct Entry
    {
        std::string desc;
        Stability stability = Stability::Stable;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    /** Flatten one metric into (suffix, value) pairs. */
    void collect(
        bool include_wallclock,
        const std::function<void(const std::string &, double,
                                 bool)> &emit) const;

    mutable std::mutex _mutex; ///< registration only
    std::map<std::string, Entry> _entries;
};

/**
 * A component's own count that also feeds a registry counter.
 * value() is this instance's tally; the registry row it was bound
 * to at construction sums every instance bound to the same name.
 * Not thread-safe: one instance belongs to one thread at a time.
 */
class Tally
{
  public:
    Tally(const std::string &name, const std::string &desc)
        : _row(&Registry::global().counter(name, desc))
    {}

    void
    add(std::uint64_t n = 1)
    {
        _value += n;
        _row->add(n);
    }

    Tally &operator+=(std::uint64_t n) { add(n); return *this; }
    Tally &operator++() { add(1); return *this; }

    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
    Counter *_row;
};

} // namespace metrics

/** Deterministic snapshot of the global registry (stable metrics). */
std::string metricsSnapshot(bool include_wallclock = false);

/** JSON dump of the global registry (everything by default). */
void metricsWriteJson(std::ostream &os,
                      bool include_wallclock = true);

} // namespace quest::sim

#endif // QUEST_SIM_METRICS_HPP
