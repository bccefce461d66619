#include "metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "logging.hpp"

namespace quest::sim {
namespace metrics {

namespace {

/** Inclusive upper bound of power-of-two bucket i. */
std::uint64_t
bucketUpperBound(std::size_t i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t(1) << i) - 1;
}

/** Stable text form for a double (shortest round-trip not needed;
 *  %.17g is reproducible on a fixed platform). */
std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Update an atomic min/max without a lock. */
void
atomicMin(std::atomic<std::uint64_t> &slot, std::uint64_t v)
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur
           && !slot.compare_exchange_weak(cur, v,
                                          std::memory_order_relaxed))
    {}
}

void
atomicMax(std::atomic<std::uint64_t> &slot, std::uint64_t v)
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur
           && !slot.compare_exchange_weak(cur, v,
                                          std::memory_order_relaxed))
    {}
}

} // namespace

void
Histogram::record(std::uint64_t sample, std::uint64_t count)
{
    if (count == 0)
        return;
    const std::size_t bucket = std::size_t(std::bit_width(sample));
    _buckets[bucket].fetch_add(count, std::memory_order_relaxed);
    _count.fetch_add(count, std::memory_order_relaxed);
    _sum.fetch_add(sample * count, std::memory_order_relaxed);
    atomicMin(_min, sample);
    atomicMax(_max, sample);
}

std::uint64_t
Histogram::minSample() const
{
    return count() == 0 ? 0 : _min.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::maxSample() const
{
    return _max.load(std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : double(sum()) / double(n);
}

double
Histogram::percentile(double q) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return emptySentinel(); // defined: never indexes anything
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::uint64_t(
        std::max(1.0, std::ceil(q * double(n))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < numBuckets; ++i) {
        seen += bucketCount(i);
        if (seen >= rank) {
            const std::uint64_t bound = bucketUpperBound(i);
            return double(std::clamp(bound, minSample(),
                                     maxSample()));
        }
    }
    return double(maxSample());
}

void
Histogram::reset()
{
    for (auto &b : _buckets)
        b.store(0, std::memory_order_relaxed);
    _count.store(0, std::memory_order_relaxed);
    _sum.store(0, std::memory_order_relaxed);
    _min.store(std::numeric_limits<std::uint64_t>::max(),
               std::memory_order_relaxed);
    _max.store(0, std::memory_order_relaxed);
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name, const std::string &desc,
                  Stability stability)
{
    std::lock_guard<std::mutex> lock(_mutex);
    Entry &e = _entries[name];
    if (!e.counter) {
        QUEST_ASSERT(!e.gauge && !e.histogram,
                     "metric '%s' already registered with another "
                     "kind", name.c_str());
        e.desc = desc;
        e.stability = stability;
        e.counter = std::make_unique<Counter>();
    }
    return *e.counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &desc,
                Stability stability)
{
    std::lock_guard<std::mutex> lock(_mutex);
    Entry &e = _entries[name];
    if (!e.gauge) {
        QUEST_ASSERT(!e.counter && !e.histogram,
                     "metric '%s' already registered with another "
                     "kind", name.c_str());
        e.desc = desc;
        e.stability = stability;
        e.gauge = std::make_unique<Gauge>();
    }
    return *e.gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &desc,
                    Stability stability)
{
    std::lock_guard<std::mutex> lock(_mutex);
    Entry &e = _entries[name];
    if (!e.histogram) {
        QUEST_ASSERT(!e.counter && !e.gauge,
                     "metric '%s' already registered with another "
                     "kind", name.c_str());
        e.desc = desc;
        e.stability = stability;
        e.histogram = std::make_unique<Histogram>();
    }
    return *e.histogram;
}

void
Registry::collect(
    bool include_wallclock,
    const std::function<void(const std::string &, double, bool)>
        &emit) const
{
    // Gather under the lock into a sorted map, then emit outside
    // any per-metric order ambiguity. `emit(name, value,
    // integral)` — integral values print without a decimal point.
    std::map<std::string, std::pair<double, bool>> rows;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (const auto &[name, e] : _entries) {
            if (e.stability == Stability::Wallclock
                && !include_wallclock)
                continue;
            if (e.counter) {
                rows[name] = {double(e.counter->value()), true};
            } else if (e.gauge) {
                rows[name] = {e.gauge->value(), false};
            } else if (e.histogram) {
                const Histogram &h = *e.histogram;
                rows[name + ".count"] = {double(h.count()), true};
                rows[name + ".sum"] = {double(h.sum()), true};
                rows[name + ".mean"] = {h.mean(), false};
                rows[name + ".min"] = {double(h.minSample()), true};
                rows[name + ".max"] = {double(h.maxSample()), true};
                if (h.count() > 0) {
                    rows[name + ".p50"] = {h.percentile(0.50), true};
                    rows[name + ".p99"] = {h.percentile(0.99), true};
                }
            }
        }
    }
    for (const auto &[name, row] : rows)
        emit(name, row.first, row.second);
}

std::string
Registry::snapshot(bool include_wallclock) const
{
    std::ostringstream os;
    collect(include_wallclock,
            [&os](const std::string &name, double value,
                  bool integral) {
                os << name << " ";
                if (integral)
                    os << std::uint64_t(value);
                else
                    os << formatDouble(value);
                os << "\n";
            });
    return os.str();
}

void
Registry::writeJson(std::ostream &os, bool include_wallclock) const
{
    os << "{";
    bool first = true;
    collect(include_wallclock,
            [&](const std::string &name, double value,
                bool integral) {
                if (!first)
                    os << ",";
                first = false;
                os << "\n    \"" << name << "\": ";
                if (integral)
                    os << std::uint64_t(value);
                else if (std::isfinite(value))
                    os << formatDouble(value);
                else
                    os << "null";
            });
    os << "\n  }";
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &[name, e] : _entries) {
        if (e.counter)
            e.counter->reset();
        if (e.gauge)
            e.gauge->reset();
        if (e.histogram)
            e.histogram->reset();
    }
}

} // namespace metrics

std::string
metricsSnapshot(bool include_wallclock)
{
    return metrics::Registry::global().snapshot(include_wallclock);
}

void
metricsWriteJson(std::ostream &os, bool include_wallclock)
{
    metrics::Registry::global().writeJson(os, include_wallclock);
}

} // namespace quest::sim
