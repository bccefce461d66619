/**
 * @file
 * Scoped event tracing with Chrome-trace export.
 *
 * The simulator's performance story is told in *rates* (uops per
 * round, events per decode window, bytes per bus transaction), so
 * the profiling layer must see inside a run without perturbing it.
 * Design constraints, in order:
 *
 *  1. One predictable branch while runtime-disabled (the default in
 *     every build): TraceScope's constructor reads a single relaxed
 *     atomic flag and bails. tests/test_trace_overhead.cpp holds
 *     this path to < 3% on a syndrome-extraction-shaped loop.
 *  2. Lock-free recording when enabled: each thread owns a private
 *     ring buffer (65 536 events); the only lock is taken once per
 *     thread at registration. Buffers survive their writer thread
 *     so a pool can be torn down before export.
 *
 * Export is Chrome-trace JSON ("traceEvents" array of "X" duration
 * events), loadable in chrome://tracing or https://ui.perfetto.dev.
 * For regression testing, eventCounts() aggregates how many times
 * each (category, name) pair fired across all threads — a quantity
 * that is deterministic across thread counts even though timestamps
 * are not — and countDigest() folds it into one FNV-1a hash (the
 * golden-trace contract).
 */

#ifndef QUEST_SIM_TRACE_HPP
#define QUEST_SIM_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace quest::sim {

/** FNV-1a offset basis: the digest of an empty trace. */
inline constexpr std::uint64_t emptyTraceDigest =
    14695981039346656037ull;

/** One completed duration event (timestamps in steady-clock ns). */
struct TraceEvent
{
    const char *category = nullptr;
    const char *name = nullptr;
    std::uint64_t startNs = 0;
    std::uint64_t durationNs = 0;
};

/**
 * A single-writer event ring owned by one thread. Appends never
 * take a lock; once the ring wraps, the oldest events are
 * overwritten but the per-(category, name) fire counts keep
 * counting, so eventCounts()/countDigest() reflect the whole run
 * regardless of capacity.
 */
class TraceBuffer
{
  public:
    TraceBuffer(std::size_t capacity, std::uint32_t tid);

    void push(const char *category, const char *name,
              std::uint64_t start_ns, std::uint64_t duration_ns);

    std::uint32_t tid() const { return _tid; }
    std::uint64_t recorded() const { return _head; }
    std::uint64_t dropped() const;

    /** Events still resident in the ring, oldest first. */
    void visitResident(
        const std::function<void(const TraceEvent &)> &fn) const;

    /** Total fires per (category, name), including overwritten. */
    const std::map<std::pair<const char *, const char *>,
                   std::uint64_t> &
    counts() const
    {
        return _counts;
    }

    /** Zero the ring and the counts (writer must be quiescent). */
    void clear();

  private:
    std::vector<TraceEvent> _ring;
    std::uint64_t _head = 0; ///< total events ever pushed
    std::uint32_t _tid;
    std::map<std::pair<const char *, const char *>, std::uint64_t>
        _counts;
};

/** Process-wide trace sink: owns every thread's buffer. */
class Tracer
{
  public:
    static Tracer &instance();

    /** Runtime switch; off by default. */
    void
    setEnabled(bool on)
    {
        _enabled.store(on, std::memory_order_relaxed);
    }

    /** The hot-path gate: one relaxed atomic load. */
    static bool
    enabled()
    {
        return instance()._enabled.load(std::memory_order_relaxed);
    }

    /** The calling thread's buffer (registered on first use). */
    TraceBuffer &localBuffer();

    /**
     * Write everything recorded so far as Chrome-trace JSON.
     * Call while no traced work is in flight.
     */
    void exportChromeTrace(std::ostream &os) const;

    /**
     * Aggregate fire counts keyed "category:name" across all
     * threads — the thread-count-invariant view of a trace.
     */
    std::map<std::string, std::uint64_t> eventCounts() const;

    /** FNV-1a hash over the sorted eventCounts() entries. */
    std::uint64_t countDigest() const;

    /** Events dropped to ring wrap-around, across all threads. */
    std::uint64_t droppedEvents() const;

    /**
     * Zero every registered buffer. Buffers are kept allocated so
     * live threads' cached pointers stay valid; only call while no
     * traced work is in flight.
     */
    void clear();

    /** Monotonic timestamp in nanoseconds. */
    static std::uint64_t nowNs();

  private:
    Tracer() = default;

    TraceBuffer &registerThread();

    std::atomic<bool> _enabled{false};

    mutable std::mutex _mutex; ///< guards registration and export
    std::vector<std::unique_ptr<TraceBuffer>> _buffers;
};

/** RAII duration event; the macro below is the intended spelling. */
class TraceScope
{
  public:
    TraceScope(const char *category, const char *name)
    {
        if (!Tracer::enabled())
            return;
        _category = category;
        _name = name;
        _startNs = Tracer::nowNs();
    }

    ~TraceScope()
    {
        if (_category == nullptr)
            return;
        Tracer::instance().localBuffer().push(
            _category, _name, _startNs, Tracer::nowNs() - _startNs);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    const char *_category = nullptr;
    const char *_name = nullptr;
    std::uint64_t _startNs = 0;
};

#define QUEST_TRACE_CONCAT2(a, b) a##b
#define QUEST_TRACE_CONCAT(a, b) QUEST_TRACE_CONCAT2(a, b)

/** Time the enclosing scope as a (category, name) duration event. */
#define QUEST_TRACE_SCOPE(category, name)                                   \
    ::quest::sim::TraceScope QUEST_TRACE_CONCAT(                            \
        quest_trace_scope_, __LINE__)(category, name)

} // namespace quest::sim

#endif // QUEST_SIM_TRACE_HPP
