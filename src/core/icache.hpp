/**
 * @file
 * Software-managed logical instruction cache (Section 5.3).
 *
 * QuEST decouples QECC from logical instruction delivery, which
 * makes non-deterministic latency acceptable for logical
 * instructions -- so they can be cached. Magic-state distillation
 * streams are recursive with deterministic control flow and bodies
 * of 100-200 instructions, so each MCE's instruction buffer doubles
 * as a software-managed cache keyed by block id: the master
 * controller sends a block once and afterwards replays it with a
 * single token instead of re-streaming the body, cutting the global
 * logical bandwidth by roughly the distillation ratio (three orders
 * of magnitude across the paper's workloads).
 */

#ifndef QUEST_CORE_ICACHE_HPP
#define QUEST_CORE_ICACHE_HPP

#include <cstdint>
#include <list>
#include <unordered_map>

#include "isa/trace.hpp"
#include "sim/metrics.hpp"

namespace quest::core {

/** Result of one cache access. */
struct ICacheAccess
{
    bool hit = false;
    std::size_t bytesFetched = 0;  ///< global-bus bytes this access
    std::size_t instructions = 0;  ///< instructions issued locally
};

/** Per-MCE software-managed logical instruction cache. */
class LogicalInstructionCache
{
  public:
    /**
     * @param capacity_instructions Total instructions the buffer can
     *        hold (0 disables caching: every access streams).
     */
    explicit LogicalInstructionCache(
        std::size_t capacity_instructions);

    std::size_t capacity() const { return _capacity; }
    bool enabled() const { return _capacity > 0; }

    /**
     * Execute a block through the cache. On a miss the block body is
     * charged to the global bus and installed (evicting
     * least-recently-used blocks as needed); on a hit only a 2-byte
     * replay token crosses the bus.
     */
    ICacheAccess execute(std::uint32_t block_id,
                         const isa::LogicalTrace &body);

    /** Instructions currently resident. */
    std::size_t residentInstructions() const { return _resident; }

    double hits() const { return double(_hits.value()); }
    double misses() const { return double(_misses.value()); }
    double busBytes() const { return double(_busBytes.value()); }

  private:
    std::size_t _capacity;
    std::size_t _resident = 0;

    /** LRU order: front == most recent. Values: block sizes. */
    std::list<std::pair<std::uint32_t, std::size_t>> _lru;

    /**
     * Determinism note: this unordered map is point-access only
     * (find / contains / erase / insert) -- eviction order and every
     * result-affecting decision come from `_lru`, so the map's
     * implementation-defined iteration order can never leak into
     * simulation results. Iterating it would break that contract;
     * tools/quest_lint (det-unordered-iteration) guards the rule.
     */
    std::unordered_map<std::uint32_t, decltype(_lru)::iterator> _index;

    // Constructor-bound counts (no function-local statics; they
    // outlive registry resets).
    sim::metrics::Tally _hits;
    sim::metrics::Tally _misses;
    sim::metrics::Tally _busBytes;

    void touch(std::uint32_t block_id);
    void evictUntilFits(std::size_t need);
};

/** Bytes of the replay token the master sends on a cache hit. */
inline constexpr std::size_t replayTokenBytes = 2;

} // namespace quest::core

#endif // QUEST_CORE_ICACHE_HPP
