/**
 * @file
 * Cycle-level dynamic scheduler for the MCE microcode pipeline, and
 * the multi-tile arbiter over shared JJ-memory fetch bandwidth.
 *
 * Two pipeline models over the same per-round uop program (a
 * verify::DependencyOracle):
 *
 *  - InOrder: the paper's replay loop. A sub-cycle's slots (Nops
 *    included — the stream visits every qubit) are fetched at the
 *    fetch width, then the master clock fires all of them at once;
 *    the next sub-cycle cannot fire until the slowest waveform of
 *    the current one has played. Fetch of the next sub-cycle
 *    overlaps execution (the switch array double-buffers), but the
 *    barrier convoys every qubit behind the longest latency —
 *    measurement, at 4 cycles.
 *
 *  - OutOfOrder: decoded uops enter a bounded IssueQueue; a
 *    Scoreboard carries the oracle's qubit-touch producer edges;
 *    each cycle the oldest ready uops issue up to the issue width.
 *    Independent stabilizer groups interleave and fetch/decode
 *    overlaps syndrome extraction, so the round's makespan tracks
 *    the dependence chains instead of the barrier sum.
 *
 * Multi-round scheduling stitches rounds together through the
 * oracle's first/last-touch chains (round r+1's first toucher of a
 * qubit depends on round r's last toucher), which is what lets
 * out-of-order issue pipeline across round boundaries.
 *
 * The arbiter runs N tile pipelines against one shared fetch-slot
 * budget per cycle, granting slots round-robin or oldest-first
 * (lowest fetched watermark). Per-tile stall breakdowns separate
 * data hazards, structural (queue-full) stalls, fetch-fill bubbles
 * and bandwidth-denied cycles — the contention signal the master
 * controller exports per tile. Its inputs change only on mask edits
 * and hang/resume events, so the arbiter memoizes its last result,
 * keyed on the tiles' program *content* (never an oracle's address:
 * a rebuilt oracle may reuse the storage of a different program).
 *
 * Everything here is a *timing* model: functional effects retire in
 * program order through the extractor regardless of issue order, so
 * architectural observables are bit-identical between modes (the
 * replay-equivalence contract tests/test_scheduler.cpp enforces).
 */

#ifndef QUEST_CORE_SCHEDULER_HPP
#define QUEST_CORE_SCHEDULER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "issue_queue.hpp"
#include "sim/metrics.hpp"
#include "verify/dependency.hpp"

namespace quest::core {

/** How the MCE microcode pipeline orders uop issue. */
enum class SchedulingMode
{
    InOrder,    ///< sub-cycle barrier replay (the paper's pipeline)
    OutOfOrder, ///< issue-queue + scoreboard dataflow issue
};

/** Display name: "in-order" / "ooo". */
std::string schedulingModeName(SchedulingMode mode);

/** How the master arbitrates tiles over shared fetch bandwidth. */
enum class ArbiterPolicy
{
    RoundRobin,  ///< rotating priority, one step per cycle
    OldestFirst, ///< lowest fetched-slot watermark goes first
};

/** Display name: "round-robin" / "oldest-first". */
std::string arbiterPolicyName(ArbiterPolicy policy);

/**
 * Safety cap on simulated arbitration cycles: no tile program
 * legitimately needs this long. Exposed so the static timing
 * oracle can sanity-check that its worst-case bounds stay inside
 * what the dynamic model would ever simulate.
 */
inline constexpr std::uint64_t kMaxSimCycles = 50'000'000;

/** Width/capacity knobs of the dynamic pipeline. */
struct SchedulerConfig
{
    /** Uop slots fetched+decoded from the microcode store per JJ
     *  cycle (per tile, absent arbitration). */
    std::size_t fetchWidth = 4;
    /** Ready uops issued per cycle. */
    std::size_t issueWidth = 4;
    /** Issue-queue capacity (structural stall when full). */
    std::size_t queueCapacity = 32;
};

/** Stall-cycle breakdown by hazard class. */
struct StallBreakdown
{
    /** Queue non-empty but nothing ready (RAW on qubit chains), or
     *  the in-order barrier waiting out the slowest waveform. */
    std::uint64_t data = 0;
    /** Decode blocked: issue queue full (structural hazard). */
    std::uint64_t queueFull = 0;
    /** Queue empty while the stream is still fetching (fill
     *  bubble). */
    std::uint64_t fetchStarved = 0;
    /** Demanded fetch slots, granted none by the arbiter. */
    std::uint64_t bandwidthWait = 0;

    std::uint64_t
    total() const
    {
        return data + queueFull + fetchStarved + bandwidthWait;
    }
};

/** One tile's simulated issue schedule. */
struct TileSchedule
{
    /** cycles[t] lists the uop ids issued at cycle t, oldest first.
     *  Uop id = round * oracle.uops().size() + MicroOp::seq. */
    std::vector<std::vector<std::uint32_t>> cycles;

    StallBreakdown stalls;
    /** Issue-queue occupancy integrated over cycles (divide by
     *  cycles.size() for the mean). */
    std::uint64_t occupancySum = 0;
    /** Cycle by which every issued waveform has completed. */
    std::size_t makespanCycles = 0;
    /** Total uops issued (== uops x rounds when the tile ran). */
    std::size_t issued = 0;
    /** Stream slots fetched (Nops included). */
    std::size_t slotsFetched = 0;
};

/** The arbiter's view of an N-tile run. */
struct ArbitrationResult
{
    std::vector<TileSchedule> tiles;
    /** Cycle by which every tile's work completed. */
    std::size_t makespanCycles = 0;
    /** Fetch slots granted across all tiles. */
    std::uint64_t slotsGranted = 0;
};

/**
 * The dynamic scheduler: plans single-tile issue schedules and
 * arbitrates multi-tile fleets. Deterministic — pure integer cycle
 * simulation, no randomness — so a plan is a pure function of
 * (program, config, mode, policy). That is what makes the
 * arbitration memo exact. The memo makes an instance unsafe to share
 * across threads.
 */
class DynamicScheduler
{
  public:
    explicit DynamicScheduler(const SchedulerConfig &cfg);

    const SchedulerConfig &config() const { return _cfg; }

    /**
     * Schedule `rounds` back-to-back replays of one tile's program.
     * Bumps the sched.* metrics with the plan's issue/stall
     * statistics.
     */
    TileSchedule schedule(const verify::DependencyOracle &oracle,
                          SchedulingMode mode,
                          std::size_t rounds = 1) const;

    /**
     * Run `tiles.size()` tile pipelines against a shared fetch
     * budget of `shared_bandwidth` slots per cycle. `active[i]` == 0
     * excludes tile i (a wedged engine demands nothing).
     *
     * A call whose inputs equal the previous call's returns the
     * cached result without re-simulating; the sched.* metrics are
     * bumped exactly as a fresh run would. The reference stays valid
     * until the next arbitrate() call on this scheduler.
     */
    const ArbitrationResult &
    arbitrate(const std::vector<const verify::DependencyOracle *> &tiles,
              const std::vector<std::uint8_t> &active,
              SchedulingMode mode, std::size_t shared_bandwidth,
              ArbiterPolicy policy, std::size_t rounds = 1) const;

  private:
    /** The content of one tile's arbitration input. */
    struct TileKey
    {
        bool active = false;
        std::size_t qubits = 0;
        std::size_t depth = 0;
        std::vector<verify::MicroOp> uops; ///< empty when inactive
    };

    /** The one-entry arbitration memo. */
    struct Memo
    {
        bool valid = false;
        SchedulingMode mode = SchedulingMode::InOrder;
        std::size_t bandwidth = 0;
        ArbiterPolicy policy = ArbiterPolicy::RoundRobin;
        std::size_t rounds = 0;
        std::vector<TileKey> tiles;
        ArbitrationResult result;
    };

    SchedulerConfig _cfg;
    mutable Memo _memo;

    // Registry counters bound at construction; never function-local
    // statics (those outlive registry resets — see the
    // registry-lifetime regression test).
    sim::metrics::Counter &_mPlans;
    sim::metrics::Counter &_mIssued;
    sim::metrics::Counter &_mCycles;
    sim::metrics::Counter &_mStallData;
    sim::metrics::Counter &_mStallQueueFull;
    sim::metrics::Counter &_mStallFetch;
    sim::metrics::Counter &_mStallBandwidth;
    sim::metrics::Histogram &_hOccupancy;

    void record(const TileSchedule &tile) const;

    /** The cycle simulation behind schedule() and arbitrate(). */
    ArbitrationResult
    simulate(const std::vector<const verify::DependencyOracle *> &tiles,
             const std::vector<std::uint8_t> &active,
             SchedulingMode mode, std::size_t shared_bandwidth,
             ArbiterPolicy policy, std::size_t rounds) const;
};

} // namespace quest::core

#endif // QUEST_CORE_SCHEDULER_HPP
