/**
 * @file
 * Static timing & contention oracle: WCET-style bounds on the
 * dynamic scheduler's cycle model, computed without simulation.
 *
 * `TimingOracle` abstractly interprets `core::DynamicScheduler`
 * over a `DependencyOracle` dependency graph and returns three
 * nested worst-case issue-cycle bounds for a round program:
 *
 *   criticalPathCycles  dataflow only — the longest producer chain
 *                       through Meas/Cnot waveform latencies, with
 *                       infinite fetch and issue resources. A
 *                       deadline miss here is inherent to the
 *                       program, not the pipeline.
 *   widthBoundCycles    adds the finite fetch/issue widths (and the
 *                       in-order sub-cycle barrier) but an
 *                       unbounded issue queue.
 *   totalBoundCycles    the full structural model: widths plus the
 *                       bounded issue-queue capacity.
 *
 * The in-order bound is exact (the barrier pipeline is closed-form:
 * fire times obey c_{k+1} = c_k + max(F, L_k) with F the sub-cycle
 * fetch time and L_k the slowest waveform of sub-cycle k). The
 * out-of-order bound is a sound over-approximation: uops are walked
 * in fetch order with the recurrence
 *
 *   t[i] = max(avail[i], ready[i], M[i-w] + 1)
 *
 * where `ready` chains producer completion bounds, `avail` is a
 * monotone continuous fetch cursor (slots arrive at the granted
 * fetch rate; capacity blocking releases at M[i-C], the running
 * maximum of all bounds C uops back, because by then every older
 * uop has provably issued and the queue holds at most C-1 entries),
 * and the M[i-w]+1 term covers issue-width interference (when every
 * uop at least w back has issued, at most w-1 older uops can
 * compete for the w issue slots, so the front-to-back scan reaches
 * uop i). Soundness is additionally enforced empirically: the fuzz
 * differential in tests/test_timing.cpp asserts bound >= observed
 * cycles for hundreds of random programs per design and mode, and
 * the CI `verify-timing` job gates bound <= 1.5x observed on every
 * shipped protocol x design configuration.
 *
 * Multi-tile contention is modeled per arbitration window: under a
 * rotating-priority grant (and, empirically, oldest-first on
 * homogeneous tiles), any N consecutive cycles grant a contending
 * tile at least min(f,B) slots on its priority cycle plus
 * min(f, B-(N-1)f) on each other cycle. The contention pass checks
 * the bound under that grant against the round deadline for N
 * co-resident copies of a tile.
 */

#ifndef QUEST_VERIFY_TIMING_HPP
#define QUEST_VERIFY_TIMING_HPP

#include <cstddef>

#include "core/scheduler.hpp"
#include "dependency.hpp"

namespace quest::verify {

/** The nested worst-case bounds for one tile program. */
struct TimingBound
{
    /** Dataflow-only longest path (infinite structural resources). */
    std::size_t criticalPathCycles = 0;
    /** Adds finite fetch/issue widths, unbounded queue. */
    std::size_t widthBoundCycles = 0;
    /** Full structural model (widths + bounded issue queue). */
    std::size_t totalBoundCycles = 0;

    /** Fetch-stream slots per round (depth x qubits, Nops included). */
    std::size_t slotsPerRound = 0;
    /** Real (non-Nop) uops per round. */
    std::size_t uopsPerRound = 0;
};

/**
 * Shared-fetch grant model: within any window of `cycles`
 * consecutive arbitration cycles the tile is granted at least
 * `slots` fetch slots. The uncontended model is {fetchWidth, 1}.
 */
struct FetchGrant
{
    std::size_t slots = 0;
    std::size_t cycles = 1;

    /** Mean granted slots per cycle. */
    double rate() const
    {
        return cycles == 0 ? 0.0
                           : double(slots) / double(cycles);
    }
};

/**
 * Worst-case per-window fetch grant for one of `tiles` contending
 * pipelines (per-tile width `fetchWidth`) sharing `bandwidth`
 * slots per cycle. slots == 0 means the tile can be starved
 * outright (bandwidth overcommitted). The window is derived for the
 * rotating-priority grant; oldest-first serves the lowest fetch
 * watermark first, which on homogeneous tile sets is never worse
 * (the contended fuzz in tests/test_timing.cpp pins this
 * empirically), so the bound holds under both arbiter policies.
 */
FetchGrant worstCaseGrant(std::size_t tiles,
                          std::size_t fetchWidth,
                          std::size_t bandwidth);

/** Static WCET analysis of the DynamicScheduler cycle model. */
class TimingOracle
{
  public:
    explicit TimingOracle(core::SchedulerConfig cfg = {});

    const core::SchedulerConfig &config() const { return _cfg; }

    /**
     * Bound the issue cycles of `rounds` repetitions of the round
     * program under `mode`. `grant` is the fetch model; the default
     * {0, 1} resolves to the uncontended {fetchWidth, 1}.
     *
     * Guarantee (the soundness contract the fuzz differential
     * pins): totalBoundCycles >= the dynamic scheduler's observed
     * `cycles.size()` and `makespanCycles` for the same program,
     * mode, rounds and grant.
     */
    TimingBound bound(const DependencyOracle &oracle,
                      core::SchedulingMode mode,
                      std::size_t rounds = 1,
                      FetchGrant grant = {0, 1}) const;

  private:
    TimingBound boundInOrder(const DependencyOracle &oracle,
                             std::size_t rounds,
                             FetchGrant grant) const;
    TimingBound boundOutOfOrder(const DependencyOracle &oracle,
                                std::size_t rounds,
                                FetchGrant grant) const;

    core::SchedulerConfig _cfg;
};

} // namespace quest::verify

#endif // QUEST_VERIFY_TIMING_HPP
