/**
 * @file
 * TimingOracle implementation + the timing/contention passes.
 *
 * The bound derivation and the soundness argument live in
 * timing.hpp and DESIGN.md §17; this file keeps the two abstract
 * machines (the closed-form in-order barrier pipeline and the
 * out-of-order front-sweep recurrence).
 */

#include "timing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/issue_queue.hpp"
#include "passes.hpp"
#include "qecc/protocol.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"
#include "tech/parameters.hpp"

namespace quest::verify {

namespace {

/** Bound reported when the grant model starves the tile outright
 *  (zero slots per window). Far above any deadline, well below
 *  overflow when summed with latencies. */
constexpr std::size_t kStarvedCycles =
    std::numeric_limits<std::size_t>::max() / 4;

/**
 * Cursor-comparison epsilon. Every exact fetch-arrival time is a
 * rational with denominator grant.slots (<= a few hundred), so the
 * true fractional part is either 0 or >= ~1e-3; 1e-6 absorbs the
 * accumulated double rounding without ever crossing a real
 * boundary.
 */
constexpr double kCursorEps = 1e-6;

/** Worst-case cycles to fetch `slots` stream slots from an
 *  arbitrary window phase. */
std::size_t
fetchCycles(std::size_t slots, FetchGrant grant)
{
    if (slots == 0)
        return 0;
    if (grant.slots == 0)
        return kStarvedCycles;
    const std::size_t windows =
        (slots + grant.slots - 1) / grant.slots;
    return windows * grant.cycles;
}

/** Max waveform latency per sub-cycle, 1 for empty sub-cycles
 *  (mirrors TileState::subMaxLat). */
std::vector<std::size_t>
subCycleLatencies(const DependencyOracle &oracle)
{
    std::vector<std::size_t> lat(oracle.depth(), 1);
    for (const MicroOp &uop : oracle.uops())
        lat[uop.subCycle] = std::max(
            lat[uop.subCycle], core::uopLatencyCycles(uop.op));
    return lat;
}

} // namespace

FetchGrant
worstCaseGrant(std::size_t tiles, std::size_t fetchWidth,
               std::size_t bandwidth)
{
    const std::size_t top = std::min(fetchWidth, bandwidth);
    if (tiles <= 1)
        return {top, 1};
    // On its priority cycle the tile drains min(f, B); on each of
    // the other N-1 cycles it still gets whatever the N-1 peers
    // cannot take: min(f, B - (N-1)f) when positive.
    const std::size_t peers = (tiles - 1) * fetchWidth;
    const std::size_t leftover =
        bandwidth > peers
        ? std::min(fetchWidth, bandwidth - peers)
        : 0;
    return {top + (tiles - 1) * leftover, tiles};
}

TimingOracle::TimingOracle(core::SchedulerConfig cfg) : _cfg(cfg)
{
    QUEST_ASSERT(cfg.fetchWidth > 0 && cfg.issueWidth > 0
                     && cfg.queueCapacity > 0,
                 "timing oracle widths must be positive");
}

TimingBound
TimingOracle::bound(const DependencyOracle &oracle,
                    core::SchedulingMode mode, std::size_t rounds,
                    FetchGrant grant) const
{
    QUEST_ASSERT(rounds > 0, "timing bound needs rounds");
    if (grant.slots == 0 && grant.cycles == 1)
        grant = {_cfg.fetchWidth, 1}; // uncontended default
    return mode == core::SchedulingMode::InOrder
        ? boundInOrder(oracle, rounds, grant)
        : boundOutOfOrder(oracle, rounds, grant);
}

/*
 * In-order: the barrier pipeline is closed-form. Sub-cycle k fires
 * at c_k with c_0 = F and c_{k+1} = c_k + max(F, L_k): fetching the
 * next sub-cycle's numQubits slots (F cycles) overlaps the current
 * sub-cycle's slowest waveform (L_k cycles), and the barrier
 * releases when both are done. The bound is the completion of the
 * last sub-cycle, c_last + L_last — exact for the uncontended
 * grant, an any-phase worst case under contention.
 */
TimingBound
TimingOracle::boundInOrder(const DependencyOracle &oracle,
                           std::size_t rounds,
                           FetchGrant grant) const
{
    TimingBound b;
    const std::size_t depth = oracle.depth();
    const std::size_t qubits = oracle.numQubits();
    b.slotsPerRound = depth * qubits;
    b.uopsPerRound = oracle.uops().size();
    if (depth == 0 || qubits == 0)
        return b;

    const std::vector<std::size_t> lat = subCycleLatencies(oracle);
    const std::size_t fetch = fetchCycles(qubits, grant);
    if (fetch >= kStarvedCycles) {
        b.criticalPathCycles = 0;
        b.widthBoundCycles = kStarvedCycles;
        b.totalBoundCycles = kStarvedCycles;
        return b;
    }

    std::size_t latSum = 0;       // dataflow-only barrier chain
    std::size_t stepSum = 0;      // per-round sum of max(F, L_k)
    for (const std::size_t l : lat) {
        latSum += l;
        stepSum += std::max(fetch, l);
    }
    b.criticalPathCycles = rounds * latSum;
    const std::size_t last = lat[depth - 1];
    // c_last = F + (rounds * stepSum - max(F, L_last)); the bound
    // adds the last waveform itself.
    b.totalBoundCycles = fetch + rounds * stepSum
        - std::max(fetch, last) + last;
    b.widthBoundCycles = b.totalBoundCycles; // no issue queue here
    return b;
}

/*
 * Out-of-order: walk the global uop stream in fetch order and bound
 * each uop's issue cycle with
 *
 *   t[i] = max(avail[i], ready[i], M[i-w] + 1)
 *
 * (see timing.hpp for why each term over-approximates its dynamic
 * counterpart). Two tiers run in one sweep: the width tier ignores
 * queue capacity, the total tier blocks the fetch cursor on
 * M[i-C]. The critical path falls out of the same producer edges.
 */
TimingBound
TimingOracle::boundOutOfOrder(const DependencyOracle &oracle,
                              std::size_t rounds,
                              FetchGrant grant) const
{
    TimingBound b;
    const std::size_t depth = oracle.depth();
    const std::size_t qubits = oracle.numQubits();
    b.slotsPerRound = depth * qubits;
    b.uopsPerRound = oracle.uops().size();
    const std::size_t perRound = b.uopsPerRound;
    if (perRound == 0)
        return b;
    if (grant.slots == 0) {
        b.widthBoundCycles = kStarvedCycles;
        b.totalBoundCycles = kStarvedCycles;
        return b;
    }

    // Fetch order within a round: slot = subCycle * qubits + qubit,
    // exactly the scheduler's slotUop stream.
    std::vector<std::uint32_t> order(perRound);
    for (std::uint32_t i = 0; i < perRound; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                  const MicroOp &a = oracle.uops()[x];
                  const MicroOp &b2 = oracle.uops()[y];
                  return a.subCycle * qubits + a.qubit
                      < b2.subCycle * qubits + b2.qubit;
              });

    const double phi = grant.rate();
    const std::size_t phase = grant.cycles - 1;
    const std::size_t w = _cfg.issueWidth;
    const std::size_t cap = _cfg.queueCapacity;
    const std::size_t total = perRound * rounds;

    // Per-tier issue bounds and their running maxima, indexed by
    // fetch position (0..total), plus a seq-indexed view for the
    // producer lookups.
    std::vector<std::size_t> tw(total), tt(total), mw(total),
        mt(total), twSeq(total), ttSeq(total), cpSeq(total);
    double curW = 0.0, curT = 0.0;
    std::ptrdiff_t prevSlot = -1;
    std::size_t cpMax = 0, wMax = 0, tMax = 0;

    for (std::size_t pos = 0; pos < total; ++pos) {
        const std::size_t round = pos / perRound;
        const MicroOp &uop = oracle.uops()[order[pos % perRound]];
        const std::ptrdiff_t slot = std::ptrdiff_t(
            round * b.slotsPerRound + uop.subCycle * qubits
            + uop.qubit);
        const std::size_t gap = std::size_t(slot - prevSlot);
        prevSlot = slot;

        // Producer completion bounds, one per tier (cross-round
        // edges stitch to the previous round's last toucher,
        // exactly as the scheduler's scoreboard does).
        std::size_t ready = 0, readyW = 0, cpReady = 0;
        const auto chain = [&](std::int32_t prev,
                               std::size_t operand) {
            std::ptrdiff_t seq = prev;
            std::size_t r = round;
            if (seq < 0 && round > 0) {
                seq = oracle.lastTouch(operand);
                r = round - 1;
            }
            if (seq < 0)
                return;
            const std::size_t id =
                r * perRound + std::size_t(seq);
            const std::size_t l = core::uopLatencyCycles(
                oracle.uops()[std::size_t(seq)].op);
            ready = std::max(ready, ttSeq[id] + l);
            readyW = std::max(readyW, twSeq[id] + l);
            cpReady = std::max(cpReady, cpSeq[id] + l);
        };
        chain(uop.prevOnQubit, uop.qubit);
        if (uop.hasPartner() && uop.prevOnPartner != uop.prevOnQubit)
            chain(uop.prevOnPartner, std::size_t(uop.partner));

        // Fetch cursors: the width tier streams unboundedly; the
        // total tier first waits for queue space (every uop C back
        // has issued by mt[pos-C], so at most C-1 older entries
        // remain queued).
        curW += double(gap) / phi;
        if (pos >= cap)
            curT = std::max(curT, double(mt[pos - cap]));
        curT += double(gap) / phi;
        const std::size_t availW =
            std::size_t(std::ceil(curW - kCursorEps)) + phase;
        const std::size_t availT =
            std::size_t(std::ceil(curT - kCursorEps)) + phase;

        std::size_t boundW = std::max(availW, readyW);
        std::size_t boundT = std::max(availT, ready);
        if (pos >= w) {
            boundW = std::max(boundW, mw[pos - w] + 1);
            boundT = std::max(boundT, mt[pos - w] + 1);
        }
        tw[pos] = boundW;
        tt[pos] = std::max(boundT, boundW);
        mw[pos] = pos ? std::max(mw[pos - 1], tw[pos]) : tw[pos];
        mt[pos] = pos ? std::max(mt[pos - 1], tt[pos]) : tt[pos];

        const std::size_t id =
            round * perRound + order[pos % perRound];
        const std::size_t l = core::uopLatencyCycles(uop.op);
        cpSeq[id] = cpReady;
        twSeq[id] = tw[pos];
        ttSeq[id] = tt[pos];
        cpMax = std::max(cpMax, cpReady + l);
        wMax = std::max(wMax, tw[pos] + l);
        tMax = std::max(tMax, tt[pos] + l);
    }

    b.criticalPathCycles = cpMax;
    b.widthBoundCycles = wMax;
    b.totalBoundCycles = tMax;
    return b;
}

namespace {

/** Syndrome-round deadline in scheduler (JJ clock) cycles. */
std::size_t
deadlineCyclesFor(const qecc::ProtocolSpec &spec,
                  tech::Technology technology)
{
    const double seconds = sim::ticksToSeconds(
        spec.roundDuration(tech::gateLatencies(technology)));
    return std::size_t(seconds * tech::jjClockHz);
}

/** One timing-pass diagnostic: which bound tier missed, by how much. */
std::string
boundMessage(const char *tier, std::size_t bound, std::size_t budget,
             std::size_t rounds)
{
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "%s is %zu cycles but the %zu-round "
                  "syndrome deadline allows %zu",
                  tier, bound, rounds, budget);
    return msg;
}

} // namespace

/**
 * Timing: the static worst-case issue bound for the configured
 * scheduling mode must meet the syndrome-cycle deadline. The three
 * bound tiers attribute a miss to its cheapest fix: an
 * infeasible dataflow (timing.deadline), too-narrow fetch/issue
 * widths (timing.width_bound) or a too-shallow issue queue
 * (timing.queue_bound).
 */
void
checkTiming(const TileArtifacts &a, Report &report)
{
    if (a.lattice == nullptr || a.spec == nullptr)
        return;
    const ExpandedStream stream = expandRam(a.ram);
    const DependencyOracle oracle(*a.lattice, stream.qubits,
                                  stream.subCycles);

    const std::size_t rounds = std::max<std::size_t>(
        1, a.timing.rounds);
    const std::size_t deadline = a.timing.deadlineCycles > 0
        ? a.timing.deadlineCycles
        : deadlineCyclesFor(*a.spec, a.technology);
    const std::size_t budget = deadline * rounds;

    const TimingOracle to(a.timing.sched);
    const TimingBound b =
        to.bound(oracle, a.timing.scheduling, rounds);

    auto &slack = sim::metrics::Registry::global().gauge(
        "verify.timing_slack",
        "deadline headroom (deadline/bound - 1) of the static "
        "worst-case issue bound at the last verify run");
    slack.set(b.totalBoundCycles > 0
                  ? double(budget) / double(b.totalBoundCycles)
                      - 1.0
                  : 0.0);

    if (b.criticalPathCycles > budget) {
        report.error(
            codes::timingDeadline,
            Site{"uop-stream", -1, -1, -1},
            boundMessage("dataflow critical path",
                         b.criticalPathCycles, budget, rounds));
    } else if (b.widthBoundCycles > budget) {
        report.error(
            codes::timingWidthBound,
            Site{"uop-stream", -1, -1, -1},
            boundMessage("fetch/issue-width bound",
                         b.widthBoundCycles, budget, rounds));
    } else if (b.totalBoundCycles > budget) {
        report.error(
            codes::timingQueueBound,
            Site{"uop-stream", -1, -1, -1},
            boundMessage("issue-queue bound", b.totalBoundCycles,
                         budget, rounds));
    }
}

/**
 * Contention: N co-resident copies of this tile contending for the
 * shared fetch slots must all still meet the deadline. Overcommit
 * (aggregate demand exceeds the shared bandwidth outright) and
 * starvation (aggregate fits, but the worst-case arbitration
 * phasing pushes a tile past its deadline) are distinct defects:
 * the first needs fewer tenants, the second a fairer grant or more
 * headroom. A single-tenant tile only feeds the slack gauge — the
 * timing pass already owns the uncontended deadline.
 */
void
checkContention(const TileArtifacts &a, Report &report)
{
    if (a.lattice == nullptr || a.spec == nullptr)
        return;
    const std::size_t n = std::max<std::size_t>(
        1, a.timing.contentionTiles);
    const std::size_t bandwidth =
        a.timing.sharedFetchBandwidth > 0
        ? a.timing.sharedFetchBandwidth
        : a.timing.sched.fetchWidth;
    const std::size_t deadline = a.timing.deadlineCycles > 0
        ? a.timing.deadlineCycles
        : deadlineCyclesFor(*a.spec, a.technology);

    const ExpandedStream stream = expandRam(a.ram);
    const DependencyOracle oracle(*a.lattice, stream.qubits,
                                  stream.subCycles);
    const std::size_t slots =
        oracle.depth() * oracle.numQubits();
    const double aggregate = deadline > 0
        ? double(n) * double(slots) / double(deadline)
        : 0.0;

    auto &slack = sim::metrics::Registry::global().gauge(
        "verify.contention_slack",
        "shared fetch-slot headroom (bandwidth/aggregate - 1) "
        "at the last verify run");
    slack.set(aggregate > 0.0
                  ? double(bandwidth) / aggregate - 1.0
                  : 0.0);
    if (n <= 1)
        return;

    if (aggregate > double(bandwidth)) {
        char msg[160];
        std::snprintf(
            msg, sizeof(msg),
            "%zu co-resident tiles demand %.3f fetch "
            "slots/cycle but the shared substrate grants %zu",
            n, aggregate, bandwidth);
        report.error(codes::contentionOvercommit,
                     Site{"fetch-arbiter", -1, -1, -1}, msg);
        return; // starvation is subsumed by overcommit
    }

    // Co-resident tiles share fetch under the master's default
    // rotating-priority grant; the bound covers oldest-first too.
    const FetchGrant grant =
        worstCaseGrant(n, a.timing.sched.fetchWidth, bandwidth);
    const TimingOracle to(a.timing.sched);
    const TimingBound b = to.bound(
        oracle, a.timing.scheduling, 1, grant);
    if (b.totalBoundCycles > deadline) {
        char msg[192];
        std::snprintf(
            msg, sizeof(msg),
            "worst-case round-robin arbitration phasing stretches "
            "a round to %zu cycles against a %zu-cycle deadline "
            "(%zu tiles, bandwidth %zu)",
            b.totalBoundCycles, deadline, n, bandwidth);
        report.error(codes::contentionStarvation,
                     Site{"fetch-arbiter", -1, -1, -1}, msg);
    }
}

} // namespace quest::verify
