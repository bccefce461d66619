#include "scheduler.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace quest::core {

using verify::DependencyOracle;
using verify::MicroOp;

std::string
schedulingModeName(SchedulingMode mode)
{
    return mode == SchedulingMode::InOrder ? "in-order" : "ooo";
}

std::string
arbiterPolicyName(ArbiterPolicy policy)
{
    return policy == ArbiterPolicy::RoundRobin ? "round-robin"
                                               : "oldest-first";
}

namespace {

/** One tile's pipeline state inside the arbitration loop. */
struct TileState
{
    const DependencyOracle *oracle = nullptr;
    bool active = false;
    SchedulingMode mode = SchedulingMode::InOrder;
    std::size_t rounds = 1;

    std::size_t numUops = 0;     ///< per round
    std::size_t slotsPerRound = 0;
    std::size_t totalSlots = 0;
    std::size_t totalUops = 0;

    /** slot (s * qubits + q) -> per-round uop seq, or -1 for Nop. */
    std::vector<std::int32_t> slotUop;
    /** Per-sub-cycle uop seqs and max waveform latency (in-order). */
    std::vector<std::vector<std::uint32_t>> subUops;
    std::vector<std::size_t> subMaxLat;

    Scoreboard scoreboard{1};
    IssueQueue queue{1};

    std::size_t fetchSlot = 0;      ///< next stream slot to fetch
    std::size_t subIdx = 0;         ///< in-order: sub-cycle being fetched
    std::size_t subSlotsLeft = 0;   ///< in-order: slots left in subIdx
    std::uint64_t execDone = 0;     ///< in-order: barrier release cycle
    std::uint64_t maxCompletion = 0;
    std::size_t issuedCount = 0;

    TileSchedule out;

    bool
    finished() const
    {
        if (!active)
            return true;
        return issuedCount == totalUops && fetchSlot == totalSlots;
    }

    isa::PhysOpcode
    opOf(std::uint32_t id) const
    {
        return oracle->uops()[id % numUops].op;
    }

    void
    recordIssue(std::uint64_t cycle, std::uint32_t id)
    {
        if (out.cycles.size() <= cycle)
            out.cycles.resize(cycle + 1);
        out.cycles[cycle].push_back(id);
        ++issuedCount;
        ++out.issued;
    }
};

/** Map a per-round producer edge into the global uop id space,
 *  falling back to the previous round's last toucher of the qubit
 *  when the uop is the qubit's first toucher of its round. */
void
addCrossRoundEdge(TileState &t, std::uint32_t id, std::int32_t prev,
                  std::size_t qubit, std::size_t round)
{
    const std::size_t base = round * t.numUops;
    if (prev >= 0) {
        t.scoreboard.addProducer(id,
                                 std::uint32_t(base + std::size_t(prev)));
    } else if (round > 0) {
        const std::ptrdiff_t last = t.oracle->lastTouch(qubit);
        QUEST_ASSERT(last >= 0, "qubit %zu has a uop but no last "
                                "toucher", qubit);
        t.scoreboard.addProducer(
            id, std::uint32_t((round - 1) * t.numUops
                              + std::size_t(last)));
    }
}

void
initTile(TileState &t, const SchedulerConfig &cfg)
{
    const DependencyOracle &oracle = *t.oracle;
    t.numUops = oracle.uops().size();
    t.slotsPerRound = oracle.depth() * oracle.numQubits();
    t.totalSlots = t.slotsPerRound * t.rounds;
    t.totalUops = t.numUops * t.rounds;

    t.slotUop.assign(t.slotsPerRound, -1);
    t.subUops.assign(oracle.depth(), {});
    t.subMaxLat.assign(oracle.depth(), 1);
    for (const MicroOp &uop : oracle.uops()) {
        t.slotUop[uop.subCycle * oracle.numQubits() + uop.qubit] =
            std::int32_t(uop.seq);
        t.subUops[uop.subCycle].push_back(uop.seq);
        t.subMaxLat[uop.subCycle] =
            std::max(t.subMaxLat[uop.subCycle],
                     uopLatencyCycles(uop.op));
    }

    t.scoreboard = Scoreboard(t.totalUops);
    t.queue = IssueQueue(std::max<std::size_t>(1,
                                               cfg.queueCapacity));
    if (t.mode == SchedulingMode::OutOfOrder) {
        for (std::size_t r = 0; r < t.rounds; ++r) {
            for (const MicroOp &uop : oracle.uops()) {
                const auto id =
                    std::uint32_t(r * t.numUops + uop.seq);
                addCrossRoundEdge(t, id, uop.prevOnQubit, uop.qubit,
                                  r);
                if (uop.hasPartner()
                    && uop.prevOnPartner != uop.prevOnQubit)
                    addCrossRoundEdge(t, id, uop.prevOnPartner,
                                      std::size_t(uop.partner), r);
            }
        }
    }
    t.subSlotsLeft = oracle.depth() > 0 ? oracle.numQubits() : 0;
}

/** Issue phase: returns the number of uops issued this cycle. */
std::size_t
issuePhase(TileState &t, const SchedulerConfig &cfg,
           std::uint64_t cycle)
{
    if (t.mode == SchedulingMode::OutOfOrder) {
        std::size_t issued_now = 0;
        std::size_t pos = 0;
        while (pos < t.queue.size() && issued_now < cfg.issueWidth) {
            const std::uint32_t id = t.queue.entries()[pos];
            if (!t.scoreboard.ready(id, cycle)) {
                ++pos;
                continue;
            }
            const std::uint64_t completes =
                cycle + uopLatencyCycles(t.opOf(id));
            t.scoreboard.markIssued(id, completes);
            t.maxCompletion = std::max(t.maxCompletion, completes);
            t.recordIssue(cycle, id);
            t.queue.erase(pos);
            ++issued_now;
        }
        return issued_now;
    }

    // In-order: when the current sub-cycle is fully fetched and the
    // previous one's slowest waveform has played, fire the master
    // clock for every uop in it at once.
    if (t.subIdx >= t.rounds * t.oracle->depth()
        || t.subSlotsLeft != 0)
        return 0;
    if (cycle < t.execDone) {
        ++t.out.stalls.data; // barrier convoy behind the slow waveform
        return 0;
    }
    const std::size_t local = t.subIdx % t.oracle->depth();
    const std::size_t round = t.subIdx / t.oracle->depth();
    for (const std::uint32_t seq : t.subUops[local]) {
        const auto id =
            std::uint32_t(round * t.numUops + seq);
        t.recordIssue(cycle, id);
    }
    const std::uint64_t completes = cycle + t.subMaxLat[local];
    t.maxCompletion = std::max(t.maxCompletion, completes);
    t.execDone = completes;
    ++t.subIdx;
    if (t.subIdx < t.rounds * t.oracle->depth())
        t.subSlotsLeft = t.oracle->numQubits();
    return std::max<std::size_t>(t.subUops[local].size(), 1);
}

/**
 * Fetch phase: consume up to fetchWidth stream slots out of the
 * shared budget. Every slot — Nops included — costs bandwidth (the
 * stream visits each qubit each sub-cycle); only real uops enter the
 * issue queue. @return slots consumed; sets queue_full when decode
 * blocked on a full queue.
 */
std::size_t
fetchPhase(TileState &t, const SchedulerConfig &cfg,
           std::size_t &bw_left, bool &queue_full)
{
    std::size_t consumed = 0;
    if (t.mode == SchedulingMode::OutOfOrder) {
        while (consumed < cfg.fetchWidth && bw_left > 0
               && t.fetchSlot < t.totalSlots) {
            const std::size_t local = t.fetchSlot % t.slotsPerRound;
            const std::size_t round = t.fetchSlot / t.slotsPerRound;
            const std::int32_t seq = t.slotUop[local];
            if (seq >= 0) {
                if (t.queue.full()) {
                    queue_full = true;
                    break;
                }
                t.queue.push(std::uint32_t(round * t.numUops
                                           + std::size_t(seq)));
            }
            ++t.fetchSlot;
            ++consumed;
            --bw_left;
        }
    } else {
        const std::size_t want =
            std::min({cfg.fetchWidth, bw_left, t.subSlotsLeft});
        t.subSlotsLeft -= want;
        t.fetchSlot += want;
        bw_left -= want;
        consumed = want;
    }
    t.out.slotsFetched += consumed;
    return consumed;
}

} // namespace

DynamicScheduler::DynamicScheduler(const SchedulerConfig &cfg)
    : _cfg(cfg),
      _mPlans(sim::metrics::Registry::global().counter(
          "sched.plans", "issue schedules planned")),
      _mIssued(sim::metrics::Registry::global().counter(
          "sched.issued", "uops issued by planned schedules")),
      _mCycles(sim::metrics::Registry::global().counter(
          "sched.cycles", "pipeline cycles simulated by planned "
                          "schedules")),
      _mStallData(sim::metrics::Registry::global().counter(
          "sched.stall.data",
          "stall cycles: qubit dependence (RAW) or in-order "
          "barrier")),
      _mStallQueueFull(sim::metrics::Registry::global().counter(
          "sched.stall.queue_full",
          "stall cycles: decode blocked on a full issue queue")),
      _mStallFetch(sim::metrics::Registry::global().counter(
          "sched.stall.fetch",
          "stall cycles: issue queue empty, stream still "
          "fetching")),
      _mStallBandwidth(sim::metrics::Registry::global().counter(
          "sched.stall.bandwidth",
          "stall cycles: fetch demanded, arbiter granted "
          "nothing")),
      _hOccupancy(sim::metrics::Registry::global().histogram(
          "sched.queue_occupancy",
          "mean issue-queue occupancy per planned schedule"))
{
    QUEST_ASSERT(cfg.fetchWidth > 0 && cfg.issueWidth > 0
                     && cfg.queueCapacity > 0,
                 "scheduler widths must be positive");
}

void
DynamicScheduler::record(const TileSchedule &tile) const
{
    ++_mPlans;
    _mIssued += tile.issued;
    _mCycles += tile.cycles.size();
    _mStallData += tile.stalls.data;
    _mStallQueueFull += tile.stalls.queueFull;
    _mStallFetch += tile.stalls.fetchStarved;
    _mStallBandwidth += tile.stalls.bandwidthWait;
    if (!tile.cycles.empty())
        _hOccupancy.record(tile.occupancySum / tile.cycles.size());
}

TileSchedule
DynamicScheduler::schedule(const DependencyOracle &oracle,
                           SchedulingMode mode,
                           std::size_t rounds) const
{
    // Single-tile plans skip the memo: the Mce caches its own plan.
    ArbitrationResult r =
        simulate({&oracle}, {1}, mode, _cfg.fetchWidth,
                 ArbiterPolicy::RoundRobin, rounds);
    record(r.tiles.at(0));
    return std::move(r.tiles.at(0));
}

const ArbitrationResult &
DynamicScheduler::arbitrate(
    const std::vector<const DependencyOracle *> &tiles,
    const std::vector<std::uint8_t> &active, SchedulingMode mode,
    std::size_t shared_bandwidth, ArbiterPolicy policy,
    std::size_t rounds) const
{
    QUEST_ASSERT(tiles.size() == active.size(),
                 "arbitrate: %zu tiles, %zu active flags",
                 tiles.size(), active.size());

    const auto isActive = [&](std::size_t i) {
        return active[i] != 0 && tiles[i] != nullptr;
    };
    bool hit = _memo.valid && _memo.mode == mode
        && _memo.bandwidth == shared_bandwidth
        && _memo.policy == policy && _memo.rounds == rounds
        && _memo.tiles.size() == tiles.size();
    for (std::size_t i = 0; hit && i < tiles.size(); ++i) {
        const TileKey &key = _memo.tiles[i];
        hit = key.active == isActive(i)
            && (!key.active
                || (key.qubits == tiles[i]->numQubits()
                    && key.depth == tiles[i]->depth()
                    && key.uops == tiles[i]->uops()));
    }

    if (!hit) {
        _memo.valid = false;
        _memo.result = simulate(tiles, active, mode, shared_bandwidth,
                                policy, rounds);
        _memo.tiles.assign(tiles.size(), TileKey{});
        for (std::size_t i = 0; i < tiles.size(); ++i)
            if (isActive(i))
                _memo.tiles[i] = TileKey{true, tiles[i]->numQubits(),
                                         tiles[i]->depth(),
                                         tiles[i]->uops()};
        _memo.mode = mode;
        _memo.bandwidth = shared_bandwidth;
        _memo.policy = policy;
        _memo.rounds = rounds;
        _memo.valid = true;
    }
    for (const TileSchedule &t : _memo.result.tiles)
        record(t);
    return _memo.result;
}

ArbitrationResult
DynamicScheduler::simulate(
    const std::vector<const DependencyOracle *> &tiles,
    const std::vector<std::uint8_t> &active, SchedulingMode mode,
    std::size_t shared_bandwidth, ArbiterPolicy policy,
    std::size_t rounds) const
{
    QUEST_ASSERT(shared_bandwidth > 0,
                 "arbitrate needs fetch bandwidth");
    QUEST_ASSERT(rounds > 0, "arbitrate needs rounds");

    std::vector<TileState> states(tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        TileState &t = states[i];
        t.oracle = tiles[i];
        t.active = active[i] != 0 && tiles[i] != nullptr;
        t.mode = mode;
        t.rounds = rounds;
        if (t.active)
            initTile(t, _cfg);
    }

    ArbitrationResult result;
    std::vector<std::size_t> order(states.size());
    std::uint64_t cycle = 0;
    for (;; ++cycle) {
        bool all_done = true;
        for (const TileState &t : states)
            all_done = all_done && t.finished();
        if (all_done)
            break;
        QUEST_ASSERT(cycle < kMaxSimCycles,
                     "arbitration did not converge (livelock?)");

        // Grant order: rotating priority, or lowest fetched
        // watermark first (ties broken by tile index, so the order
        // is deterministic).
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        if (policy == ArbiterPolicy::RoundRobin) {
            std::rotate(order.begin(),
                        order.begin()
                            + std::ptrdiff_t(cycle % order.size()),
                        order.end());
        } else {
            std::stable_sort(
                order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                    return states[a].fetchSlot
                        < states[b].fetchSlot;
                });
        }

        std::size_t bw_left = shared_bandwidth;
        for (const std::size_t i : order) {
            TileState &t = states[i];
            if (!t.active || t.finished())
                continue;

            const std::size_t issued_now =
                issuePhase(t, _cfg, cycle);

            const bool wants_fetch = t.mode
                    == SchedulingMode::OutOfOrder
                ? t.fetchSlot < t.totalSlots
                : t.subSlotsLeft > 0;
            bool queue_full = false;
            std::size_t consumed = 0;
            if (wants_fetch) {
                const std::size_t before = bw_left;
                consumed =
                    fetchPhase(t, _cfg, bw_left, queue_full);
                result.slotsGranted += before - bw_left;
                if (consumed == 0 && !queue_full)
                    ++t.out.stalls.bandwidthWait;
            }
            if (queue_full)
                ++t.out.stalls.queueFull;

            if (t.mode == SchedulingMode::OutOfOrder) {
                if (issued_now == 0 && t.issuedCount < t.totalUops) {
                    if (!t.queue.empty())
                        ++t.out.stalls.data;
                    else if (wants_fetch && consumed > 0)
                        ++t.out.stalls.fetchStarved;
                }
                t.out.occupancySum += t.queue.size();
            }
        }
    }

    result.tiles.reserve(states.size());
    for (TileState &t : states) {
        t.out.makespanCycles = std::size_t(t.maxCompletion);
        result.makespanCycles =
            std::max(result.makespanCycles, t.out.makespanCycles);
        result.tiles.push_back(std::move(t.out));
    }
    return result;
}

} // namespace quest::core
