/**
 * @file
 * Replay-equivalence harness for the dynamically scheduled MCE.
 *
 * The contract under test: out-of-order issue is a *timing* model
 * only. Whatever the issue plan does, the architectural observables
 * of a replay — measurement stream, syndrome rounds, correction
 * ledger, Pauli frame, uop/bit accounting — are bit-identical to the
 * in-order pipeline. The harness attacks that from three directions:
 *
 *  1. unit tests of the scoreboard / issue queue / latency model;
 *  2. a seeded random-microcode-program generator (constrained to
 *     pass `quest verify`) whose programs are planned through both
 *     pipelines and checked for structural soundness (coverage,
 *     dependency ordering, operand disjointness) plus functional
 *     reorder-equivalence under a Pauli-frame interpreter;
 *  3. end-to-end differentials: in-order vs out-of-order Mce (and
 *     MasterController) runs over randomized configurations across
 *     all three microcode designs, digest-compared observable by
 *     observable.
 *
 * The hazard oracle is additionally cross-checked against the static
 * verifier on hand-corrupted programs, pinning the shared-analysis
 * refactor (verify::DependencyOracle) to the PR-5 diagnostics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "core/master_controller.hpp"
#include "core/mce.hpp"
#include "core/scheduler.hpp"
#include "core/system.hpp"
#include "decode/streaming.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "verify/dependency.hpp"
#include "verify/diagnostics.hpp"
#include "verify/verifier.hpp"

#include "random_program.hpp"

namespace {

using namespace quest;
using core::ArbiterPolicy;
using core::ArbitrationResult;
using core::DynamicScheduler;
using core::IssueQueue;
using core::Mce;
using core::MceConfig;
using core::Scoreboard;
using core::SchedulerConfig;
using core::SchedulingMode;
using core::TileSchedule;
using isa::PhysOpcode;
using qecc::Coord;
using qecc::Direction;
using qecc::Lattice;
using qecc::SiteType;
using verify::DependencyOracle;
using verify::MicroOp;

// ---------------------------------------------------------------------------
// Latency model
// ---------------------------------------------------------------------------

TEST(UopLatency, MeasurementIsTheLongPole)
{
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::MeasZ), 4u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::MeasX), 4u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::CnotN), 2u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::CnotTargetW), 2u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::PrepZ), 1u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::Hadamard), 1u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::Nop), 1u);
}

// ---------------------------------------------------------------------------
// Scoreboard
// ---------------------------------------------------------------------------

TEST(Scoreboard, ReadyTracksProducerCompletion)
{
    Scoreboard sb(3);
    sb.addProducer(2, 0);
    sb.addProducer(2, 1);

    // No producers: ready immediately.
    EXPECT_TRUE(sb.ready(0, 0));
    // Producers not yet issued.
    EXPECT_FALSE(sb.ready(2, 100));

    sb.markIssued(0, 5);
    EXPECT_FALSE(sb.ready(2, 100)); // uop 1 still outstanding
    sb.markIssued(1, 7);
    EXPECT_FALSE(sb.ready(2, 6)); // uop 1 completes at 7
    EXPECT_TRUE(sb.ready(2, 7));
    EXPECT_EQ(sb.completion(1), 7u);
}

TEST(Scoreboard, RejectsBackwardEdgesAndDoubleIssue)
{
    Scoreboard sb(2);
    EXPECT_THROW(sb.addProducer(0, 1), sim::SimError);
    sb.markIssued(0, 1);
    EXPECT_THROW(sb.markIssued(0, 2), sim::SimError);
}

// ---------------------------------------------------------------------------
// Issue queue
// ---------------------------------------------------------------------------

TEST(IssueQueueTest, KeepsDecodeOrderAndBoundsCapacity)
{
    IssueQueue q(3);
    EXPECT_TRUE(q.empty());
    q.push(10);
    q.push(11);
    q.push(12);
    EXPECT_TRUE(q.full());
    EXPECT_THROW(q.push(13), sim::SimError);

    // Oldest-first scan order is front-to-back.
    EXPECT_EQ(q.entries()[0], 10u);
    EXPECT_EQ(q.entries()[2], 12u);

    // Erasing the middle preserves relative age order.
    q.erase(1);
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q.entries()[0], 10u);
    EXPECT_EQ(q.entries()[1], 12u);
    EXPECT_THROW(q.erase(5), sim::SimError);
}

// ---------------------------------------------------------------------------
// Seeded random-microcode-program generator
// ---------------------------------------------------------------------------

// RandomProgram / makeRandomProgram / artifactsFor moved to
// tests/random_program.hpp so the timing-oracle soundness fuzz
// (tests/test_timing.cpp) runs over the identical corpus.
using testutil::RandomProgram;
using testutil::artifactsFor;
using testutil::makeRandomProgram;

TEST(RandomProgramGenerator, ProgramsPassTheStaticVerifier)
{
    // Full five-pass verification on a sample; the whole fuzz corpus
    // is oracle-checked in the plan battery below.
    const verify::Verifier verifier;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const RandomProgram p = makeRandomProgram(seed);
        const verify::Report report = verifier.run(artifactsFor(p));
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report.toString();
    }
}

// ---------------------------------------------------------------------------
// Hazard oracle vs the static pass, on corrupted programs
// ---------------------------------------------------------------------------

/** Hazard diagnostics the static verifier reports for a stream. */
std::size_t
verifierCount(const RandomProgram &p, const char *code)
{
    const verify::Verifier verifier;
    return verifier.run(artifactsFor(p)).countCode(code);
}

std::size_t
oracleCount(const DependencyOracle &oracle, const char *code)
{
    std::size_t c = 0;
    for (const auto &h : oracle.hazards())
        c += std::string_view(h.code) == code ? 1 : 0;
    return c;
}

TEST(HazardOracle, CorruptionsMatchTheStaticPassExactly)
{
    RandomProgram p = makeRandomProgram(3);
    const Lattice &lat = *p.lattice;
    const std::size_t n = p.qubits();

    // Find an interior ancilla and its data partners.
    std::size_t anc = n;
    for (std::size_t q = 0; q < n; ++q) {
        const Coord c = lat.coord(q);
        if (lat.isAncilla(c) && c.row > 0 && c.col > 0
            && c.row + 1 < int(lat.rows())
            && c.col + 1 < int(lat.cols())) {
            anc = q;
            break;
        }
    }
    ASSERT_LT(anc, n);
    const Coord ac = lat.coord(anc);

    // 1. Measure without preparation.
    p.subCycles[0][anc] = PhysOpcode::Nop;
    p.subCycles.back()[anc] = PhysOpcode::MeasZ;
    // 2. Interaction after the measurement.
    std::vector<PhysOpcode> late(n, PhysOpcode::Nop);
    late[anc] = lat.siteType(ac) == SiteType::XAncilla
        ? qecc::cnotOpcode(Direction::North)
        : qecc::cnotTargetOpcode(Direction::North);
    p.subCycles.push_back(late);

    // 3. Two-qubit aliasing: two ancillas flanking one data qubit
    //    both claim it within a fresh sub-cycle.
    std::vector<PhysOpcode> alias(n, PhysOpcode::Nop);
    bool aliased = false;
    for (std::size_t q = 0; q < n && !aliased; ++q) {
        const Coord c = lat.coord(q);
        if (!lat.isData(c))
            continue;
        std::vector<std::pair<std::size_t, Direction>> flank;
        for (const Direction dir : qecc::allDirections)
            if (auto nb = lat.neighbour(c, dir);
                nb && lat.isAncilla(*nb))
                flank.emplace_back(lat.index(*nb), dir);
        if (flank.size() < 2)
            continue;
        for (std::size_t k = 0; k < 2; ++k) {
            const auto [aq, dir_to_anc] = flank[k];
            // The ancilla's uop points back at the data qubit.
            const Direction back = static_cast<Direction>(
                (std::size_t(dir_to_anc) + 2) % 4);
            alias[aq] =
                lat.siteType(lat.coord(aq)) == SiteType::XAncilla
                ? qecc::cnotOpcode(back)
                : qecc::cnotTargetOpcode(back);
        }
        aliased = true;
    }
    ASSERT_TRUE(aliased);
    p.subCycles.push_back(alias);

    const DependencyOracle oracle(lat, n, p.subCycles);
    EXPECT_FALSE(oracle.clean());

    // The static pass *is* the oracle now; lock the contract with an
    // exact per-code comparison through the full verifier.
    for (const char *code :
         {verify::codes::readBeforeReset,
          verify::codes::measBeforeInteraction,
          verify::codes::aliasing, verify::codes::partner}) {
        EXPECT_EQ(oracleCount(oracle, code), verifierCount(p, code))
            << code;
    }
    EXPECT_GT(oracleCount(oracle, verify::codes::readBeforeReset),
              0u);
    EXPECT_GT(
        oracleCount(oracle, verify::codes::measBeforeInteraction),
        0u);
    EXPECT_GT(oracleCount(oracle, verify::codes::aliasing), 0u);
}

TEST(HazardOracle, OffLatticePartnerIsRecorded)
{
    const Lattice lat(5, 5);
    const std::size_t n = lat.numQubits();
    // An edge ancilla pointing off the lattice.
    std::size_t edge = n;
    for (std::size_t q = 0; q < n; ++q)
        if (lat.isAncilla(lat.coord(q)) && lat.coord(q).row == 0) {
            edge = q;
            break;
        }
    ASSERT_LT(edge, n);
    std::vector<std::vector<PhysOpcode>> stream(
        1, std::vector<PhysOpcode>(n, PhysOpcode::Nop));
    stream[0][edge] = qecc::cnotOpcode(Direction::North);
    const DependencyOracle oracle(lat, n, stream);
    EXPECT_EQ(oracleCount(oracle, verify::codes::partner), 1u);
    // The uop is still tracked (it fires, latching its own slot).
    ASSERT_EQ(oracle.uops().size(), 1u);
    EXPECT_FALSE(oracle.uops()[0].hasPartner());
}

// ---------------------------------------------------------------------------
// Issue-plan structural properties + Pauli-frame reorder equivalence
// ---------------------------------------------------------------------------

/** Issue cycle of every uop id in a plan (asserts full coverage). */
std::map<std::uint32_t, std::size_t>
issueCycles(const DependencyOracle &oracle, const TileSchedule &plan,
            std::size_t rounds)
{
    std::map<std::uint32_t, std::size_t> at;
    for (std::size_t c = 0; c < plan.cycles.size(); ++c)
        for (const std::uint32_t id : plan.cycles[c])
            EXPECT_TRUE(at.emplace(id, c).second)
                << "uop " << id << " issued twice";
    EXPECT_EQ(at.size(), oracle.uops().size() * rounds);
    EXPECT_EQ(plan.issued, at.size());
    return at;
}

/** Global producer ids of a uop, including cross-round stitching —
 *  an independent reimplementation of the scheduler's edge rule. */
std::vector<std::uint32_t>
globalProducers(const DependencyOracle &oracle, std::uint32_t id)
{
    const std::size_t u = oracle.uops().size();
    const std::size_t r = id / u;
    const MicroOp &uop = oracle.uops()[id % u];
    std::set<std::uint32_t> out;
    const auto add = [&](std::int32_t prev, std::size_t qubit) {
        if (prev >= 0)
            out.insert(std::uint32_t(r * u + std::size_t(prev)));
        else if (r > 0)
            out.insert(std::uint32_t(
                (r - 1) * u
                + std::size_t(oracle.lastTouch(qubit))));
    };
    add(uop.prevOnQubit, uop.qubit);
    if (uop.hasPartner())
        add(uop.prevOnPartner, std::size_t(uop.partner));
    return {out.begin(), out.end()};
}

void
checkPlanSoundness(const DependencyOracle &oracle,
                   const TileSchedule &plan, SchedulingMode mode,
                   std::size_t rounds)
{
    const auto at = issueCycles(oracle, plan, rounds);
    const std::size_t u = oracle.uops().size();

    for (const auto &[id, cycle] : at) {
        // Dependency ordering: a uop issues only after every
        // producer's waveform has completed.
        for (const std::uint32_t prod :
             globalProducers(oracle, id)) {
            const std::size_t lat = core::uopLatencyCycles(
                oracle.uops()[prod % u].op);
            EXPECT_GE(cycle, at.at(prod) + lat)
                << "uop " << id << " issued before producer " << prod
                << " completed";
        }
    }

    // Operand disjointness: no two uops issued in the same cycle
    // touch the same qubit (same master-clock firing).
    for (const auto &issue_cycle : plan.cycles) {
        std::set<std::uint32_t> touched;
        for (const std::uint32_t id : issue_cycle) {
            const MicroOp &uop = oracle.uops()[id % u];
            EXPECT_TRUE(touched.insert(uop.qubit).second);
            if (uop.hasPartner()) {
                EXPECT_TRUE(
                    touched.insert(std::uint32_t(uop.partner))
                        .second);
            }
        }
    }

    if (mode == SchedulingMode::InOrder) {
        // Barrier shape: all uops of one (round, sub-cycle) fire in
        // one cycle, and the barrier order is program order.
        std::map<std::pair<std::size_t, std::uint32_t>,
                 std::set<std::size_t>>
            perSub;
        for (const auto &[id, cycle] : at)
            perSub[{id / u, oracle.uops()[id % u].subCycle}].insert(
                cycle);
        std::size_t prev_cycle = 0;
        bool first = true;
        for (const auto &[key, cycles] : perSub) {
            EXPECT_EQ(cycles.size(), 1u)
                << "sub-cycle split across issue cycles";
            if (!first) {
                EXPECT_GT(*cycles.begin(), prev_cycle);
            }
            prev_cycle = *cycles.begin();
            first = false;
        }
    }
}

/** Apply one uop to a Pauli frame; measurements are recorded under a
 *  stable (round, qubit) key so order of execution cannot hide a
 *  reordering bug. */
void
applyUop(const MicroOp &uop, std::size_t round,
         quantum::PauliFrame &frame,
         std::map<std::pair<std::size_t, std::uint32_t>, int> &meas)
{
    switch (uop.op) {
      case PhysOpcode::PrepZ:
      case PhysOpcode::PrepX:
        frame.reset(uop.qubit);
        break;
      case PhysOpcode::Hadamard:
        frame.h(uop.qubit);
        break;
      case PhysOpcode::Phase:
        frame.s(uop.qubit);
        break;
      case PhysOpcode::MeasZ:
        meas[{round, uop.qubit}] = frame.xError(uop.qubit) ? 1 : 0;
        break;
      case PhysOpcode::MeasX:
        meas[{round, uop.qubit}] = frame.zError(uop.qubit) ? 1 : 0;
        break;
      default:
        if (isa::isTwoQubit(uop.op) && uop.hasPartner()) {
            const auto partner = std::size_t(uop.partner);
            if (qecc::cnotTargetOpcode(
                    qecc::cnotDirection(uop.op))
                == uop.op)
                frame.cnot(partner, uop.qubit);
            else
                frame.cnot(uop.qubit, partner);
        }
        break;
    }
}

/**
 * The fuzz core: 200 seeded random programs, both pipeline modes,
 * single- and multi-round plans. Structural soundness plus
 * functional equivalence — executing the uops *in issue order* on a
 * Pauli frame seeded with random errors must reproduce the
 * program-order frame and measurement record bit for bit.
 */
TEST(SchedulerFuzz, TwoHundredRandomProgramsReplayEquivalently)
{
    const DynamicScheduler sched(SchedulerConfig{});
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const RandomProgram p = makeRandomProgram(seed);
        const DependencyOracle oracle(*p.lattice, p.qubits(),
                                      p.subCycles);
        ASSERT_TRUE(oracle.clean()) << "seed " << seed;

        const std::size_t rounds = 1 + seed % 3;
        for (const SchedulingMode mode :
             {SchedulingMode::InOrder, SchedulingMode::OutOfOrder}) {
            const TileSchedule plan =
                sched.schedule(oracle, mode, rounds);
            checkPlanSoundness(oracle, plan, mode, rounds);

            // Functional reorder equivalence.
            sim::Rng noise(sim::Rng::deriveSeed(0xFA11u, seed));
            quantum::PauliFrame ref(p.qubits());
            quantum::PauliFrame got(p.qubits());
            for (std::size_t q = 0; q < p.qubits(); ++q)
                if (noise.bernoulli(0.2)) {
                    const auto pauli =
                        static_cast<quantum::Pauli>(
                            1 + noise.uniformInt(3));
                    ref.inject(q, pauli);
                    got.inject(q, pauli);
                }

            std::map<std::pair<std::size_t, std::uint32_t>, int>
                refMeas, gotMeas;
            const std::size_t u = oracle.uops().size();
            for (std::size_t r = 0; r < rounds; ++r)
                for (const MicroOp &uop : oracle.uops())
                    applyUop(uop, r, ref, refMeas);
            for (const auto &issue_cycle : plan.cycles)
                for (const std::uint32_t id : issue_cycle)
                    applyUop(oracle.uops()[id % u], id / u, got,
                             gotMeas);

            EXPECT_EQ(refMeas, gotMeas)
                << "seed " << seed << " mode "
                << core::schedulingModeName(mode);
            for (std::size_t q = 0; q < p.qubits(); ++q) {
                ASSERT_EQ(ref.xError(q), got.xError(q))
                    << "seed " << seed << " qubit " << q;
                ASSERT_EQ(ref.zError(q), got.zError(q))
                    << "seed " << seed << " qubit " << q;
            }
        }
    }
}

TEST(SchedulerPlan, DeterministicAcrossInstances)
{
    const RandomProgram p = makeRandomProgram(17);
    const DependencyOracle oracle(*p.lattice, p.qubits(),
                                  p.subCycles);
    const DynamicScheduler a{SchedulerConfig{}};
    const DynamicScheduler b{SchedulerConfig{}};
    const TileSchedule pa =
        a.schedule(oracle, SchedulingMode::OutOfOrder, 2);
    const TileSchedule pb =
        b.schedule(oracle, SchedulingMode::OutOfOrder, 2);
    EXPECT_EQ(pa.cycles, pb.cycles);
    EXPECT_EQ(pa.makespanCycles, pb.makespanCycles);
    EXPECT_EQ(pa.stalls.total(), pb.stalls.total());
}

TEST(SchedulerPlan, OutOfOrderNeverSlowerOnCanonicalPrograms)
{
    const DynamicScheduler sched(SchedulerConfig{});
    for (const std::size_t d : {3u, 5u}) {
        MceConfig cfg;
        cfg.distance = d;
        Mce mce("t", cfg);
        const DependencyOracle &oracle = mce.dependencyOracle();
        const auto in_plan =
            sched.schedule(oracle, SchedulingMode::InOrder, 4);
        const auto ooo_plan =
            sched.schedule(oracle, SchedulingMode::OutOfOrder, 4);
        EXPECT_LE(ooo_plan.makespanCycles, in_plan.makespanCycles)
            << "d=" << d;
        EXPECT_EQ(ooo_plan.issued, in_plan.issued);
    }
}

TEST(SchedulerPlan, TinyIssueQueueStallsStructurallyButCompletes)
{
    const RandomProgram p = makeRandomProgram(23);
    const DependencyOracle oracle(*p.lattice, p.qubits(),
                                  p.subCycles);
    SchedulerConfig cfg;
    cfg.queueCapacity = 2;
    cfg.issueWidth = 1;
    const DynamicScheduler sched(cfg);
    const TileSchedule plan =
        sched.schedule(oracle, SchedulingMode::OutOfOrder, 2);
    checkPlanSoundness(oracle, plan, SchedulingMode::OutOfOrder, 2);
    EXPECT_GT(plan.stalls.queueFull, 0u);
}

// ---------------------------------------------------------------------------
// Multi-tile arbitration
// ---------------------------------------------------------------------------

TEST(Arbiter, ConservesBandwidthAndCoversEveryTile)
{
    MceConfig cfg;
    cfg.distance = 3;
    Mce mce("t", cfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});

    for (const ArbiterPolicy policy :
         {ArbiterPolicy::RoundRobin, ArbiterPolicy::OldestFirst}) {
        const std::vector<const DependencyOracle *> tiles(
            4, &oracle);
        const std::vector<std::uint8_t> active(4, 1);
        const ArbitrationResult r =
            sched.arbitrate(tiles, active,
                            SchedulingMode::OutOfOrder, 8, policy, 2);
        ASSERT_EQ(r.tiles.size(), 4u);
        const std::size_t slots_per_tile =
            oracle.depth() * oracle.numQubits() * 2;
        std::uint64_t fetched = 0;
        for (const TileSchedule &t : r.tiles) {
            EXPECT_EQ(t.issued, oracle.uops().size() * 2);
            EXPECT_EQ(t.slotsFetched, slots_per_tile);
            EXPECT_LE(t.makespanCycles, r.makespanCycles);
            fetched += t.slotsFetched;
        }
        EXPECT_EQ(r.slotsGranted, fetched);
    }
}

TEST(Arbiter, HungTileDemandsNothing)
{
    MceConfig cfg;
    cfg.distance = 3;
    Mce mce("t", cfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});
    const std::vector<const DependencyOracle *> tiles(3, &oracle);
    const ArbitrationResult r = sched.arbitrate(
        tiles, {1, 0, 1}, SchedulingMode::OutOfOrder, 4,
        ArbiterPolicy::RoundRobin, 1);
    EXPECT_GT(r.tiles[0].issued, 0u);
    EXPECT_EQ(r.tiles[1].issued, 0u);
    EXPECT_EQ(r.tiles[1].slotsFetched, 0u);
    EXPECT_GT(r.tiles[2].issued, 0u);
}

TEST(Arbiter, ContentionStretchesMakespanAndRecordsWaits)
{
    MceConfig cfg;
    cfg.distance = 3;
    Mce mce("t", cfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});
    const std::vector<const DependencyOracle *> tiles(4, &oracle);
    const std::vector<std::uint8_t> active(4, 1);

    const auto starved = sched.arbitrate(
        tiles, active, SchedulingMode::OutOfOrder, 4,
        ArbiterPolicy::RoundRobin, 1);
    const auto fed = sched.arbitrate(
        tiles, active, SchedulingMode::OutOfOrder, 16,
        ArbiterPolicy::RoundRobin, 1);
    EXPECT_GT(starved.makespanCycles, fed.makespanCycles);
    std::uint64_t waits = 0;
    for (const TileSchedule &t : starved.tiles)
        waits += t.stalls.bandwidthWait;
    EXPECT_GT(waits, 0u);
}

// ---------------------------------------------------------------------------
// Arbitration memo
// ---------------------------------------------------------------------------

/** Field-by-field equality of two arbitration results. */
void
expectSameArbitration(const ArbitrationResult &a,
                      const ArbitrationResult &b)
{
    EXPECT_EQ(a.makespanCycles, b.makespanCycles);
    EXPECT_EQ(a.slotsGranted, b.slotsGranted);
    ASSERT_EQ(a.tiles.size(), b.tiles.size());
    for (std::size_t i = 0; i < a.tiles.size(); ++i) {
        SCOPED_TRACE("tile " + std::to_string(i));
        const TileSchedule &x = a.tiles[i];
        const TileSchedule &y = b.tiles[i];
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.stalls.data, y.stalls.data);
        EXPECT_EQ(x.stalls.queueFull, y.stalls.queueFull);
        EXPECT_EQ(x.stalls.fetchStarved, y.stalls.fetchStarved);
        EXPECT_EQ(x.stalls.bandwidthWait, y.stalls.bandwidthWait);
        EXPECT_EQ(x.occupancySum, y.occupancySum);
        EXPECT_EQ(x.makespanCycles, y.makespanCycles);
        EXPECT_EQ(x.issued, y.issued);
        EXPECT_EQ(x.slotsFetched, y.slotsFetched);
    }
}

/** What a scheduler with no history computes for these inputs. */
ArbitrationResult
freshArbitration(const std::vector<const DependencyOracle *> &tiles,
                 const std::vector<std::uint8_t> &active,
                 SchedulingMode mode)
{
    const DynamicScheduler fresh(SchedulerConfig{});
    return fresh.arbitrate(tiles, active, mode, 6,
                           ArbiterPolicy::OldestFirst, 1);
}

TEST(ArbiterMemo, MaskEditAndRevertRecomputeAtTheSameAddress)
{
    for (const SchedulingMode mode :
         {SchedulingMode::InOrder, SchedulingMode::OutOfOrder}) {
        SCOPED_TRACE(core::schedulingModeName(mode));
        MceConfig cfg = core::tileConfigForLogicalQubits(3);
        Mce edited("edited", cfg);
        Mce other("other", cfg);
        // One storage slot for the edited tile's oracle: every
        // rebuild lands at the same address with new content.
        DependencyOracle slot = edited.dependencyOracle();
        const std::vector<const DependencyOracle *> tiles{
            &slot, &other.dependencyOracle()};
        const std::vector<std::uint8_t> active{1, 1};
        const DynamicScheduler sched(SchedulerConfig{});
        const auto arbitrate = [&] {
            return &sched.arbitrate(tiles, active, mode, 6,
                                    ArbiterPolicy::OldestFirst, 1);
        };

        const ArbitrationResult before = *arbitrate();
        const auto *plan = arbitrate()->tiles[0].cycles.data();

        const int id = edited.defineLogicalQubit(Coord{2, 2});
        slot = edited.dependencyOracle();
        const ArbitrationResult &masked = *arbitrate();
        EXPECT_NE(masked.tiles[0].cycles.data(), plan); // recomputed
        expectSameArbitration(masked,
                              freshArbitration(tiles, active, mode));
        EXPECT_LT(masked.tiles[0].issued, before.tiles[0].issued);

        edited.releaseLogicalQubit(id);
        slot = edited.dependencyOracle();
        const ArbitrationResult &reverted = *arbitrate();
        expectSameArbitration(reverted,
                              freshArbitration(tiles, active, mode));
        expectSameArbitration(reverted, before);
    }
}

TEST(ArbiterMemo, WedgeAndResumeChangeTheActiveSet)
{
    for (const SchedulingMode mode :
         {SchedulingMode::InOrder, SchedulingMode::OutOfOrder}) {
        SCOPED_TRACE(core::schedulingModeName(mode));
        MceConfig cfg;
        cfg.distance = 3;
        std::vector<std::unique_ptr<Mce>> mces;
        std::vector<const DependencyOracle *> tiles;
        for (int i = 0; i < 3; ++i) {
            mces.push_back(std::make_unique<Mce>("t", cfg));
            tiles.push_back(&mces.back()->dependencyOracle());
        }
        const DynamicScheduler sched(SchedulerConfig{});
        const auto arbitrate = [&] {
            std::vector<std::uint8_t> active;
            for (const auto &m : mces)
                active.push_back(m->hung() ? 0 : 1);
            const ArbitrationResult &r = sched.arbitrate(
                tiles, active, mode, 6, ArbiterPolicy::OldestFirst, 1);
            expectSameArbitration(r,
                                  freshArbitration(tiles, active, mode));
            return &r;
        };

        const ArbitrationResult all = *arbitrate();
        const auto *plan = arbitrate()->tiles[0].cycles.data();

        mces[1]->wedge();
        const ArbitrationResult &wedged = *arbitrate();
        EXPECT_NE(wedged.tiles[0].cycles.data(), plan);
        EXPECT_EQ(wedged.tiles[1].issued, 0u);
        EXPECT_LT(wedged.makespanCycles, all.makespanCycles);

        mces[1]->recover();
        const ArbitrationResult &resumed = *arbitrate();
        EXPECT_GT(resumed.tiles[1].issued, 0u);
        expectSameArbitration(resumed, all);
    }
}

/** The sched.* rows of the global metrics snapshot. */
std::string
schedSnapshot()
{
    std::string out;
    const std::string all = sim::metricsSnapshot();
    std::size_t pos = 0;
    while (pos < all.size()) {
        const std::size_t end = all.find('\n', pos);
        const std::string line = all.substr(pos, end - pos);
        if (line.rfind("sched.", 0) == 0)
            out += line + "\n";
        pos = end == std::string::npos ? all.size() : end + 1;
    }
    return out;
}

TEST(ArbiterMemo, RepeatedCallsRecordLikeFreshRuns)
{
    constexpr int calls = 5;
    MceConfig cfg = core::tileConfigForLogicalQubits(3);
    Mce a("a", cfg);
    Mce b("b", cfg);
    b.defineLogicalQubit(Coord{2, 2});
    const std::vector<const DependencyOracle *> tiles{
        &a.dependencyOracle(), &b.dependencyOracle(),
        &a.dependencyOracle()};
    const std::vector<std::uint8_t> active{1, 1, 0};
    auto &reg = sim::metrics::Registry::global();

    for (const SchedulingMode mode :
         {SchedulingMode::InOrder, SchedulingMode::OutOfOrder}) {
        SCOPED_TRACE(core::schedulingModeName(mode));
        reg.reset();
        const DynamicScheduler memo(SchedulerConfig{});
        const auto *plan =
            memo.arbitrate(tiles, active, mode, 4,
                           ArbiterPolicy::RoundRobin, 2)
                .tiles[0]
                .cycles.data();
        for (int i = 1; i < calls; ++i) {
            const ArbitrationResult &r = memo.arbitrate(
                tiles, active, mode, 4, ArbiterPolicy::RoundRobin, 2);
            EXPECT_EQ(r.tiles[0].cycles.data(), plan); // served cached
        }
        const std::string memoized = schedSnapshot();

        reg.reset();
        for (int i = 0; i < calls; ++i)
            DynamicScheduler(SchedulerConfig{})
                .arbitrate(tiles, active, mode, 4,
                           ArbiterPolicy::RoundRobin, 2);
        EXPECT_EQ(memoized, schedSnapshot());
        EXPECT_NE(memoized.find("sched.plans "
                                + std::to_string(3 * calls) + "\n"),
                  std::string::npos)
            << memoized;
        EXPECT_NE(memoized.find("sched.queue_occupancy.count"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// End-to-end differential: in-order vs out-of-order Mce replay
// ---------------------------------------------------------------------------

/** FNV-1a over every architectural observable of one Mce run. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    }

    void
    mixRound(const qecc::SyndromeRound &r)
    {
        for (const std::uint8_t b : r.xFlips)
            mix(b);
        for (const std::uint8_t b : r.zFlips)
            mix(b);
    }

    void
    mixFrame(const quantum::PauliFrame &f)
    {
        for (std::size_t q = 0; q < f.numQubits(); ++q)
            mix((f.xError(q) ? 1u : 0u) | (f.zError(q) ? 2u : 0u));
    }
};

/** Replay one randomized scenario and digest its observables. */
std::uint64_t
runScenario(MceConfig cfg, SchedulingMode mode, std::uint64_t seed)
{
    cfg.scheduling = mode;
    sim::Rng rng(sim::Rng::deriveSeed(0xD1FFu, seed));
    Mce mce("diff", cfg);
    Digest d;

    const std::size_t rounds = 3 + rng.uniformInt(5);
    const bool with_logical = cfg.latticeRows > 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        d.mixRound(mce.runQeccRound());
        if (with_logical && r == 1) {
            // Mid-stream mask rebuild: the scheduler must re-plan.
            const int id = mce.defineLogicalQubit(Coord{2, 2});
            d.mix(std::uint64_t(id));
        }
        if (with_logical && r == rounds - 1
            && mce.logicalQubitCount() > 0)
            mce.executeLogical({isa::LogicalOpcode::Hadamard, 0});
    }
    const decode::DetectionEvents residual =
        mce.collectResidualEvents();
    d.mix(residual.total());
    d.mixFrame(mce.frame());
    d.mixFrame(mce.correctionLedger());
    d.mix(std::uint64_t(mce.microcodeBitsStreamed()));
    d.mix(std::uint64_t(mce.qeccUopsIssued()));
    d.mix(mce.residualErrorWeight());
    d.mix(mce.roundsRun());
    return d.h;
}

/**
 * The tentpole differential: >= 200 randomized scenarios per
 * microcode design (distance, protocol, noise, logical activity all
 * drawn from the seed), each replayed through both pipelines. Every
 * architectural observable must be bit-identical.
 */
TEST(ReplayEquivalence, InOrderAndOutOfOrderAreBitIdentical)
{
    for (const core::MicrocodeDesign design :
         core::allMicrocodeDesigns) {
        for (std::uint64_t seed = 0; seed < 70; ++seed) {
            sim::Rng rng(sim::Rng::deriveSeed(0xC0DEu, seed));
            MceConfig cfg;
            cfg.distance = rng.bernoulli(0.7) ? 3 : 5;
            if (rng.bernoulli(0.3)) {
                // A logical-activity scenario: a tile sized for a
                // defect pair, with a mid-run mask rebuild.
                cfg = core::tileConfigForLogicalQubits(cfg.distance);
            }
            cfg.protocol = qecc::allProtocols[rng.uniformInt(
                std::size(qecc::allProtocols))];
            cfg.microcodeDesign = design;
            cfg.seed = 1000 + seed;
            if (rng.bernoulli(0.7))
                cfg.errorRates = quantum::ErrorRates::uniform(
                    rng.bernoulli(0.5) ? 1e-3 : 5e-3);
            if (rng.bernoulli(0.2))
                cfg.maskLayout = core::MaskLayout::Coalesced;

            const std::uint64_t in_digest = runScenario(
                cfg, SchedulingMode::InOrder, seed);
            const std::uint64_t ooo_digest = runScenario(
                cfg, SchedulingMode::OutOfOrder, seed);
            EXPECT_EQ(in_digest, ooo_digest)
                << "design "
                << core::microcodeDesignName(design) << " seed "
                << seed;
        }
    }
}

TEST(ReplayEquivalence, MasterControllerObservablesMatch)
{
    const auto run = [](SchedulingMode mode,
                        std::size_t shared_bw) {
        core::MasterConfig cfg;
        cfg.numMces = 2;
        cfg.mce.distance = 3;
        cfg.mce.errorRates = quantum::ErrorRates::uniform(1e-3);
        cfg.mce.seed = 7;
        cfg.mce.scheduling = mode;
        cfg.sharedFetchBandwidth = shared_bw;
        core::MasterController master(cfg);
        master.runRounds(9);
        master.decodeNow();
        Digest d;
        for (std::size_t i = 0; i < master.numMces(); ++i) {
            d.mixFrame(master.mce(i).frame());
            d.mixFrame(master.mce(i).correctionLedger());
            d.mix(master.mce(i).residualErrorWeight());
            d.mix(std::uint64_t(
                master.mce(i).qeccUopsIssued()));
        }
        d.mix(std::uint64_t(master.busBytesSyndrome()));
        d.mix(std::uint64_t(master.busBytesCorrections()));
        d.mix(std::uint64_t(master.totalBusBytes()));
        return d.h;
    };

    const std::uint64_t in_digest =
        run(SchedulingMode::InOrder, 0);
    // OoO replay: identical observables.
    EXPECT_EQ(run(SchedulingMode::OutOfOrder, 0), in_digest);
    // The bandwidth arbiter is observational only: turning it on
    // must not perturb a single architectural byte, in either mode.
    EXPECT_EQ(run(SchedulingMode::InOrder, 8), in_digest);
    EXPECT_EQ(run(SchedulingMode::OutOfOrder, 8), in_digest);
}

// ---------------------------------------------------------------------------
// Master-controller edge paths under the arbiter
// ---------------------------------------------------------------------------

core::MasterConfig
arbitratedMaster(std::size_t mces, std::size_t shared_bw)
{
    core::MasterConfig cfg;
    cfg.numMces = mces;
    cfg.mce.distance = 3;
    cfg.mce.scheduling = SchedulingMode::OutOfOrder;
    cfg.sharedFetchBandwidth = shared_bw;
    return cfg;
}

TEST(ArbiterIntegration, HungTileRunsNoRoundsAndDemandsNoBandwidth)
{
    core::MasterConfig cfg = arbitratedMaster(3, 4);
    core::MasterController master(cfg);
    master.mce(1).wedge();

    master.runRounds(5);

    // The roundsRun guard: a wedged tile idles while its peers
    // advance, and the round counter never counts idle laps.
    EXPECT_EQ(master.mce(1).roundsRun(), 0u);
    EXPECT_EQ(master.mce(0).roundsRun(), 5u);
    EXPECT_EQ(master.roundsRun(), 5u);

    // ...and the arbiter granted it nothing: the shared budget
    // flows entirely to the live tiles.
    const ArbitrationResult &arb = master.lastArbitration();
    ASSERT_EQ(arb.tiles.size(), 3u);
    EXPECT_EQ(arb.tiles[1].issued, 0u);
    EXPECT_EQ(arb.tiles[1].slotsFetched, 0u);
    EXPECT_GT(arb.tiles[0].issued, 0u);
    EXPECT_GT(arb.tiles[2].issued, 0u);
    EXPECT_EQ(arb.slotsGranted,
              arb.tiles[0].slotsFetched + arb.tiles[2].slotsFetched);
}

TEST(ArbiterIntegration, QuarantinedTileRejoinsTheGrantRotation)
{
    core::MasterConfig cfg = arbitratedMaster(2, 4);
    cfg.arbiterPolicy = ArbiterPolicy::OldestFirst;
    cfg.heartbeatIntervalRounds = 4;
    cfg.watchdogMissThreshold = 2;
    core::MasterController master(cfg);
    master.mce(1).wedge();

    master.runRounds(16);

    // The watchdog quarantined and re-synced the wedged tile...
    EXPECT_GE(master.quarantineCount(), 1.0);
    EXPECT_EQ(master.resumeCount(), master.quarantineCount());
    EXPECT_FALSE(master.mce(1).hung());
    EXPECT_LT(master.mce(1).roundsRun(), master.mce(0).roundsRun());

    // ...and once resumed it is back in the rotation: the last
    // round's arbitration granted it a full program fetch.
    const ArbitrationResult &arb = master.lastArbitration();
    EXPECT_GT(arb.tiles[1].issued, 0u);
    EXPECT_EQ(arb.tiles[1].issued, arb.tiles[0].issued);
    EXPECT_EQ(arb.tiles[1].slotsFetched, arb.tiles[0].slotsFetched);
}

TEST(ArbiterIntegration, StreamingFlushUnderArbitrationMatchesOffline)
{
    // The W == S streaming cadence equals offline decode; neither
    // out-of-order issue nor the bandwidth arbiter may perturb it.
    core::MasterConfig offline_cfg;
    offline_cfg.numMces = 2;
    offline_cfg.mce.distance = 3;
    offline_cfg.mce.errorRates =
        quantum::ErrorRates{2e-3, 0, 0, 0, 2e-3};
    offline_cfg.decodeWindowRounds = 3;

    core::MasterConfig stream_cfg = offline_cfg;
    stream_cfg.streamWindowRounds = 3;
    stream_cfg.streamStrideRounds = 3; // W == S
    stream_cfg.mce.scheduling = SchedulingMode::OutOfOrder;
    stream_cfg.sharedFetchBandwidth = 4;

    core::MasterController offline(offline_cfg);
    core::MasterController streaming(stream_cfg);
    offline.runRounds(7); // not a window multiple: 1 round buffered
    streaming.runRounds(7);

    EXPECT_GT(streaming.streamer(0).lagRounds(), 0u);
    offline.decodeNow();
    streaming.decodeNow(); // end-of-shot barrier flushes the buffer
    EXPECT_EQ(streaming.streamer(0).lagRounds(), 0u);

    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(streaming.mce(i).residualErrorWeight(),
                  offline.mce(i).residualErrorWeight())
            << "tile " << i;
        Digest a, b;
        a.mixFrame(streaming.mce(i).correctionLedger());
        b.mixFrame(offline.mce(i).correctionLedger());
        EXPECT_EQ(a.h, b.h) << "tile " << i;
    }
    EXPECT_DOUBLE_EQ(streaming.busBytesSyndrome(),
                     offline.busBytesSyndrome());
}

// ---------------------------------------------------------------------------
// Mce scheduler surface
// ---------------------------------------------------------------------------

TEST(MceScheduler, LastIssuePlanRequiresAnOutOfOrderRound)
{
    MceConfig cfg;
    cfg.distance = 3;
    Mce in_order("t", cfg);
    EXPECT_THROW(in_order.lastIssuePlan(), sim::SimError);

    cfg.scheduling = SchedulingMode::OutOfOrder;
    Mce ooo("t2", cfg);
    ooo.runQeccRound();
    const TileSchedule &plan = ooo.lastIssuePlan();
    EXPECT_EQ(plan.issued,
              std::size_t(ooo.qeccUopsIssued()));
    // The plan covers every stream slot's fetch.
    EXPECT_EQ(plan.slotsFetched,
              ooo.baseSchedule().totalUopSlots());
}

TEST(MceScheduler, MaskRebuildInvalidatesThePlan)
{
    MceConfig cfg = core::tileConfigForLogicalQubits(3);
    cfg.scheduling = SchedulingMode::OutOfOrder;
    Mce mce("t", cfg);
    mce.runQeccRound();
    const std::size_t before = mce.lastIssuePlan().issued;
    mce.defineLogicalQubit(Coord{2, 2});
    mce.runQeccRound();
    // Masked qubits dropped out of the program: fewer uops planned.
    EXPECT_LT(mce.lastIssuePlan().issued, before);
}

TEST(MceScheduler, SchedulerMetricsAccumulate)
{
    auto &reg = sim::metrics::Registry::global();
    const double rounds0 =
        reg.counter("sched.replay.rounds", "").value();
    const double issued0 = reg.counter("sched.issued", "").value();

    MceConfig cfg;
    cfg.distance = 3;
    cfg.scheduling = SchedulingMode::OutOfOrder;
    Mce mce("t", cfg);
    mce.runQeccRound();
    mce.runQeccRound();

    EXPECT_EQ(reg.counter("sched.replay.rounds", "").value(),
              rounds0 + 2.0);
    // One plan served both rounds (no mask change in between).
    EXPECT_GE(reg.counter("sched.issued", "").value(),
              issued0 + mce.qeccUopsIssued() / 2.0);
}

} // namespace
