/**
 * @file
 * Soundness and tightness harness for the static timing oracle.
 *
 * The contract under test (the PR's headline artifact): for every
 * program, mode, pipeline shape and fetch grant, the TimingOracle's
 * static worst-case bound is NEVER below what the dynamic
 * scheduler actually does — checked by differential fuzzing over
 * the same seeded random-program corpus the replay-equivalence
 * harness trusts — while staying within 1.5x of the observed
 * cycles on every shipped protocol x design configuration (so the
 * bound is a usable deadline check, not just a true one).
 *
 * Four batteries:
 *  1. model pins: latency constants, grant-window arithmetic, and
 *     the in-order bound's exactness (closed form == makespan);
 *  2. single-tile soundness fuzz: 500+ random programs x designs x
 *     both modes x pipeline shapes, bound >= observed cycles and
 *     makespan in every case;
 *  3. contended soundness fuzz: N homogeneous tiles arbitrated
 *     over shared bandwidth under both policies, the contended
 *     grant bound covers every tile's observed schedule;
 *  4. contended bound: worst-case arbitration phasing stretches
 *     a round the tile alone finishes in time past its deadline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/mce.hpp"
#include "core/microcode.hpp"
#include "core/scheduler.hpp"
#include "qecc/protocol.hpp"
#include "verify/program.hpp"
#include "verify/timing.hpp"
#include "verify/verifier.hpp"

#include "random_program.hpp"

namespace {

using namespace quest;
using core::ArbiterPolicy;
using core::DynamicScheduler;
using core::SchedulerConfig;
using core::SchedulingMode;
using core::TileSchedule;
using isa::PhysOpcode;
using testutil::RandomProgram;
using testutil::artifactsFor;
using testutil::makeRandomProgram;
using verify::DependencyOracle;
using verify::FetchGrant;
using verify::TimingBound;
using verify::TimingOracle;

/** The dependency oracle of a random program. */
DependencyOracle
oracleFor(const RandomProgram &p)
{
    return DependencyOracle(*p.lattice, p.qubits(), p.subCycles);
}

/** The dependency oracle of a shipped configuration's round. */
DependencyOracle
oracleFor(const verify::TileBundle &bundle)
{
    const verify::ExpandedStream stream =
        verify::expandRam(bundle.artifacts.ram);
    return DependencyOracle(*bundle.artifacts.lattice,
                            stream.qubits, stream.subCycles);
}

// ---------------------------------------------------------------------------
// Model pins
// ---------------------------------------------------------------------------

TEST(TimingModel, MaxUopLatencyConstantPinsTheLatencyTable)
{
    // The exposed constant must stay the max over the real table.
    std::size_t longest = 0;
    for (const PhysOpcode op :
         {PhysOpcode::Nop, PhysOpcode::PrepZ, PhysOpcode::PrepX,
          PhysOpcode::MeasZ, PhysOpcode::MeasX, PhysOpcode::Hadamard,
          PhysOpcode::Phase, PhysOpcode::CnotN, PhysOpcode::CnotE,
          PhysOpcode::CnotS, PhysOpcode::CnotW,
          PhysOpcode::CnotTargetN, PhysOpcode::CnotTargetE,
          PhysOpcode::CnotTargetS, PhysOpcode::CnotTargetW})
        longest = std::max(longest, core::uopLatencyCycles(op));
    EXPECT_EQ(longest, core::kMaxUopLatencyCycles);
}

TEST(TimingModel, WorstCaseGrantWindows)
{
    // Uncontended: the tile gets its full width every cycle.
    const FetchGrant solo = verify::worstCaseGrant(
        1, 4, 16, ArbiterPolicy::RoundRobin);
    EXPECT_EQ(solo.slots, 4u);
    EXPECT_EQ(solo.cycles, 1u);

    // Bandwidth covers every tile's width: no contention at all.
    const FetchGrant wide = verify::worstCaseGrant(
        4, 4, 16, ArbiterPolicy::RoundRobin);
    EXPECT_EQ(wide.slots, 16u);
    EXPECT_EQ(wide.cycles, 4u);
    EXPECT_DOUBLE_EQ(wide.rate(), 4.0);

    // Bandwidth equals one tile's width: only the priority cycle
    // delivers, so the rate divides by the tile count.
    const FetchGrant tight = verify::worstCaseGrant(
        4, 4, 4, ArbiterPolicy::OldestFirst);
    EXPECT_EQ(tight.slots, 4u);
    EXPECT_EQ(tight.cycles, 4u);
    EXPECT_DOUBLE_EQ(tight.rate(), 1.0);

    // Partial leftover: B=6, f=4, N=2 -> priority cycle 4 plus
    // min(4, 6-4)=2 on the other cycle.
    const FetchGrant partial = verify::worstCaseGrant(
        2, 4, 6, ArbiterPolicy::RoundRobin);
    EXPECT_EQ(partial.slots, 6u);
    EXPECT_EQ(partial.cycles, 2u);
}

TEST(TimingModel, InOrderBoundIsExactOnRandomPrograms)
{
    // The in-order pipeline is closed-form: uncontended, the bound
    // must EQUAL the dynamic makespan, not just cover it.
    const DynamicScheduler sched{SchedulerConfig{}};
    const TimingOracle oracle{SchedulerConfig{}};
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const RandomProgram p = makeRandomProgram(seed);
        const DependencyOracle dep = oracleFor(p);
        const std::size_t rounds = 1 + seed % 3;
        const TimingBound b = oracle.bound(
            dep, SchedulingMode::InOrder, rounds);
        const TileSchedule dyn = sched.schedule(
            dep, SchedulingMode::InOrder, rounds);
        EXPECT_EQ(b.totalBoundCycles, dyn.makespanCycles)
            << "seed " << seed;
    }
}

TEST(TimingModel, BoundTiersAreOrdered)
{
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        const RandomProgram p = makeRandomProgram(seed);
        const DependencyOracle dep = oracleFor(p);
        for (const SchedulingMode mode :
             {SchedulingMode::InOrder, SchedulingMode::OutOfOrder}) {
            const TimingBound b =
                TimingOracle{SchedulerConfig{}}.bound(dep, mode, 2);
            EXPECT_LE(b.criticalPathCycles, b.widthBoundCycles);
            EXPECT_LE(b.widthBoundCycles, b.totalBoundCycles);
            EXPECT_EQ(b.slotsPerRound,
                      dep.depth() * dep.numQubits());
            EXPECT_EQ(b.uopsPerRound, dep.uops().size());
        }
    }
}

// ---------------------------------------------------------------------------
// Single-tile soundness fuzz (the headline differential)
// ---------------------------------------------------------------------------

TEST(TimingSoundness, FuzzBoundCoversDynamicScheduler)
{
    // 500 seeds x 2 modes x 4 pipeline shapes, and the static
    // bound is checked for all three design expansions of each
    // program (the images are equivalence-verified, so their
    // oracles must agree — this pins that the bound is a property
    // of the program, not of the storage design).
    const SchedulerConfig shapes[] = {
        SchedulerConfig{},                  // shipped default
        SchedulerConfig{1, 4, 32},          // fetch-starved
        SchedulerConfig{4, 1, 2},           // issue-starved, tiny queue
        SchedulerConfig{8, 2, 4},           // wide fetch, shallow queue
    };
    std::size_t checked = 0;
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        const RandomProgram p = makeRandomProgram(seed);
        const verify::TileArtifacts a = artifactsFor(p);
        const DependencyOracle dep = oracleFor(p);

        // Design sweep: all three expansions describe one stream.
        const verify::ExpandedStream ram = verify::expandRam(a.ram);
        const verify::ExpandedStream fifo =
            verify::expandFifo(a.fifo);
        const verify::ExpandedStream cell =
            verify::expandUnitCell(a.cell, *a.lattice);
        ASSERT_EQ(ram, fifo) << "seed " << seed;
        ASSERT_EQ(ram, cell) << "seed " << seed;

        const std::size_t rounds = 1 + seed % 3;
        for (const SchedulerConfig &cfg : shapes) {
            const DynamicScheduler sched{cfg};
            const TimingOracle oracle{cfg};
            for (const SchedulingMode mode :
                 {SchedulingMode::InOrder,
                  SchedulingMode::OutOfOrder}) {
                const TimingBound b =
                    oracle.bound(dep, mode, rounds);
                const TileSchedule dyn =
                    sched.schedule(dep, mode, rounds);
                EXPECT_GE(b.totalBoundCycles, dyn.cycles.size())
                    << "seed " << seed << " mode "
                    << core::schedulingModeName(mode)
                    << " fetch " << cfg.fetchWidth << " issue "
                    << cfg.issueWidth << " queue "
                    << cfg.queueCapacity;
                EXPECT_GE(b.totalBoundCycles, dyn.makespanCycles)
                    << "seed " << seed << " mode "
                    << core::schedulingModeName(mode);
                ++checked;
            }
        }
    }
    EXPECT_GE(checked, 500u * 2u * 4u);
}

// ---------------------------------------------------------------------------
// Contended soundness fuzz
// ---------------------------------------------------------------------------

TEST(TimingSoundness, ContendedGrantCoversArbitratedTiles)
{
    // N homogeneous copies of a random program share the fetch
    // substrate; the window-model bound must cover every tile's
    // observed schedule under both arbiter policies, at bandwidth
    // equal to one tile's width (full contention) and double it.
    const SchedulerConfig cfg{};
    const DynamicScheduler sched{cfg};
    const TimingOracle oracle{cfg};
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const RandomProgram p = makeRandomProgram(seed);
        const DependencyOracle dep = oracleFor(p);
        const std::size_t rounds = 1 + seed % 2;
        for (const std::size_t n : {std::size_t(2), std::size_t(4)})
            for (const std::size_t bw :
                 {cfg.fetchWidth, 2 * cfg.fetchWidth})
                for (const ArbiterPolicy policy :
                     {ArbiterPolicy::RoundRobin,
                      ArbiterPolicy::OldestFirst})
                    for (const SchedulingMode mode :
                         {SchedulingMode::InOrder,
                          SchedulingMode::OutOfOrder}) {
                        const FetchGrant grant =
                            verify::worstCaseGrant(
                                n, cfg.fetchWidth, bw, policy);
                        const TimingBound b = oracle.bound(
                            dep, mode, rounds, grant);
                        const std::vector<const DependencyOracle *>
                            tiles(n, &dep);
                        const std::vector<std::uint8_t> active(
                            n, 1);
                        const core::ArbitrationResult r =
                            sched.arbitrate(tiles, active, mode,
                                            bw, policy, rounds);
                        for (std::size_t i = 0; i < n; ++i) {
                            EXPECT_GE(b.totalBoundCycles,
                                      r.tiles[i].cycles.size())
                                << "seed " << seed << " n " << n
                                << " bw " << bw << " tile " << i
                                << " mode "
                                << core::schedulingModeName(mode)
                                << " policy "
                                << core::arbiterPolicyName(policy);
                            EXPECT_GE(b.totalBoundCycles,
                                      r.tiles[i].makespanCycles);
                        }
                    }
    }
}

// ---------------------------------------------------------------------------
// Tightness on shipped configurations
// ---------------------------------------------------------------------------

TEST(TimingTightness, ShippedConfigsWithinOneAndAHalf)
{
    const SchedulerConfig cfg{};
    const DynamicScheduler sched{cfg};
    const TimingOracle oracle{cfg};
    for (const qecc::Protocol protocol : qecc::allProtocols)
        for (const core::MicrocodeDesign design :
             core::allMicrocodeDesigns) {
            core::MceConfig mce;
            mce.protocol = protocol;
            mce.microcodeDesign = design;
            const verify::TileBundle bundle =
                verify::buildTileBundle(mce);
            const DependencyOracle dep = oracleFor(bundle);
            for (const SchedulingMode mode :
                 {SchedulingMode::InOrder,
                  SchedulingMode::OutOfOrder}) {
                const TimingBound b = oracle.bound(dep, mode, 1);
                const TileSchedule dyn =
                    sched.schedule(dep, mode, 1);
                const std::size_t observed = dyn.cycles.size();
                ASSERT_GT(observed, 0u);
                EXPECT_GE(b.totalBoundCycles, observed);
                EXPECT_LE(double(b.totalBoundCycles),
                          1.5 * double(observed))
                    << qecc::protocolSpec(protocol).name << " x "
                    << core::microcodeDesignName(design) << " x "
                    << core::schedulingModeName(mode)
                    << ": bound " << b.totalBoundCycles
                    << " vs observed " << observed;
            }
        }
}

// ---------------------------------------------------------------------------
// Contended bound against the round deadline
// ---------------------------------------------------------------------------

TEST(ContendedBound, PhasingStarvationMissesATightDeadline)
{
    core::MceConfig mce; // Steane d=3 unit cell
    const verify::TileBundle bundle = verify::buildTileBundle(mce);
    const DependencyOracle dep = oracleFor(bundle);
    // 8 tiles on bandwidth 8: aggregate demand fits easily, but each
    // tile's worst-case grant is one priority burst every 8 cycles,
    // stretching the round past a deadline the tile alone meets.
    const std::size_t slots = dep.depth() * dep.numQubits();
    const std::size_t deadline = 2 * slots / 8 * 8;
    const std::size_t tiles = 8;
    EXPECT_LE(double(tiles * slots) / double(deadline), 8.0);

    const SchedulerConfig cfg;
    const TimingOracle oracle(cfg);
    const TimingBound alone = oracle.bound(dep, SchedulingMode::InOrder);
    const FetchGrant grant = verify::worstCaseGrant(
        tiles, cfg.fetchWidth, 8, ArbiterPolicy::RoundRobin);
    const TimingBound contended =
        oracle.bound(dep, SchedulingMode::InOrder, 1, grant);
    EXPECT_LE(alone.totalBoundCycles, deadline);
    EXPECT_GT(contended.totalBoundCycles, deadline);
}

} // namespace
