/**
 * @file
 * Tests for the Microcoded Control Engine: QECC replay, masking,
 * logical instruction execution and the two-level decode loop.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/mce.hpp"
#include "core/system.hpp"
#include "qecc/braiding.hpp"
#include "sim/fault_injector.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace quest::core;
using quest::isa::LogicalInstr;
using quest::isa::LogicalOpcode;
using quest::qecc::Coord;

// The noise channel draws from the tile's own RNG and streamers hold
// its extractor's address: a copied or moved tile would leave both
// pointing into the original.
static_assert(!std::is_copy_constructible_v<Mce>
              && !std::is_move_constructible_v<Mce>
              && !std::is_copy_assignable_v<Mce>
              && !std::is_move_assignable_v<Mce>);

MceConfig
smallConfig()
{
    MceConfig cfg;
    cfg.distance = 3;
    return cfg; // 5x5 tile, noiseless, unit-cell microcode
}

TEST(Mce, NoiselessRoundsProduceNoSyndrome)
{
    Mce mce("mce0", smallConfig());
    for (int r = 0; r < 5; ++r)
        EXPECT_FALSE(mce.runQeccRound().any());
    EXPECT_EQ(mce.roundsRun(), 5u);
}

TEST(Mce, RoundStreamsUopForEveryQubitEverySubCycle)
{
    Mce mce("mce0", smallConfig());
    mce.runQeccRound();
    const auto &spec = quest::qecc::protocolSpec(
        smallConfig().protocol);
    const double expected_latches =
        double(spec.depth() * mce.lattice().numQubits());
    // Exec unit latched one uop per qubit per sub-cycle.
    const double latches =
        mce.qeccUopsIssued(); // non-NOP only; must be <= slots
    EXPECT_LE(latches, expected_latches);
    EXPECT_GT(latches, 0.0);
    EXPECT_GT(mce.microcodeBitsStreamed(), 0.0);
}

TEST(Mce, InjectedErrorIsDetectedAndLocallyDecoded)
{
    Mce mce("mce0", smallConfig());
    // Clean window first.
    mce.runQeccRound();
    auto clean = mce.collectResidualEvents();
    EXPECT_EQ(clean.total(), 0u);

    // Inject an isolated interior error.
    mce.frame().injectX(mce.lattice().index(Coord{2, 2}));
    mce.runQeccRound();
    auto residual = mce.collectResidualEvents();
    // The LUT resolves the isolated pair locally: no residual.
    EXPECT_EQ(residual.total(), 0u);
    EXPECT_GT(mce.eventsResolvedLocally(), 0.0);
    // Ledger now cancels the physical error.
    EXPECT_EQ(mce.residualErrorWeight(), 0u);
}

TEST(Mce, CorrectionLedgerIsNotExecutedOnQubits)
{
    // Appendix A.2: corrections accumulate classically; the frame
    // keeps reporting the error, and the ledger cancels it.
    Mce mce("mce0", smallConfig());
    mce.frame().injectX(mce.lattice().index(Coord{2, 2}));
    mce.runQeccRound();
    mce.collectResidualEvents();
    EXPECT_TRUE(mce.frame().xError(mce.lattice().index(Coord{2, 2})));
    EXPECT_TRUE(mce.correctionLedger().xError(
        mce.lattice().index(Coord{2, 2})));
    EXPECT_EQ(mce.residualErrorWeight(), 0u);
}

TEST(Mce, LogicalQubitMasksAncillas)
{
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    EXPECT_EQ(mce.maskTable().maskedQubitCount(), 0u);

    const int id = mce.defineLogicalQubit(Coord{2, 2});
    EXPECT_EQ(mce.logicalQubitCount(), 1u);
    EXPECT_GT(mce.maskTable().maskedQubitCount(), 0u);

    mce.releaseLogicalQubit(id);
    EXPECT_EQ(mce.maskTable().maskedQubitCount(), 0u);
}

TEST(Mce, MaskedAncillasStaySilent)
{
    // An error inside a masked region must NOT produce a syndrome:
    // that is exactly what "disabling error correction" means.
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    mce.defineLogicalQubit(Coord{2, 2});

    // Inject an error on a data qubit inside defect A.
    mce.frame().injectX(mce.lattice().index(Coord{3, 3}));
    const auto &round = mce.runQeccRound();
    EXPECT_FALSE(round.any());

    // The same error outside any mask is detected.
    mce.frame().injectX(mce.lattice().index(Coord{3, 3})); // cancel
    const std::size_t far_col = cfg.latticeCols - 2;
    mce.frame().injectX(mce.lattice().index(
        Coord{3, int(far_col)}));
    EXPECT_TRUE(mce.runQeccRound().any());
}

TEST(Mce, TransverseInstructionTouchesFootprint)
{
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    const int id = mce.defineLogicalQubit(Coord{2, 2});
    const double before = mce.logicalUopsIssued();
    mce.executeLogical(LogicalInstr{LogicalOpcode::Hadamard,
                                    std::uint16_t(id)});
    EXPECT_GT(mce.logicalUopsIssued(), before);
}

TEST(Mce, MaskInstructionReshapesBoundary)
{
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    const int id = mce.defineLogicalQubit(Coord{2, 2});
    const std::size_t before = mce.maskTable().maskedQubitCount();

    mce.executeLogical(LogicalInstr{LogicalOpcode::MaskExpand,
                                    std::uint16_t(id)});
    EXPECT_GT(mce.maskTable().maskedQubitCount(), before);

    mce.executeLogical(LogicalInstr{LogicalOpcode::MaskContract,
                                    std::uint16_t(id)});
    EXPECT_EQ(mce.maskTable().maskedQubitCount(), before);
}

TEST(Mce, DroppedMaskInstructionLeavesStateIntact)
{
    quest::sim::setQuiet(true);
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    const int id = mce.defineLogicalQubit(Coord{2, 2});
    // Walk the qubit east until further moves must be dropped, then
    // keep pushing: the mask must converge instead of corrupting.
    for (int i = 0; i < 40; ++i)
        mce.executeLogical(LogicalInstr{LogicalOpcode::MaskMove,
                                        std::uint16_t(id)});
    const std::size_t settled = mce.maskTable().maskedQubitCount();
    EXPECT_GT(settled, 0u);
    for (int i = 0; i < 5; ++i)
        mce.executeLogical(LogicalInstr{LogicalOpcode::MaskMove,
                                        std::uint16_t(id)});
    EXPECT_EQ(mce.maskTable().maskedQubitCount(), settled);
    EXPECT_EQ(mce.logicalQubitCount(), 1u);
    quest::sim::setQuiet(false);
}

TEST(Mce, UnknownLogicalQubitPanics)
{
    quest::sim::setQuiet(true);
    Mce mce("mce0", smallConfig());
    EXPECT_THROW(mce.executeLogical(
                     LogicalInstr{LogicalOpcode::Hadamard, 9}),
                 quest::sim::SimError);
    quest::sim::setQuiet(false);
}

TEST(Mce, NoisyRunConvergesWithDecoding)
{
    MceConfig cfg = smallConfig();
    cfg.distance = 5;
    cfg.errorRates = quest::quantum::ErrorRates{1e-3, 0, 0, 0, 0};
    cfg.seed = 42;
    Mce mce("mce0", cfg);
    quest::decode::MwpmDecoder global(mce.lattice());

    for (int window = 0; window < 40; ++window) {
        for (std::size_t r = 0; r < cfg.distance; ++r)
            mce.runQeccRound();
        const auto residual = mce.collectResidualEvents();
        if (residual.total())
            mce.applyCorrection(global.decode(residual));
    }
    // With p=1e-3 on a d=5 tile, decoding keeps residual weight low
    // (no runaway accumulation).
    EXPECT_LE(mce.residualErrorWeight(), 3u);
}

TEST(Mce, TileStatsVisitEmitsTheFourRowsInOrder)
{
    const TileStats stats{ 11, 22, 33, 44 };
    std::vector<std::pair<std::string, double>> seen;
    stats.visitValues([&](const std::string &name, double v) {
        seen.emplace_back(name, v);
    });
    const std::vector<std::pair<std::string, double>> want = {
        { "exec_unit.latches", 11.0 },
        { "exec_unit.master_clocks", 22.0 },
        { "exec_unit.fired_instructions", 33.0 },
        { "mask_table.writes", 44.0 },
    };
    EXPECT_EQ(seen, want);
}

TEST(Mce, TileStatsAreTheTilesShareOfTheRows)
{
    // Two tiles doing different work: each tile's stats() is its own
    // count, and each row it names moves by the two tiles' sum.
    auto &reg = quest::sim::metrics::Registry::global();
    const char *const names[] = { "exec_unit.latches",
                                  "exec_unit.master_clocks",
                                  "exec_unit.fired_instructions",
                                  "mask_table.writes" };
    const MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce busy("mce0", cfg);
    Mce idle("mce1", cfg);
    std::vector<std::uint64_t> before;
    for (const char *name : names)
        before.push_back(reg.counter(name, "").value());

    busy.defineLogicalQubit(Coord{2, 2});
    for (int r = 0; r < 3; ++r)
        busy.runQeccRound();
    idle.runQeccRound();

    const TileStats b = busy.stats();
    const TileStats i = idle.stats();
    EXPECT_GT(b.latches, i.latches);
    EXPECT_GT(b.maskWrites, i.maskWrites);
    const std::uint64_t sums[] = { b.latches + i.latches,
                                   b.masterClocks + i.masterClocks,
                                   b.fired + i.fired,
                                   b.maskWrites + i.maskWrites };
    for (std::size_t k = 0; k < std::size(names); ++k)
        EXPECT_EQ(reg.counter(names[k], "").value() - before[k], sums[k])
            << names[k];
}

TEST(Mce, LocallyResolvedEventsFeedTheTileRow)
{
    auto &row = quest::sim::metrics::Registry::global().counter(
        "mce_events.events_local", "");
    Mce mce("mce_events", smallConfig());
    const std::uint64_t before = row.value();
    mce.frame().injectX(mce.lattice().index(Coord{2, 2}));
    mce.runQeccRound();
    mce.collectResidualEvents();
    EXPECT_GT(mce.eventsResolvedLocally(), 0.0);
    EXPECT_EQ(double(row.value() - before), mce.eventsResolvedLocally());
}

TEST(Mce, ExtractorAddressSurvivesMaskEdits)
{
    // Streaming decoders keep a reference to the tile extractor, so
    // no mask edit may replace it.
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    const auto *extractor = &mce.extractor();

    const int id = mce.defineLogicalQubit(Coord{2, 2});
    EXPECT_EQ(&mce.extractor(), extractor);
    for (const LogicalOpcode op :
         { LogicalOpcode::MaskExpand, LogicalOpcode::MaskMove,
           LogicalOpcode::MaskContract }) {
        mce.executeLogical(LogicalInstr{op, std::uint16_t(id)});
        EXPECT_EQ(&mce.extractor(), extractor);
    }
    mce.releaseLogicalQubit(id);
    EXPECT_EQ(&mce.extractor(), extractor);
}

TEST(Mce, ReleasedMaskRestoresDetection)
{
    // After release the in-place rebuild must drop the blanked uops:
    // an error where the defect was is detected again.
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    const int id = mce.defineLogicalQubit(Coord{2, 2});
    mce.releaseLogicalQubit(id);

    mce.frame().injectX(mce.lattice().index(Coord{3, 3}));
    EXPECT_TRUE(mce.runQeccRound().any());
}

TEST(Mce, MaskRoundTripReplaysUnmaskedNoise)
{
    // Defining and releasing a logical qubit recompiles back to the
    // unmasked program, so a noisy tile reproduces the syndromes of
    // a twin that never masked anything.
    MceConfig cfg = tileConfigForLogicalQubits(3);
    cfg.errorRates = quest::quantum::ErrorRates{2e-3, 0, 0, 0, 2e-3};
    cfg.seed = 9;
    Mce edited("mce0", cfg);
    Mce twin("mce1", cfg);
    edited.releaseLogicalQubit(edited.defineLogicalQubit(Coord{2, 2}));

    for (int r = 0; r < 30; ++r) {
        const auto a = edited.runQeccRound();
        const auto &b = twin.runQeccRound();
        ASSERT_EQ(a.xFlips, b.xFlips) << "round " << r;
        ASSERT_EQ(a.zFlips, b.zFlips) << "round " << r;
    }
}

// ---------------------------------------------------------------------------
// Per-epoch replay charges vs the per-slot reference loop
// ---------------------------------------------------------------------------

using quest::isa::PhysOpcode;
using quest::qecc::RoundSchedule;

/**
 * The per-slot replay loop the MCE once ran every round, kept as the
 * reference for its per-epoch charges: a switch latch array, and a
 * master clock that fires every latched non-Nop uop.
 */
struct ReferenceReplay
{
    explicit ReferenceReplay(const MceConfig &config,
                             std::size_t qubits)
        : cfg(config), latched(qubits, PhysOpcode::Nop)
    {}

    MceConfig cfg;
    std::vector<PhysOpcode> latched;
    std::uint64_t latches = 0, clocks = 0, fired = 0;
    std::uint64_t uops = 0, bits = 0, rounds = 0;
    std::uint64_t hungRounds = 0, seuErrors = 0;
    std::uint64_t schedRounds = 0, schedCycles = 0;

    void
    latch(std::size_t q, PhysOpcode op)
    {
        latched.at(q) = op;
        ++latches;
    }

    void
    masterClock()
    {
        ++clocks;
        for (const PhysOpcode op : latched)
            if (op != PhysOpcode::Nop)
                ++fired;
    }

    /** Replay one round of the masked program `sched`. */
    void
    round(const RoundSchedule &sched)
    {
        const std::size_t n = latched.size();
        const std::size_t uop_bits =
            MicrocodeModel(sched.spec(), cfg.technology)
                .uopBits(cfg.microcodeDesign, n);
        ++rounds;
        if (cfg.scheduling == SchedulingMode::InOrder) {
            for (std::size_t s = 0; s < sched.depth(); ++s) {
                const auto &sc = sched.subCycle(s);
                for (std::size_t q = 0; q < n; ++q) {
                    latch(q, sc.uops[q]);
                    if (sc.uops[q] != PhysOpcode::Nop)
                        ++uops;
                }
                bits += n * uop_bits;
                masterClock();
            }
            return;
        }
        const auto oracle =
            quest::verify::DependencyOracle::fromSchedule(sched);
        const TileSchedule plan = DynamicScheduler(cfg.sched).schedule(
            oracle, SchedulingMode::OutOfOrder, 1);
        for (const auto &issue_cycle : plan.cycles) {
            if (issue_cycle.empty())
                continue;
            for (const std::uint32_t id : issue_cycle)
                latch(oracle.uops()[id].qubit, oracle.uops()[id].op);
            masterClock();
            for (const std::uint32_t id : issue_cycle)
                latched[oracle.uops()[id].qubit] = PhysOpcode::Nop;
            uops += issue_cycle.size();
        }
        bits += plan.slotsFetched * uop_bits;
        ++schedRounds;
        schedCycles += plan.cycles.size();
    }
};

/** The program an Mce replays under `mask`: base with masked
 *  qubits' uops blanked. */
RoundSchedule
maskedProgram(const RoundSchedule &base, const MaskTable &mask)
{
    RoundSchedule out(base.lattice(), base.spec());
    for (std::size_t s = 0; s < base.depth(); ++s) {
        auto sc = base.subCycle(s);
        for (std::size_t q = 0; q < sc.uops.size(); ++q)
            if (mask.masked(q))
                sc.uops[q] = PhysOpcode::Nop;
        out.addSubCycle(std::move(sc));
    }
    return out;
}

/** A registry counter's current value. */
std::uint64_t
counter(const char *name)
{
    return quest::sim::metrics::Registry::global()
        .counter(name, "")
        .value();
}

/** One of the tile's TileStats counts, by its registry row name. */
double
statValue(Mce &mce, const std::string &name)
{
    double out = -1.0;
    mce.stats().visitValues([&](const std::string &n, double v) {
        if (n == name)
            out = v;
    });
    return out;
}

class ReplayCharges
    : public ::testing::TestWithParam<
          std::tuple<SchedulingMode, MicrocodeDesign>>
{};

TEST_P(ReplayCharges, MatchThePerSlotReferenceEveryRound)
{
    const auto [mode, design] = GetParam();
    MceConfig cfg;
    cfg.distance = 3;
    cfg.latticeRows = 17; // room to braid two logical qubits
    cfg.latticeCols = 15;
    cfg.microcodeDesign = design;
    cfg.scheduling = mode;
    cfg.errorRates = quest::quantum::ErrorRates{1e-3, 0, 0, 0, 1e-3};
    cfg.seed = 11;

    const char *registry[] = {
        "mce.replay.rounds",         "mce.replay.uops",
        "mce.replay.microcode_bits", "mce.replay.hung_rounds",
        "mce.replay.seu_uop_errors", "sched.replay.rounds",
        "sched.replay.cycles"};
    std::vector<std::uint64_t> base;
    for (const char *name : registry)
        base.push_back(counter(name));

    Mce mce("mce0", cfg);
    quest::sim::FaultInjector faults;
    mce.attachFaults(&faults);
    ReferenceReplay ref(cfg, mce.lattice().numQubits());

    const auto check = [&](const std::string &where) {
        SCOPED_TRACE(where);
        EXPECT_EQ(statValue(mce, "exec_unit.latches"),
                  double(ref.latches));
        EXPECT_EQ(statValue(mce, "exec_unit.master_clocks"),
                  double(ref.clocks));
        EXPECT_EQ(statValue(mce, "exec_unit.fired_instructions"),
                  double(ref.fired));
        EXPECT_EQ(mce.qeccUopsIssued(), double(ref.uops));
        EXPECT_EQ(mce.microcodeBitsStreamed(), double(ref.bits));
        const std::uint64_t want[] = {
            ref.rounds,     ref.uops,        ref.bits,
            ref.hungRounds, ref.seuErrors,   ref.schedRounds,
            ref.schedCycles};
        for (std::size_t i = 0; i < base.size(); ++i)
            EXPECT_EQ(counter(registry[i]) - base[i], want[i])
                << registry[i];
    };
    const auto step = [&](const std::string &where) {
        if (mce.hung()) {
            ++ref.hungRounds;
        } else {
            ref.seuErrors += mce.microcodeStore().parityErrorWords();
            ref.round(mce.maskedSchedule());
        }
        mce.runQeccRound();
        check(where);
    };
    const auto logical = [&](LogicalOpcode op, int id) {
        // A transverse uop drops its qubit's switch back to Nop: one
        // latch per logical uop, no master clock.
        const double before = mce.logicalUopsIssued();
        mce.executeLogical(LogicalInstr{op, std::uint16_t(id)});
        if (quest::isa::isTransverse(op))
            ref.latches +=
                std::uint64_t(mce.logicalUopsIssued() - before);
    };

    step("unmasked");
    step("unmasked again");
    const Coord control_anchor{2, 6};
    const Coord target_anchor{10, 6};
    const int control = mce.defineLogicalQubit(control_anchor);
    step("one logical qubit");
    const int target = mce.defineLogicalQubit(target_anchor);
    step("two logical qubits");
    logical(LogicalOpcode::Hadamard, control);
    logical(LogicalOpcode::PrepZ, target);
    step("after transverse ops");

    // The braid replays d rounds per step under masks this test
    // rebuilds from the same plan the MCE follows.
    {
        const quest::qecc::LogicalQubit c(mce.lattice(),
                                          control_anchor,
                                          cfg.distance);
        const quest::qecc::LogicalQubit t(mce.lattice(),
                                          target_anchor, cfg.distance);
        const std::size_t moving = 1; // contracted to thread d = 3
        const quest::qecc::BraidPlanner planner(mce.lattice());
        const quest::qecc::BraidPlan plan = planner.planLoop(
            quest::qecc::MaskSquare{c.defectA().topLeft, moving},
            t.defectA());
        for (std::size_t i = 1; i < plan.positions.size(); ++i) {
            quest::qecc::LogicalQubit at = c;
            at.setDefectA(
                quest::qecc::MaskSquare{plan.positions[i], moving});
            MaskTable mask(mce.lattice(), cfg.maskLayout, cfg.distance);
            mask.apply(at, true);
            mask.apply(t, true);
            const RoundSchedule program =
                maskedProgram(mce.baseSchedule(), mask);
            for (std::size_t r = 0; r < cfg.distance; ++r)
                ref.round(program);
        }
        ASSERT_EQ(mce.braidCnot(control, target), plan.steps());
        check("after braid");
    }

    mce.releaseLogicalQubit(target);
    step("target released");
    const double writes = mce.maskTable().writeCount();
    logical(LogicalOpcode::MaskExpand, control);
    EXPECT_GT(mce.maskTable().writeCount(), writes);
    step("after MaskExpand");
    mce.releaseLogicalQubit(control);
    const int moved = mce.defineLogicalQubit(Coord{2, 2});
    step("redefined");
    const double before_move = mce.maskTable().writeCount();
    logical(LogicalOpcode::MaskMove, moved);
    EXPECT_GT(mce.maskTable().writeCount(), before_move);
    step("after MaskMove");

    mce.wedge();
    step("wedged");
    step("still wedged");
    mce.recover();
    step("recovered");

    quest::sim::Rng flips(5);
    mce.microcodeStore().flipRandomBit(flips);
    ASSERT_GT(mce.microcodeStore().parityErrorWords(), 0u);
    step("SEU-corrupted word");
    step("SEU persists");
    mce.recover(); // the master's scrub rewrite
    step("scrubbed");
    EXPECT_GT(ref.seuErrors, 0u);
}

std::string
chargeCaseName(const ::testing::TestParamInfo<
               std::tuple<SchedulingMode, MicrocodeDesign>> &info)
{
    const char *designs[] = {"Ram", "Fifo", "UnitCell"};
    return std::string(std::get<0>(info.param) == SchedulingMode::InOrder
                           ? "InOrder"
                           : "OutOfOrder")
        + designs[int(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndDesigns, ReplayCharges,
    ::testing::Combine(::testing::Values(SchedulingMode::InOrder,
                                         SchedulingMode::OutOfOrder),
                       ::testing::ValuesIn(allMicrocodeDesigns)),
    chargeCaseName);

} // namespace
