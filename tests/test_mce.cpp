/**
 * @file
 * Tests for the Microcoded Control Engine: QECC replay, masking,
 * logical instruction execution and the two-level decode loop.
 */

#include <gtest/gtest.h>

#include "core/mce.hpp"
#include "core/system.hpp"

namespace {

using namespace quest::core;
using quest::isa::LogicalInstr;
using quest::isa::LogicalOpcode;
using quest::qecc::Coord;

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

} // namespace
