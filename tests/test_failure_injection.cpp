/**
 * @file
 * Failure-injection and robustness tests: burst errors beyond the
 * correction guarantee, adversarial cache patterns, degenerate
 * decode cadences, trace file round-trips and corrupt inputs. The
 * system must degrade gracefully -- detect, report, never corrupt
 * its own state or crash.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/system.hpp"
#include "decode/cluster_decoder.hpp"
#include "isa/trace.hpp"
#include "qecc/memory_experiment.hpp"
#include "tech/parameters.hpp"

namespace {

using namespace quest;

TEST(FailureInjection, BurstBeyondGuaranteeIsDetectedNotFatal)
{
    // A correlated burst (cosmic-ray-like) wipes a whole row of
    // data qubits: far beyond floor((d-1)/2). The decoder must
    // still return the system to the code space (possibly with a
    // logical error), never crash or leave residual syndrome.
    const qecc::MemoryExperiment exp(5);
    const qecc::Lattice &lattice = exp.lattice();
    const qecc::SyndromeExtractor &extractor = exp.extractor();
    const decode::MwpmDecoder decoder(lattice);

    quantum::PauliFrame frame(lattice.numQubits());
    for (const qecc::Coord c : lattice.sites(qecc::SiteType::Data))
        if (c.row == 4)
            frame.injectX(lattice.index(c));

    const auto history = extractor.runRounds(frame, nullptr, 1);
    const auto events =
        decode::extractDetectionEvents(history, extractor);
    decode::applyCorrection(frame, decoder.decode(events));
    EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
}

TEST(FailureInjection, RepeatedBurstsDoNotAccumulateSyndrome)
{
    // Hit the same MCE with bursts every window for many windows;
    // the pipeline must keep clearing the syndrome each time.
    core::MceConfig cfg;
    cfg.distance = 5;
    core::Mce mce("mce", cfg);
    decode::MwpmDecoder global(mce.lattice());

    sim::Rng rng(17);
    for (int burst = 0; burst < 20; ++burst) {
        // Three-error burst in a random corner.
        for (int k = 0; k < 3; ++k) {
            const auto data =
                mce.lattice().sites(qecc::SiteType::Data);
            mce.frame().injectX(mce.lattice().index(
                data[rng.uniformInt(data.size())]));
        }
        for (std::size_t r = 0; r < cfg.distance; ++r)
            mce.runQeccRound();
        const auto residual = mce.collectResidualEvents();
        if (residual.total())
            mce.applyCorrection(global.decode(residual));
    }
    // Three-error bursts exceed the d=5 guarantee of two, so some
    // bursts decode to syndrome-free-but-wrong chains. The residual
    // must stay well below the 60 injected errors (each window was
    // cleared), not accumulate linearly.
    EXPECT_LE(mce.residualErrorWeight(), 20u);
}

TEST(FailureInjection, SaturatedErrorRateDoesNotWedgeTheSystem)
{
    // p far above threshold: decoding is hopeless, but the system
    // must keep cycling and accounting without throwing.
    core::MasterConfig cfg;
    cfg.numMces = 1;
    cfg.mce.distance = 3;
    cfg.mce.errorRates = quantum::ErrorRates::uniform(0.05);
    core::MasterController master(cfg);
    EXPECT_NO_THROW(master.runRounds(100));
    EXPECT_EQ(master.roundsRun(), 100u);
    EXPECT_GT(master.busBytesSyndrome(), 0.0);
}

TEST(FailureInjection, DecodeEveryRoundIsValid)
{
    // Degenerate cadence: window of one round.
    core::MasterConfig cfg;
    cfg.numMces = 1;
    cfg.mce.distance = 3;
    cfg.decodeWindowRounds = 1;
    cfg.mce.errorRates = quantum::ErrorRates{.idle = 1e-3};
    core::MasterController master(cfg);
    EXPECT_NO_THROW(master.runRounds(200));
    EXPECT_LE(master.mce(0).residualErrorWeight(), 3u);
}

TEST(FailureInjection, ICacheThrashingPatternStillCorrect)
{
    // More distinct blocks than the cache holds, accessed
    // round-robin: worst-case thrashing. Accounting must equal
    // all-miss behaviour exactly.
    core::LogicalInstructionCache cache(300);
    const isa::LogicalTrace block =
        isa::generateDistillationRound(0); // 148 instructions
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint32_t id = 0; id < 3; ++id)
            EXPECT_FALSE(cache.execute(id, block).hit);
    EXPECT_DOUBLE_EQ(cache.misses(), 12.0);
    EXPECT_DOUBLE_EQ(cache.busBytes(), 12.0 * block.bytes());
}

TEST(TraceFile, SaveLoadRoundTrip)
{
    isa::TraceGenConfig cfg;
    cfg.numInstructions = 500;
    cfg.logicalQubits = 8;
    const isa::LogicalTrace original =
        isa::generateApplicationTrace(cfg);

    const std::string path = "/tmp/quest_trace_test.bin";
    original.saveBinary(path);
    const isa::LogicalTrace loaded = isa::LogicalTrace::loadBinary(path);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        ASSERT_EQ(loaded.at(i), original.at(i));
    std::remove(path.c_str());
}

TEST(TraceFile, MissingFileIsFatalNotUndefined)
{
    quest::sim::setQuiet(true);
    EXPECT_THROW(isa::LogicalTrace::loadBinary(
                     "/tmp/quest_no_such_trace.bin"),
                 quest::sim::SimError);
    quest::sim::setQuiet(false);
}

TEST(TraceFile, CorruptMagicIsRejected)
{
    quest::sim::setQuiet(true);
    const std::string path = "/tmp/quest_corrupt_trace.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace at all", f);
    std::fclose(f);
    EXPECT_THROW(isa::LogicalTrace::loadBinary(path),
                 quest::sim::SimError);
    std::remove(path.c_str());
    quest::sim::setQuiet(false);
}

TEST(FailureInjection, ClusterDecoderSurvivesDenseEvents)
{
    // Dense event soup (every other check fires): cluster growth
    // must converge and return a syndrome-consistent correction.
    const qecc::MemoryExperiment exp(5);
    const qecc::Lattice &lattice = exp.lattice();
    const qecc::SyndromeExtractor &extractor = exp.extractor();
    const decode::MwpmDecoder matcher(lattice);
    const decode::ClusterDecoder decoder(matcher);

    quantum::PauliFrame frame(lattice.numQubits());
    const auto data = lattice.sites(qecc::SiteType::Data);
    for (std::size_t i = 0; i < data.size(); i += 2)
        frame.injectX(lattice.index(data[i]));

    const auto history = extractor.runRounds(frame, nullptr, 1);
    const auto events =
        decode::extractDetectionEvents(history, extractor);
    decode::applyCorrection(frame, decoder.decode(events));
    EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
}

} // namespace
