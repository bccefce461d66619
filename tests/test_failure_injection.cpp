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
    cfg.mce.errorRates = quantum::ErrorRates{1e-3, 0, 0, 0, 0};
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

// --- Classical control-plane faults --------------------------------

core::MasterConfig
faultyMaster(std::size_t mces = 2)
{
    core::MasterConfig cfg;
    cfg.numMces = mces;
    cfg.mce = core::tileConfigForLogicalQubits(3);
    cfg.mce.errorRates = quantum::ErrorRates{1e-3, 0, 0, 0, 1e-3};
    return cfg;
}

TEST(ClassicalFaults, NetworkLossAndCorruptionRecoverEndToEnd)
{
    core::MasterConfig cfg = faultyMaster();
    cfg.faults.rate(sim::FaultSite::NetworkLoss) = 0.05;
    cfg.faults.rate(sim::FaultSite::NetworkCorruption) = 0.05;
    core::MasterController master(cfg);

    master.broadcastSync();
    EXPECT_NO_THROW(master.runRounds(64));
    EXPECT_EQ(master.roundsRun(), 64u);
    // Losses happened and the ARQ recovered them all: at 5%/5% the
    // 4-retry budget never runs dry in 64 rounds of traffic.
    EXPECT_GT(master.network().retransmits(), 0.0);
    EXPECT_DOUBLE_EQ(master.network().deliveryFailures(), 0.0);
    EXPECT_GT(master.network().protocolOverheadBytes(), 0.0);
}

TEST(ClassicalFaults, TotalLossEscalatesAndAbandonsButNeverWedges)
{
    quest::sim::setQuiet(true);
    core::MasterConfig cfg = faultyMaster(1);
    cfg.faults.rate(sim::FaultSite::NetworkLoss) = 1.0;
    core::MasterController master(cfg);
    EXPECT_NO_THROW(master.runRounds(8));
    master.broadcastSync();
    EXPECT_GT(master.busEscalations(), 0.0);
    EXPECT_GT(master.packetsAbandoned(), 0.0);
    quest::sim::setQuiet(false);
}

TEST(ClassicalFaults, SeuScrubRoundTrip)
{
    core::MasterConfig cfg = faultyMaster();
    cfg.faults.rate(sim::FaultSite::MicrocodeSeu) = 0.2;
    cfg.scrubIntervalRounds = 16;
    core::MasterController master(cfg);

    EXPECT_NO_THROW(master.runRounds(128));
    EXPECT_GT(master.seuInjected(), 0.0);
    EXPECT_GT(master.seuDetected(), 0.0);
    EXPECT_GT(master.scrubCount(), 0.0);
    EXPECT_GT(master.busBytesScrub(), 0.0);

    // A final scrub leaves no detectable corruption anywhere.
    master.scrubNow();
    for (std::size_t i = 0; i < master.numMces(); ++i)
        EXPECT_EQ(master.mce(i).microcodeStore().parityErrorWords(),
                  0u);
}

TEST(ClassicalFaults, SeuCorruptedReplayPerturbsTheFrameUntilScrub)
{
    // A parity-bad word mis-steers one uop per replay round, which
    // the QECC machinery must then detect and correct like any other
    // physical error.
    core::MasterConfig cfg = faultyMaster(1);
    cfg.faults.rate(sim::FaultSite::MicrocodeSeu) = 1.0;
    cfg.scrubIntervalRounds = 8;
    core::MasterController master(cfg);
    EXPECT_NO_THROW(master.runRounds(64));
    EXPECT_GT(master.mce(0).seuUopErrors(), 0.0);
    // One SEU per round floods the d=3 tile with stray uops far
    // beyond the correction guarantee; the residual may carry some
    // mis-decodes but must stay far below the injected error count
    // (each window was cleared, not accumulated).
    EXPECT_LT(double(master.mce(0).residualErrorWeight()),
              master.mce(0).seuUopErrors() / 2.0);
    EXPECT_LE(master.mce(0).residualErrorWeight(), 64u);
}

TEST(ClassicalFaults, DecoderDeadlineFallsBackToClusterDecoder)
{
    core::MasterConfig cfg = faultyMaster();
    cfg.modelDecodeDeadline = true;
    cfg.faults.rate(sim::FaultSite::DecoderOverrun) = 1.0;
    core::MasterController master(cfg);

    EXPECT_NO_THROW(master.runRounds(64));
    EXPECT_GT(master.decoderOverruns(), 0.0);
    // The union-find fallback still keeps the tiles decoded.
    for (std::size_t i = 0; i < master.numMces(); ++i)
        EXPECT_LE(master.mce(i).residualErrorWeight(), 12u);
}

/**
 * Injected overruns apply only under the deadline model: with it off,
 * an overrun rate of 1 on either decode path counts no overrun and
 * reproduces the fault-free run's bus bytes and residuals exactly.
 */
void
expectOverrunInjectionInertWithoutDeadline(core::MasterConfig plain)
{
    core::MasterConfig injected = plain;
    injected.faults.rate(sim::FaultSite::DecoderOverrun) = 1.0;
    ASSERT_FALSE(injected.modelDecodeDeadline);

    core::MasterController a(plain), b(injected);
    a.runRounds(64);
    b.runRounds(64);

    ASSERT_GT(a.busBytesSyndrome(), 0.0); // windows were decoded
    EXPECT_EQ(b.decoderOverruns(), 0.0);
    EXPECT_DOUBLE_EQ(a.totalBusBytes(), b.totalBusBytes());
    EXPECT_DOUBLE_EQ(a.busBytesSyndrome(), b.busBytesSyndrome());
    for (std::size_t i = 0; i < a.numMces(); ++i)
        EXPECT_EQ(a.mce(i).residualErrorWeight(),
                  b.mce(i).residualErrorWeight());
}

TEST(ClassicalFaults, OverrunInjectionWithoutDeadlineIsInert)
{
    expectOverrunInjectionInertWithoutDeadline(faultyMaster());
}

TEST(ClassicalFaults, StreamingOverrunInjectionWithoutDeadlineIsInert)
{
    core::MasterConfig cfg = faultyMaster();
    cfg.streamWindowRounds = 6;
    cfg.streamStrideRounds = 3;
    expectOverrunInjectionInertWithoutDeadline(cfg);
}

/**
 * The deadline model alone does not degrade a healthy tile: at
 * 1e-3 noise every d=3 window's modelled matcher time fits its
 * budget, so no decode overruns and the run matches one without
 * the model.
 */
TEST(ClassicalFaults, DeadlineModelAloneNeverOverrunsAtLowNoise)
{
    core::MasterConfig plain = faultyMaster();
    core::MasterConfig modelled = plain;
    modelled.modelDecodeDeadline = true;

    core::MasterController a(plain), b(modelled);
    a.runRounds(64);
    b.runRounds(64);

    ASSERT_GT(a.busBytesSyndrome(), 0.0); // windows were decoded
    EXPECT_EQ(b.decoderOverruns(), 0.0);
    EXPECT_DOUBLE_EQ(a.totalBusBytes(), b.totalBusBytes());
    for (std::size_t i = 0; i < a.numMces(); ++i)
        EXPECT_EQ(a.mce(i).residualErrorWeight(),
                  b.mce(i).residualErrorWeight());
}

TEST(ClassicalFaults, WatchdogQuarantinesAndResumesWedgedMce)
{
    core::MasterConfig cfg = faultyMaster();
    cfg.heartbeatIntervalRounds = 4;
    core::MasterController master(cfg);

    master.mce(1).wedge();
    EXPECT_TRUE(master.mce(1).hung());

    EXPECT_NO_THROW(master.runRounds(16));

    // Two missed heartbeats (rounds 4 and 8) trip the watchdog; the
    // tile is re-synced and resumes correcting.
    EXPECT_GE(master.heartbeatsMissed(), 2.0);
    EXPECT_GE(master.quarantineCount(), 1.0);
    EXPECT_EQ(master.resumeCount(), master.quarantineCount());
    EXPECT_FALSE(master.mce(1).hung());
    EXPECT_FALSE(master.mce(1).microcodeStore().corrupted());
    // The wedged tile idled through the first 8 rounds: it ran fewer
    // rounds than its healthy peer.
    EXPECT_LT(master.mce(1).roundsRun(), master.mce(0).roundsRun());
    // ...and the re-sync moved a full microcode image over the bus.
    EXPECT_GE(master.busBytesScrub(),
              double(master.mce(1).microcodeStore().imageBytes()));
}

TEST(ClassicalFaults, InjectedHangsAreCaughtByTheWatchdog)
{
    quest::sim::setQuiet(true);
    core::MasterConfig cfg = faultyMaster();
    cfg.faults.rate(sim::FaultSite::MceHang) = 0.02;
    cfg.heartbeatIntervalRounds = 4;
    cfg.scrubIntervalRounds = 32;
    core::MasterController master(cfg);

    EXPECT_NO_THROW(master.runRounds(256));
    EXPECT_GT(master.hangsInjected(), 0.0);
    EXPECT_EQ(master.resumeCount(), master.quarantineCount());
    EXPECT_GT(master.quarantineCount(), 0.0);
    // Everything recovered: no MCE is left hanging at the end of a
    // long run (each quarantine clears within a few heartbeats).
    master.heartbeatNow();
    master.heartbeatNow();
    for (std::size_t i = 0; i < master.numMces(); ++i)
        EXPECT_FALSE(master.mce(i).hung());
    quest::sim::setQuiet(false);
}

TEST(ClassicalFaults, FullFaultSoupCompletesWithAllCountersLive)
{
    // The acceptance scenario: network loss, SEUs, decoder overruns
    // and MCE hangs all at once, with every resilience mechanism on.
    quest::sim::setQuiet(true);
    core::MasterConfig cfg = faultyMaster();
    cfg.faults = sim::FaultConfig::uniform(0.0);
    cfg.faults.rate(sim::FaultSite::NetworkLoss) = 0.02;
    cfg.faults.rate(sim::FaultSite::NetworkCorruption) = 0.02;
    cfg.faults.rate(sim::FaultSite::MicrocodeSeu) = 0.05;
    cfg.faults.rate(sim::FaultSite::DecoderOverrun) = 0.3;
    cfg.faults.rate(sim::FaultSite::MceHang) = 0.01;
    cfg.scrubIntervalRounds = 16;
    cfg.heartbeatIntervalRounds = 8;
    cfg.modelDecodeDeadline = true;
    core::MasterController master(cfg);

    EXPECT_NO_THROW(master.runRounds(256));
    EXPECT_EQ(master.roundsRun(), 256u);
    EXPECT_GT(master.network().retransmits(), 0.0);
    EXPECT_GT(master.seuInjected(), 0.0);
    EXPECT_GT(master.decoderOverruns(), 0.0);
    EXPECT_GT(master.hangsInjected(), 0.0);
    EXPECT_GT(master.heartbeatsSent(), 0.0);
    quest::sim::setQuiet(false);
}

TEST(ClassicalFaults, FaultyRunReplaysBitForBitUnderFixedSeed)
{
    quest::sim::setQuiet(true);
    core::MasterConfig cfg = faultyMaster();
    cfg.faults = sim::FaultConfig::uniform(0.03, /*seed=*/4242);
    cfg.scrubIntervalRounds = 16;
    cfg.heartbeatIntervalRounds = 8;
    cfg.modelDecodeDeadline = true;

    core::MasterController a(cfg), b(cfg);
    a.runRounds(128);
    b.runRounds(128);

    EXPECT_DOUBLE_EQ(a.totalBusBytes(), b.totalBusBytes());
    EXPECT_DOUBLE_EQ(a.network().bytesCarried(),
                     b.network().bytesCarried());
    EXPECT_DOUBLE_EQ(a.network().retransmits(),
                     b.network().retransmits());
    EXPECT_DOUBLE_EQ(a.seuInjected(), b.seuInjected());
    EXPECT_DOUBLE_EQ(a.scrubCount(), b.scrubCount());
    EXPECT_DOUBLE_EQ(a.decoderOverruns(), b.decoderOverruns());
    EXPECT_DOUBLE_EQ(a.quarantineCount(), b.quarantineCount());
    for (std::size_t i = 0; i < a.numMces(); ++i)
        EXPECT_EQ(a.mce(i).residualErrorWeight(),
                  b.mce(i).residualErrorWeight());
    quest::sim::setQuiet(false);
}

TEST(ClassicalFaults, ZeroRatesAreBitIdenticalToSeedModel)
{
    // Pay-for-what-you-use: an all-zero FaultConfig plus enabled
    // scrub/heartbeat intervals left at zero must reproduce the
    // fault-free run exactly, byte for byte.
    core::MasterConfig plain = faultyMaster();
    core::MasterConfig zeroed = faultyMaster();
    zeroed.faults = sim::FaultConfig::none();

    core::MasterController a(plain), b(zeroed);
    a.broadcastSync();
    b.broadcastSync();
    a.runRounds(64);
    b.runRounds(64);

    EXPECT_DOUBLE_EQ(a.totalBusBytes(), b.totalBusBytes());
    EXPECT_DOUBLE_EQ(a.network().bytesCarried(),
                     b.network().bytesCarried());
    EXPECT_DOUBLE_EQ(b.network().protocolOverheadBytes(), 0.0);
    EXPECT_DOUBLE_EQ(b.busBytesScrub(), 0.0);
    EXPECT_DOUBLE_EQ(b.heartbeatsSent(), 0.0);
    for (std::size_t i = 0; i < a.numMces(); ++i)
        EXPECT_EQ(a.mce(i).residualErrorWeight(),
                  b.mce(i).residualErrorWeight());
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
