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

// --- Classical control-plane faults --------------------------------

core::MasterConfig
faultyMaster(std::size_t mces = 2)
{
    core::MasterConfig cfg;
    cfg.numMces = mces;
    cfg.mce = core::tileConfigForLogicalQubits(3);
    cfg.mce.errorRates = quantum::ErrorRates{.idle = 1e-3, .meas = 1e-3};
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
    cfg.faults.rate(sim::FaultSite::DecoderOverrun) = 1.0;
    core::MasterController master(cfg);

    EXPECT_NO_THROW(master.runRounds(64));
    EXPECT_GT(master.decoderOverruns(), 0.0);
    // The union-find fallback still keeps the tiles decoded.
    for (std::size_t i = 0; i < master.numMces(); ++i)
        EXPECT_LE(master.mce(i).residualErrorWeight(), 12u);
}

TEST(ClassicalFaults, WatchdogQuarantinesAndResumesWedgedMce)
{
    // Fault-free, so the watchdog runs only when asked: one sweep
    // every 4 rounds.
    core::MasterController master(faultyMaster());

    master.mce(1).wedge();
    EXPECT_TRUE(master.mce(1).hung());

    for (int sweep = 0; sweep < 4; ++sweep) {
        EXPECT_NO_THROW(master.runRounds(4));
        master.heartbeatNow();
    }

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

/** Every bus-byte category of a master, in ledger order. */
std::vector<double>
busCategories(const core::MasterController &m)
{
    return { m.busBytesLogical(),     m.busBytesSync(),
             m.busBytesSyndrome(),    m.busBytesCorrections(),
             m.busBytesCacheTraffic(), m.busBytesScrub() };
}

/** Identical quantum state: every tile's frame and ledger words. */
void
expectSameTiles(core::MasterController &a, core::MasterController &b)
{
    ASSERT_EQ(a.numMces(), b.numMces());
    for (std::size_t i = 0; i < a.numMces(); ++i) {
        core::Mce &ta = a.mce(i);
        core::Mce &tb = b.mce(i);
        EXPECT_EQ(ta.frame().xWords(), tb.frame().xWords()) << i;
        EXPECT_EQ(ta.frame().zWords(), tb.frame().zWords()) << i;
        EXPECT_EQ(ta.correctionLedger().xWords(),
                  tb.correctionLedger().xWords()) << i;
        EXPECT_EQ(ta.correctionLedger().zWords(),
                  tb.correctionLedger().zWords()) << i;
    }
}

/** A workload touching every bus category but the scrub path. */
void
driveMaster(core::MasterController &m)
{
    m.mce(0).defineLogicalQubit(qecc::Coord{2, 2});
    m.dispatch(isa::LogicalInstr{isa::LogicalOpcode::Hadamard, 0});
    m.dispatchBlock(1, 0, isa::generateDistillationRound(0));
    m.broadcastSync();
    m.runRounds(128);
    m.decodeNow();
}

TEST(ClassicalFaults, ZeroRatesAreBitIdenticalToSeedModel)
{
    // Pay-for-what-you-use: an all-zero FaultConfig, whatever its
    // seed, reproduces the default master exactly: no scrub, no
    // heartbeat, no deadline model, no ARQ overhead.
    core::MasterConfig zeroed = faultyMaster();
    zeroed.faults = sim::FaultConfig::uniform(0.0, /*seed=*/99);

    core::MasterController a(faultyMaster()), b(zeroed);
    driveMaster(a);
    driveMaster(b);

    ASSERT_GT(a.busBytesSyndrome(), 0.0); // windows were decoded
    EXPECT_EQ(busCategories(a), busCategories(b));
    EXPECT_DOUBLE_EQ(a.network().bytesCarried(),
                     b.network().bytesCarried());
    EXPECT_DOUBLE_EQ(b.network().protocolOverheadBytes(), 0.0);
    EXPECT_DOUBLE_EQ(b.busBytesScrub(), 0.0);
    EXPECT_DOUBLE_EQ(b.heartbeatsSent(), 0.0);
    EXPECT_DOUBLE_EQ(b.decoderOverruns(), 0.0);
    expectSameTiles(a, b);
}

TEST(ClassicalFaults, AnyEnabledSiteTurnsOnTheRecoveryCadence)
{
    // Enabling any one site switches on the watchdog, the scrub
    // loop and the deadline model together. The rate is far too
    // small to fire in this run, so the recovery traffic is exactly
    // the cadence's: a heartbeat and its answer per tile every 16
    // rounds and a parity poll per tile every 64. At this noise no
    // modelled decode overruns, so the decode traffic and every
    // tile's state match the fault-free run.
    static_assert(core::faultHeartbeatIntervalRounds == 16);
    static_assert(core::faultScrubIntervalRounds == 64);
    core::MasterController plain(faultyMaster());
    driveMaster(plain);
    const double tiles = double(plain.numMces());
    const double sweeps = double(plain.roundsRun() / 16);
    const double polls = double(plain.roundsRun() / 64);
    const double token = double(tech::logicalInstrBytes);

    for (const sim::FaultSite site : sim::allFaultSites) {
        SCOPED_TRACE(sim::faultSiteName(site));
        core::MasterConfig cfg = faultyMaster();
        cfg.faults.rate(site) = 1e-12;
        core::MasterController m(cfg);
        driveMaster(m);

        EXPECT_DOUBLE_EQ(m.heartbeatsSent(), tiles * sweeps);
        EXPECT_DOUBLE_EQ(m.heartbeatsMissed(), 0.0);
        EXPECT_DOUBLE_EQ(m.busBytesSync() - plain.busBytesSync(),
                         tiles * sweeps * 2 * token);
        EXPECT_DOUBLE_EQ(m.busBytesScrub(), tiles * polls * token);
        EXPECT_DOUBLE_EQ(m.scrubCount(), 0.0);
        EXPECT_DOUBLE_EQ(m.decoderOverruns(), 0.0);
        EXPECT_DOUBLE_EQ(m.busBytesSyndrome(), plain.busBytesSyndrome());
        EXPECT_DOUBLE_EQ(m.busBytesCorrections(),
                         plain.busBytesCorrections());
        expectSameTiles(plain, m);
    }
}

TEST(ClassicalFaults, DeadlineIsModelledOnlyWhileASiteIsEnabled)
{
    // Noise heavy enough that the modelled matcher time overruns the
    // d=3 window: a fault-free master never degrades a decode, and
    // the same master with any site enabled does, though the site
    // itself never fires.
    core::MasterConfig cfg = faultyMaster();
    cfg.mce.errorRates = quantum::ErrorRates{.idle = 5e-2, .meas = 5e-2};
    core::MasterController plain(cfg);
    cfg.faults.rate(sim::FaultSite::MceHang) = 1e-12;
    core::MasterController enabled(cfg);
    plain.runRounds(30);
    enabled.runRounds(30);

    EXPECT_DOUBLE_EQ(plain.decoderOverruns(), 0.0);
    EXPECT_GT(enabled.decoderOverruns(), 0.0);
    EXPECT_DOUBLE_EQ(enabled.hangsInjected(), 0.0);
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
