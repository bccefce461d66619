/**
 * @file
 * Equivalence suite for the streaming sliding-window decoder.
 *
 * The correctness anchor: a StreamingDecoder whose single window
 * spans the entire shot must reproduce the offline DecoderPipeline
 * bit for bit. Windowed runs must still commit every detection
 * event exactly once (the accumulated correction clears the
 * syndrome), and the deadline-overrun path must degrade to the
 * cluster decoder deterministically. The master-controller wiring is
 * pinned by a W == S run against the offline decode cadence.
 */

#include <gtest/gtest.h>

#include "core/master_controller.hpp"
#include "core/system.hpp"
#include "decode/pipeline.hpp"
#include "decode/streaming.hpp"
#include "isa/trace.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/fault_injector.hpp"
#include "sim/random.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::ErrorRates;
using quest::quantum::PauliFrame;

/** One shot of `exp` at rate p, seeded with `seed`. */
MemoryExperiment::Shot
noisyShot(const MemoryExperiment &exp, double p, std::uint64_t seed)
{
    quest::sim::Rng rng(seed);
    return exp.sampleShot(ErrorRates{p, 0, 0, 0, p}, rng);
}

/** Stream a whole history and return the accumulated correction. */
Correction
streamDecode(StreamingDecoder &streamer,
             const std::vector<SyndromeRound> &history)
{
    Correction total;
    for (const auto &round : history)
        if (auto commit = streamer.pushRound(round))
            total.merge(commit->correction);
    if (auto commit = streamer.finish())
        total.merge(commit->correction);
    return total;
}

class StreamingTest : public ::testing::Test
{
  protected:
    StreamingTest() : exp(5, Protocol::Steane, 6) {}

    MemoryExperiment exp;
    const Lattice &lattice = exp.lattice();
    const SyndromeExtractor &extractor = exp.extractor();
};

TEST_F(StreamingTest, FullShotSingleWindowMatchesOfflinePipeline)
{
    DecoderPipeline pipeline(lattice);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto history = noisyShot(exp, 2e-3, seed).history;

        const Correction offline = pipeline.decode(
            extractDetectionEvents(history, extractor));

        // Window larger than the shot: nothing commits until
        // finish() decodes the whole history as one window.
        StreamConfig cfg;
        cfg.windowRounds = history.size() + 1;
        cfg.strideRounds = 1;
        StreamingDecoder streamer(extractor, cfg);
        const Correction streamed = streamDecode(streamer, history);

        EXPECT_EQ(streamer.windowsDecoded(), 1u) << "seed " << seed;
        // Bit-identical, including order: both sides canonicalize
        // through Correction::merge.
        EXPECT_EQ(streamed.xFlips, offline.xFlips)
            << "seed " << seed;
        EXPECT_EQ(streamed.zFlips, offline.zFlips)
            << "seed " << seed;
    }
}

TEST_F(StreamingTest, WindowedCommitsClearTheSyndrome)
{
    // Every (window, stride) split must commit each detection event
    // exactly once: the accumulated correction plus the errors form
    // closed loops, so the final noiseless round is silent.
    const std::size_t distances[] = { 3, 5, 7 };
    const std::pair<std::size_t, std::size_t> shapes[] = {
        { 2, 1 }, { 3, 3 }, { 4, 2 }, { 6, 3 },
    };
    for (const std::size_t d : distances) {
        const MemoryExperiment shots(d, Protocol::Steane, 2 * d);
        const SyndromeExtractor &ext = shots.extractor();
        for (const auto &[window, stride] : shapes) {
            for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                auto shot = noisyShot(shots, 2e-3, seed * 31 + d);

                StreamConfig cfg;
                cfg.windowRounds = window;
                cfg.strideRounds = stride;
                StreamingDecoder streamer(ext, cfg);
                applyCorrection(shot.frame,
                                streamDecode(streamer, shot.history));

                EXPECT_FALSE(ext.runRound(shot.frame, nullptr).any())
                    << "d=" << d << " window=" << window
                    << " stride=" << stride << " seed=" << seed;
                EXPECT_EQ(streamer.committedRounds(),
                          streamer.roundsPushed());
                EXPECT_EQ(streamer.lagRounds(), 0u);
            }
        }
    }
}

TEST_F(StreamingTest, DeadlineOverrunFallsBackToClusterDecoder)
{
    // A 1-tick budget is below the MWPM base cost, so any window
    // with residual events must degrade -- deterministically.
    StreamConfig cfg;
    cfg.windowRounds = 3;
    cfg.strideRounds = 3;
    cfg.deadline.windowTicks = 1;

    for (int run = 0; run < 2; ++run) {
        PauliFrame frame(lattice.numQubits());
        // A chain the LUT cannot resolve locally.
        frame.injectX(lattice.index(Coord{3, 3}));
        frame.injectX(lattice.index(Coord{3, 5}));
        const auto history = extractor.runRounds(frame, nullptr, 3);

        StreamingDecoder streamer(extractor, cfg);
        bool saw_fallback = false;
        double stretch = 1.0;
        Correction total;
        for (const auto &round : history) {
            if (auto commit = streamer.pushRound(round)) {
                saw_fallback |= commit->fallback;
                stretch = std::max(stretch, commit->stretch);
                total.merge(commit->correction);
            }
        }
        if (auto commit = streamer.finish())
            total.merge(commit->correction);

        EXPECT_TRUE(saw_fallback);
        EXPECT_GT(stretch, 1.0);
        EXPECT_GT(streamer.fallbacks(), 0u);
        // The cluster decoder still clears the syndrome.
        applyCorrection(frame, total);
        EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
    }
}

TEST_F(StreamingTest, InjectedOverrunDegradesEveryResidualWindow)
{
    // A budget no residual set can miss analytically: every fallback
    // is an injected DecoderOverrun, drawn once per window with
    // residual events, and leaves the noise unstretched.
    quest::sim::FaultInjector faults(quest::sim::FaultConfig::uniform(1.0));
    StreamConfig cfg;
    cfg.windowRounds = 3;
    cfg.strideRounds = 3;
    cfg.deadline.windowTicks = quest::sim::milliseconds(1);
    cfg.deadline.faults = &faults;

    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    frame.injectX(lattice.index(Coord{3, 5}));
    auto history = extractor.runRounds(frame, nullptr, 3);
    // Two quiet windows follow: nothing to decode, nothing drawn.
    const auto quiet = extractor.runRounds(frame, nullptr, 6);
    history.insert(history.end(), quiet.begin(), quiet.end());

    StreamingDecoder streamer(extractor, cfg);
    std::size_t windows = 0;
    for (const auto &round : history) {
        if (auto commit = streamer.pushRound(round)) {
            EXPECT_EQ(commit->fallback, windows == 0)
                << "window " << windows;
            EXPECT_DOUBLE_EQ(commit->stretch, 1.0);
            ++windows;
        }
    }
    EXPECT_EQ(windows, 3u);
    EXPECT_EQ(streamer.fallbacks(), 1u);
    EXPECT_EQ(faults.trialCount(quest::sim::FaultSite::DecoderOverrun),
              1u);
}

TEST_F(StreamingTest, QuietStreamCommitsNothing)
{
    StreamConfig cfg;
    cfg.windowRounds = 2;
    cfg.strideRounds = 1;
    StreamingDecoder streamer(extractor, cfg);
    PauliFrame frame(lattice.numQubits());
    for (int r = 0; r < 5; ++r) {
        auto commit = streamer.pushRound(
            extractor.runRound(frame, nullptr));
        if (commit) {
            EXPECT_EQ(commit->windowEvents, 0u);
            EXPECT_EQ(commit->correction.weight(), 0u);
            EXPECT_FALSE(commit->fallback);
        }
    }
    auto last = streamer.finish();
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->correction.weight(), 0u);
    EXPECT_EQ(streamer.lagRounds(), 0u);
}

TEST(StreamingMaster, WindowEqualsStrideMatchesOfflineCadence)
{
    using namespace quest::core;

    MasterConfig offline_cfg;
    offline_cfg.numMces = 2;
    offline_cfg.mce = tileConfigForLogicalQubits(3);
    offline_cfg.mce.errorRates =
        quest::quantum::ErrorRates{2e-3, 0, 0, 0, 2e-3};
    offline_cfg.decodeWindowRounds = 3;

    MasterConfig stream_cfg = offline_cfg;
    stream_cfg.streamWindowRounds = 3;
    stream_cfg.streamStrideRounds = 3;

    MasterController offline(offline_cfg);
    MasterController streaming(stream_cfg);
    EXPECT_TRUE(streaming.streamingDecode());
    EXPECT_FALSE(offline.streamingDecode());

    offline.runRounds(9);
    streaming.runRounds(9);

    for (std::size_t i = 0; i < 2; ++i) {
        const auto &off = offline.mce(i);
        const auto &str = streaming.mce(i);
        // Identical noise evolution...
        EXPECT_EQ(str.roundsRun(), off.roundsRun());
        // ...and identical committed corrections: non-overlapping
        // streaming windows are the offline cadence.
        EXPECT_EQ(str.correctionLedger().xWords(),
                  off.correctionLedger().xWords())
            << "tile " << i;
        EXPECT_EQ(str.correctionLedger().zWords(),
                  off.correctionLedger().zWords())
            << "tile " << i;
        EXPECT_EQ(str.residualErrorWeight(),
                  off.residualErrorWeight())
            << "tile " << i;
    }
    // The syndrome bus carries the same residual events either way.
    EXPECT_DOUBLE_EQ(streaming.busBytesSyndrome(),
                     offline.busBytesSyndrome());
}

TEST(StreamingMaster, InjectedOverrunsDegradeEveryResidualWindow)
{
    // Under a modelled deadline an injected decoder overrun degrades
    // a streaming window exactly as it does an offline decode. At
    // W == S every window is one offline decode window, and the
    // offline path degrades each decode with residual events when
    // the DecoderOverrun site fires at rate 1: the streaming master
    // must degrade the same windows and leave the same tiles.
    using namespace quest::core;

    MasterConfig offline_cfg;
    offline_cfg.numMces = 2;
    offline_cfg.mce = tileConfigForLogicalQubits(3);
    offline_cfg.mce.errorRates =
        quest::quantum::ErrorRates{2e-3, 0, 0, 0, 2e-3};
    offline_cfg.decodeWindowRounds = 3;
    offline_cfg.modelDecodeDeadline = true;
    offline_cfg.faults.rate(quest::sim::FaultSite::DecoderOverrun) = 1.0;

    MasterConfig stream_cfg = offline_cfg;
    stream_cfg.streamWindowRounds = 3;
    stream_cfg.streamStrideRounds = 3;

    MasterController offline(offline_cfg);
    MasterController streaming(stream_cfg);
    offline.runRounds(30);
    streaming.runRounds(30);

    EXPECT_GT(offline.decoderOverruns(), 0.0);
    EXPECT_EQ(streaming.decoderOverruns(), offline.decoderOverruns());
    EXPECT_EQ(streaming.decoderFallbacks(), streaming.decoderOverruns());
    std::size_t windows_degraded = 0;
    for (std::size_t i = 0; i < 2; ++i) {
        windows_degraded += streaming.streamer(i).fallbacks();
        EXPECT_EQ(streaming.mce(i).correctionLedger().xWords(),
                  offline.mce(i).correctionLedger().xWords())
            << "tile " << i;
        EXPECT_EQ(streaming.mce(i).correctionLedger().zWords(),
                  offline.mce(i).correctionLedger().zWords())
            << "tile " << i;
        EXPECT_EQ(streaming.mce(i).residualErrorWeight(),
                  offline.mce(i).residualErrorWeight())
            << "tile " << i;
    }
    EXPECT_EQ(double(windows_degraded), streaming.decoderOverruns());
    EXPECT_DOUBLE_EQ(streaming.busBytesSyndrome(),
                     offline.busBytesSyndrome());
}

TEST(StreamingMaster, DecodeNowFlushesBufferedRounds)
{
    using namespace quest::core;
    MasterConfig cfg;
    cfg.numMces = 1;
    cfg.mce = tileConfigForLogicalQubits(3);
    cfg.streamWindowRounds = 4;
    cfg.streamStrideRounds = 2;
    MasterController master(cfg);
    Mce &mce = master.mce(0);
    mce.frame().injectX(mce.lattice().index(Coord{3, 3}));
    mce.frame().injectX(mce.lattice().index(Coord{3, 5}));

    master.runRounds(3); // less than a window: nothing committed yet
    EXPECT_GT(master.streamer(0).lagRounds(), 0u);
    master.decodeNow(); // end-of-shot barrier: flush everything
    EXPECT_EQ(master.streamer(0).lagRounds(), 0u);
    EXPECT_EQ(mce.residualErrorWeight(), 0u);
    EXPECT_GT(master.busBytesSyndrome(), 0.0);
    EXPECT_GT(master.busBytesCorrections(), 0.0);
}

TEST(StreamingMaster, StreamsAcrossMaskEdits)
{
    // Placing logical qubits and every mask instruction rebuild the
    // tile's masked schedule. The streamers hold the tile extractor,
    // so it must survive those rebuilds (ASan flags a stale one).
    using namespace quest::core;
    MasterConfig cfg;
    cfg.numMces = 2;
    cfg.mce = tileConfigForLogicalQubits(3);
    cfg.mce.errorRates = quest::quantum::ErrorRates{1e-3, 0, 0, 0, 1e-3};
    cfg.streamWindowRounds = 6;
    cfg.streamStrideRounds = 3;
    QuestSystem system(cfg);
    MasterController &master = system.master();
    const SyndromeExtractor *extractor = &master.mce(0).extractor();

    system.placeLogicalQubits();
    const double writes = master.mce(0).maskTable().writeCount();
    quest::isa::TraceGenConfig tg;
    tg.numInstructions = 600;
    tg.logicalQubits = 2; // one per tile
    tg.maskFraction = 0.3;
    const std::size_t rounds = 300;
    system.runMixedWorkload(quest::isa::generateApplicationTrace(tg),
                            quest::isa::generateDistillationRound(0),
                            rounds);
    master.decodeNow();

    EXPECT_GT(master.mce(0).maskTable().writeCount(), writes);
    EXPECT_EQ(&master.mce(0).extractor(), extractor);
    for (std::size_t i = 0; i < cfg.numMces; ++i) {
        EXPECT_EQ(master.streamer(i).roundsPushed(), rounds);
        EXPECT_EQ(master.streamer(i).lagRounds(), 0u);
    }
}

} // namespace
