/**
 * @file
 * Equivalence suite for the streaming sliding-window decoder.
 *
 * The correctness anchor: a StreamingDecoder whose single window
 * spans the entire shot must reproduce the offline DecoderPipeline
 * bit for bit. Windowed runs must still commit every detection
 * event exactly once (the accumulated correction clears the
 * syndrome), and the deadline-overrun path must degrade to the
 * cluster decoder deterministically. A reference streamer that
 * re-extracts every window pins the streamer's reuse of each
 * window's overlap. The master-controller wiring is pinned by a
 * W == S run against the offline decode cadence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/master_controller.hpp"
#include "core/system.hpp"
#include "decode/pipeline.hpp"
#include "decode/streaming.hpp"
#include "isa/trace.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/metrics.hpp"
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
    return exp.sampleShot(ErrorRates{.idle = p, .meas = p}, rng);
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

/**
 * The streamer with nothing kept between windows: every window
 * re-extracts all of its buffered rounds, drops each consumed-ahead
 * event it finds, matches with the mask read per query and folds
 * the flips into a fresh correction. No deadline, so no fallback.
 * The real streamer extracts only a window's new rounds and reuses
 * its buffers; its commits must equal these.
 */
class ReferenceStreamer
{
  public:
    ReferenceStreamer(const SyndromeExtractor &extractor,
                      std::size_t window, std::size_t stride)
        : _extractor(extractor), _window(window), _stride(stride),
          _lut(extractor.lattice()), _mwpm(extractor.lattice())
    {}

    void
    setMaskPredicate(MwpmDecoder::MaskPredicate masked)
    {
        _mwpm.setMaskPredicate(std::move(masked));
    }

    std::optional<StreamCommit>
    pushRound(const SyndromeRound &round)
    {
        _buffer.push_back(round);
        if (_buffer.size() < _window)
            return std::nullopt;
        return decodeWindow(false);
    }

    std::optional<StreamCommit> finish() { return decodeWindow(true); }

    /** Consumed-ahead events dropped from some window after the one
     *  that first dropped them (possible only when W > 2S). */
    std::size_t redropped = 0;

  private:
    const SyndromeExtractor &_extractor;
    std::size_t _window, _stride;
    LutDecoder _lut;
    MwpmDecoder _mwpm;
    std::vector<SyndromeRound> _buffer;
    std::optional<SyndromeRound> _baseline;
    std::size_t _firstRound = 0;
    std::size_t _chargedThrough = 0;
    /** Consumed-ahead events and how many windows dropped each. */
    std::vector<std::pair<DetectionEvent, std::size_t>> _consumed;

    std::optional<StreamCommit>
    decodeWindow(bool flush)
    {
        const std::size_t take = _buffer.size();
        if (take == 0)
            return std::nullopt;
        const std::size_t commit_end =
            _firstRound + (flush ? take : _stride);
        DetectionEvents ev = extractDetectionEventsWindow(
            _buffer, _extractor, _baseline ? &*_baseline : nullptr,
            _firstRound);
        for (auto *list : {&ev.xEvents, &ev.zEvents})
            std::erase_if(*list, [&](const DetectionEvent &e) {
                for (auto &[c, drops] : _consumed)
                    if (c == e) {
                        redropped += drops++ > 0;
                        return true;
                    }
                return false;
            });

        StreamCommit commit;
        commit.windowFirstRound = _firstRound;
        commit.commitEndRound = commit_end;
        commit.windowEvents = ev.total();
        DetectionEvents carry;
        for (auto [from, to] : {std::pair{&ev.xEvents, &carry.xEvents},
                                std::pair{&ev.zEvents, &carry.zEvents}}) {
            const auto it = std::find_if(
                from->begin(), from->end(), [&](const DetectionEvent &e) {
                    return e.round >= commit_end;
                });
            to->assign(it, from->end());
            from->erase(it, from->end());
        }

        const LocalDecodeResult local = _lut.decodeLocal(ev);
        const auto charge = [&](const std::vector<DetectionEvent> &list) {
            for (const DetectionEvent &e : list)
                commit.forwardedEvents += e.round >= _chargedThrough;
        };
        charge(local.residual.xEvents);
        charge(local.residual.zEvents);
        charge(carry.xEvents);
        charge(carry.zEvents);
        _chargedThrough = std::max(_chargedThrough, _firstRound + take);

        const std::size_t n = _extractor.lattice().numQubits();
        std::vector<std::uint8_t> xflip(n, 0), zflip(n, 0);
        const auto decode_type = [&](const std::vector<DetectionEvent> &resid,
                                     const std::vector<DetectionEvent> &car,
                                     std::vector<std::uint8_t> &bits) {
            std::vector<DetectionEvent> evts = resid;
            evts.insert(evts.end(), car.begin(), car.end());
            if (evts.empty())
                return;
            for (const Match &m : _mwpm.matchEvents(evts).matches) {
                const DetectionEvent &a = evts[m.a];
                const DetectionEvent &b = m.toBoundary ? a : evts[m.b];
                if (std::min(a.round, b.round) >= commit_end) {
                    commit.deferredEvents += m.toBoundary ? 1 : 2;
                    continue;
                }
                const std::vector<std::size_t> path = m.toBoundary
                    ? _mwpm.pathToBoundary(a.ancilla)
                    : _mwpm.pathBetween(a.ancilla, b.ancilla);
                for (const std::size_t q : path)
                    bits[q] ^= 1;
                if (m.toBoundary)
                    continue;
                for (const DetectionEvent *e : {&a, &b})
                    if (e->round >= commit_end)
                        _consumed.push_back({*e, 0});
            }
        };
        decode_type(local.residual.zEvents, carry.zEvents, xflip);
        decode_type(local.residual.xEvents, carry.xEvents, zflip);
        commit.correction = local.correction;
        commit.correction.merge(Correction::fromFlipMaps(xflip, zflip));

        const std::size_t drop = flush ? take : _stride;
        _baseline = _buffer[drop - 1];
        _buffer.erase(_buffer.begin(),
                      _buffer.begin() + std::ptrdiff_t(drop));
        _firstRound += drop;
        std::erase_if(_consumed, [&](const auto &c) {
            return c.first.round < _firstRound;
        });
        return commit;
    }
};

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

    // Masked checks are open boundaries. The streamer reads the mask
    // once per window, the offline matcher once per query; with one
    // predicate shared by both they still agree bit for bit.
    std::vector<std::uint8_t> holes(lattice.numQubits(), 0);
    quest::sim::Rng mask_rng(0x4D41u);
    for (auto &h : holes)
        h = mask_rng.bernoulli(0.15) ? 1 : 0;
    const MwpmDecoder::MaskPredicate masked = [&holes](std::size_t q) {
        return holes[q] != 0;
    };
    const LutDecoder lut(lattice);
    MwpmDecoder mwpm(lattice);
    mwpm.setMaskPredicate(masked);
    std::size_t moved_by_mask = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        // Noisier, so more events outlive the LUT.
        const auto history = noisyShot(exp, 1e-2, seed).history;
        const DetectionEvents events =
            extractDetectionEvents(history, extractor);
        const LocalDecodeResult local = lut.decodeLocal(events);
        Correction offline = local.correction;
        offline.merge(mwpm.decode(local.residual));
        const Correction unmasked = pipeline.decode(events);
        moved_by_mask += offline.xFlips != unmasked.xFlips
            || offline.zFlips != unmasked.zFlips;

        StreamConfig cfg;
        cfg.windowRounds = history.size() + 1;
        cfg.strideRounds = 1;
        StreamingDecoder streamer(extractor, cfg);
        streamer.setMaskPredicate(masked);
        const Correction streamed = streamDecode(streamer, history);

        EXPECT_EQ(streamed.xFlips, offline.xFlips)
            << "masked seed " << seed;
        EXPECT_EQ(streamed.zFlips, offline.zFlips)
            << "masked seed " << seed;
    }
    // The mask decides some of these corrections.
    EXPECT_GT(moved_by_mask, 0u);
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

TEST(StreamingReference, CommitsMatchAStreamerThatReextractsEveryWindow)
{
    // W == S, W = 2S and W = 3S; at W = 3S a consumed-ahead event
    // lies in two later windows, and both must drop it. Each stream
    // is cut by a finish() mid-window and then runs on, and half of
    // them redraw the mask after every commit.
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {3, 3}, {4, 2}, {6, 3}, {3, 1}, {6, 2}, {9, 3},
    };
    std::size_t windows = 0, deferred = 0, redropped = 0, masked_runs = 0;
    for (const std::size_t d : {5, 9}) {
        const MemoryExperiment shots(d, Protocol::Steane, 40);
        const SyndromeExtractor &ext = shots.extractor();
        const Lattice &lat = shots.lattice();
        for (const auto &[window, stride] : shapes) {
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                const auto history =
                    noisyShot(shots, 1e-2, seed * 97 + d).history;
                const bool edit_mask = seed % 2 == 0;
                std::vector<std::uint8_t> holes(lat.numQubits(), 0);
                quest::sim::Rng mask_rng(seed);
                const auto redraw = [&] {
                    for (auto &h : holes)
                        h = mask_rng.bernoulli(0.1) ? 1 : 0;
                };
                const MwpmDecoder::MaskPredicate pred =
                    [&holes](std::size_t q) { return holes[q] != 0; };

                StreamConfig cfg;
                cfg.windowRounds = window;
                cfg.strideRounds = stride;
                StreamingDecoder streamer(ext, cfg);
                ReferenceStreamer ref(ext, window, stride);
                if (edit_mask) {
                    redraw();
                    streamer.setMaskPredicate(pred);
                    ref.setMaskPredicate(pred);
                    ++masked_runs;
                }
                const auto same = [&](const std::optional<StreamCommit> &got,
                                      const std::optional<StreamCommit> &want,
                                      std::size_t at) {
                    const std::string where = "d=" + std::to_string(d)
                        + " W=" + std::to_string(window) + " S="
                        + std::to_string(stride) + " seed="
                        + std::to_string(seed) + " round "
                        + std::to_string(at);
                    ASSERT_EQ(got.has_value(), want.has_value()) << where;
                    if (!got)
                        return;
                    EXPECT_EQ(got->windowFirstRound, want->windowFirstRound)
                        << where;
                    EXPECT_EQ(got->commitEndRound, want->commitEndRound)
                        << where;
                    EXPECT_EQ(got->windowEvents, want->windowEvents)
                        << where;
                    EXPECT_EQ(got->forwardedEvents, want->forwardedEvents)
                        << where;
                    EXPECT_EQ(got->deferredEvents, want->deferredEvents)
                        << where;
                    EXPECT_EQ(got->correction.xFlips, want->correction.xFlips)
                        << where;
                    EXPECT_EQ(got->correction.zFlips, want->correction.zFlips)
                        << where;
                    EXPECT_FALSE(got->fallback) << where;
                    ++windows;
                    deferred += got->deferredEvents;
                    if (edit_mask)
                        redraw(); // between windows, as a tile edits
                };
                for (std::size_t r = 0; r < history.size(); ++r) {
                    same(streamer.pushRound(history[r]),
                         ref.pushRound(history[r]), r);
                    if (r == 16) // between two window boundaries
                        same(streamer.finish(), ref.finish(), r);
                }
                same(streamer.finish(), ref.finish(), history.size());
                redropped += ref.redropped;
            }
        }
    }
    // The runs defer events, and some W = 3S window drops a
    // consumed-ahead event a second time.
    EXPECT_GT(windows, 500u);
    EXPECT_GT(deferred, 0u);
    EXPECT_GT(redropped, 0u);
    EXPECT_GT(masked_runs, 0u);
}

TEST_F(StreamingTest, ConsumedAheadEventsStayConsumedWhenWindowsOverlapTwice)
{
    // At W = 3S a committed match can consume an event that two
    // later windows hold. Both must drop it: a streamer that dropped
    // it from the first only decoded it again in the second, and the
    // stray correction left the syndrome lit.
    const std::pair<std::size_t, std::size_t> shapes[] = {{3, 1}, {9, 3}};
    const MemoryExperiment shots(9, Protocol::Steane, 40);
    const SyndromeExtractor &ext = shots.extractor();
    for (const auto &[window, stride] : shapes) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            auto shot = noisyShot(shots, 1e-2, seed * 97 + 9);
            StreamConfig cfg;
            cfg.windowRounds = window;
            cfg.strideRounds = stride;
            StreamingDecoder streamer(ext, cfg);
            applyCorrection(shot.frame, streamDecode(streamer, shot.history));
            EXPECT_FALSE(ext.runRound(shot.frame, nullptr).any())
                << "window=" << window << " stride=" << stride
                << " seed=" << seed;
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

TEST(DecodeDeadline, DisabledWindowNeverOverruns)
{
    DecodeDeadline dl; // windowTicks == 0
    EXPECT_FALSE(dl.overruns(0));
    EXPECT_FALSE(dl.overruns(100000));
    EXPECT_DOUBLE_EQ(dl.stretch(100000), 1.0);
}

TEST(DecodeDeadline, QuadraticCostCrossesTheWindow)
{
    DeadlineConfig cfg;
    cfg.windowTicks = quest::sim::nanoseconds(1000);
    DecodeDeadline dl(cfg);

    // 50 + 20 E^2 <= 1000  <=>  E <= 6.
    EXPECT_FALSE(dl.overruns(6));
    EXPECT_TRUE(dl.overruns(7));
    EXPECT_DOUBLE_EQ(dl.stretch(6), 1.0);
    EXPECT_GT(dl.stretch(7), 1.0);
    // Stretch equals mwpmTicks / window once past the deadline.
    EXPECT_DOUBLE_EQ(dl.stretch(10),
                     double(dl.mwpmTicks(10))
                         / double(cfg.windowTicks));
}

TEST(DecodeDeadline, MwpmTicksFollowsTheQuadraticModel)
{
    using quest::sim::nanoseconds;
    EXPECT_EQ(DecodeDeadline::mwpmTicks(0), nanoseconds(50));
    EXPECT_EQ(DecodeDeadline::mwpmTicks(1), nanoseconds(70));
    EXPECT_EQ(DecodeDeadline::mwpmTicks(10), nanoseconds(2050));
    // The quadratic term is exact well past any window's event count.
    EXPECT_EQ(DecodeDeadline::mwpmTicks(1000),
              nanoseconds(50) + nanoseconds(20) * 1000000);
}

TEST(DecodeDeadline, BudgetEqualToTheCostIsMet)
{
    // Overrunning means strictly exceeding the budget.
    DeadlineConfig cfg;
    cfg.windowTicks = DecodeDeadline::mwpmTicks(5);
    DecodeDeadline dl(cfg);
    EXPECT_FALSE(dl.overruns(5));
    EXPECT_DOUBLE_EQ(dl.stretch(5), 1.0);
    EXPECT_TRUE(dl.overruns(6));
    EXPECT_DOUBLE_EQ(dl.stretch(6),
                     double(DecodeDeadline::mwpmTicks(6))
                         / double(cfg.windowTicks));
}

TEST(DecodeDeadline, BudgetBelowTheBaseCostOverrunsEveryBatch)
{
    DeadlineConfig cfg;
    cfg.windowTicks = DecodeDeadline::mwpmBaseTicks - 1;
    DecodeDeadline dl(cfg);
    for (const std::size_t events : {0u, 1u, 2u, 50u})
        EXPECT_TRUE(dl.overruns(events)) << events;
    EXPECT_GT(dl.stretch(0), 1.0);
}

TEST(DecodeDeadline, StretchNeverShrinksWithMoreEvents)
{
    DeadlineConfig cfg;
    cfg.windowTicks = quest::sim::nanoseconds(500);
    DecodeDeadline dl(cfg);
    double last = dl.stretch(0);
    EXPECT_DOUBLE_EQ(last, 1.0);
    for (std::size_t events = 1; events <= 64; ++events) {
        const double s = dl.stretch(events);
        EXPECT_GE(s, last) << events;
        EXPECT_EQ(s > 1.0, dl.overruns(events)) << events;
        last = s;
    }
}

TEST_F(StreamingTest, TightBudgetDegradesOnlyWindowsWithResidualEvents)
{
    // Every residual set misses a budget below the MWPM base cost,
    // but a window with nothing past the LUT has nothing to decode:
    // it neither falls back nor stretches the noise.
    StreamConfig cfg;
    cfg.windowRounds = 3;
    cfg.strideRounds = 3;
    cfg.deadline.windowTicks = 1;

    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    frame.injectX(lattice.index(Coord{3, 5}));
    auto history = extractor.runRounds(frame, nullptr, 3);
    // Two quiet windows follow.
    const auto quiet = extractor.runRounds(frame, nullptr, 6);
    history.insert(history.end(), quiet.begin(), quiet.end());

    StreamingDecoder streamer(extractor, cfg);
    std::size_t windows = 0;
    for (const auto &round : history) {
        if (auto commit = streamer.pushRound(round)) {
            EXPECT_EQ(commit->fallback, windows == 0)
                << "window " << windows;
            if (windows > 0) {
                EXPECT_DOUBLE_EQ(commit->stretch, 1.0)
                    << "window " << windows;
            } else {
                EXPECT_GT(commit->stretch, 1.0);
            }
            ++windows;
        }
    }
    EXPECT_EQ(windows, 3u);
    EXPECT_EQ(streamer.fallbacks(), 1u);
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
        quest::quantum::ErrorRates{.idle = 2e-3, .meas = 2e-3};
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
    // The window matcher reads the live mask once per window, so the
    // run is also pinned to digests recorded when it searched the
    // mask on every query: a mask read that outlives an edit moves
    // a boundary path, and with it the frames or ledgers.
    using namespace quest::core;
    MasterConfig cfg;
    cfg.numMces = 2;
    cfg.mce = tileConfigForLogicalQubits(3);
    cfg.mce.errorRates = quest::quantum::ErrorRates{.idle = 1e-3, .meas = 1e-3};
    cfg.streamWindowRounds = 6;
    cfg.streamStrideRounds = 3;
    QuestSystem system(cfg);
    MasterController &master = system.master();
    const SyndromeExtractor *extractor = &master.mce(0).extractor();

    auto &registry = quest::sim::metrics::Registry::global();
    const char *const counts[] = {
        "decode.stream.windows",
        "decode.stream.rounds",
        "decode.stream.events",
        "decode.stream.events_local",
        "decode.stream.events_forwarded",
        "decode.stream.events_deferred",
        "decode.stream.fallbacks",
        "decode.stream.committed_weight",
    };
    std::vector<std::uint64_t> before;
    for (const char *name : counts)
        before.push_back(registry.counter(name, "").value());

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
    std::uint64_t digest = 1469598103934665603ull; // FNV-1a
    const auto mix = [&digest](std::uint64_t v) {
        digest = (digest ^ v) * 1099511628211ull;
    };
    for (std::size_t i = 0; i < cfg.numMces; ++i) {
        EXPECT_EQ(master.streamer(i).roundsPushed(), rounds);
        EXPECT_EQ(master.streamer(i).lagRounds(), 0u);
        Mce &t = master.mce(i);
        for (std::size_t q = 0; q < t.frame().numQubits(); ++q) {
            mix(t.frame().xError(q) | t.frame().zError(q) << 1);
            mix(t.correctionLedger().xError(q)
                | t.correctionLedger().zError(q) << 1);
        }
    }
    EXPECT_EQ(digest, 0x7093ed01967f8c08ull);
    EXPECT_DOUBLE_EQ(master.busBytesSyndrome(), 1092.0);
    EXPECT_DOUBLE_EQ(master.busBytesCorrections(), 424.0);
    // The same counts, in `counts` order.
    const std::uint64_t recorded[] = {200, 600, 541, 189, 273, 268, 0, 106};
    for (std::size_t k = 0; k < std::size(counts); ++k)
        EXPECT_EQ(registry.counter(counts[k], "").value() - before[k],
                  recorded[k])
            << counts[k];
}

} // namespace
