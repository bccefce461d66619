/**
 * @file
 * Tests for detection-event extraction from syndrome histories.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "decode/detection.hpp"
#include "qecc/memory_experiment.hpp"
#include "quantum/batch_pauli_frame.hpp"
#include "quantum/error_model.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::PauliFrame;

class DetectionTest : public ::testing::Test
{
  protected:
    DetectionTest() : exp(3) {}

    MemoryExperiment exp;
    const Lattice &lattice = exp.lattice();
    const SyndromeExtractor &extractor = exp.extractor();
};

TEST_F(DetectionTest, PersistentErrorYieldsOneEventPerCheck)
{
    // An error injected before round 0 flips the same checks every
    // round; differencing must report each flip exactly once.
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{1, 1}));
    const auto history = extractor.runRounds(frame, nullptr, 5);

    const DetectionEvents events =
        extractDetectionEvents(history, extractor);
    EXPECT_EQ(events.xEvents.size(), 0u);
    // Interior data (1,1) touches two Z checks.
    EXPECT_EQ(events.zEvents.size(), 2u);
    for (const auto &e : events.zEvents)
        EXPECT_EQ(e.round, 0u);
}

TEST_F(DetectionTest, MidRunErrorEventsCarryTheRound)
{
    PauliFrame frame(lattice.numQubits());
    std::vector<SyndromeRound> history;
    for (int r = 0; r < 3; ++r)
        history.push_back(extractor.runRound(frame, nullptr));
    frame.injectZ(lattice.index(Coord{2, 2}));
    for (int r = 0; r < 3; ++r)
        history.push_back(extractor.runRound(frame, nullptr));

    const DetectionEvents events =
        extractDetectionEvents(history, extractor);
    EXPECT_FALSE(events.xEvents.empty());
    for (const auto &e : events.xEvents)
        EXPECT_EQ(e.round, 3u);
}

TEST_F(DetectionTest, WindowBaselineSuppressesBoundaryArtifacts)
{
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{1, 1}));
    auto history = extractor.runRounds(frame, nullptr, 4);

    // Split the history into two windows of two rounds.
    const std::vector<SyndromeRound> first(history.begin(),
                                           history.begin() + 2);
    const std::vector<SyndromeRound> second(history.begin() + 2,
                                            history.end());

    const DetectionEvents w1 =
        extractDetectionEventsWindow(first, extractor, nullptr, 0);
    EXPECT_EQ(w1.zEvents.size(), 2u);

    // With the baseline carried over, the second window is silent;
    // without it, the persistent flips would re-trigger.
    const DetectionEvents w2 = extractDetectionEventsWindow(
        second, extractor, &first.back(), 2);
    EXPECT_EQ(w2.total(), 0u);

    const DetectionEvents w2_no_baseline =
        extractDetectionEventsWindow(second, extractor, nullptr, 2);
    EXPECT_EQ(w2_no_baseline.zEvents.size(), 2u);
}

TEST_F(DetectionTest, RoundOffsetIsApplied)
{
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{1, 1}));
    const auto history = extractor.runRounds(frame, nullptr, 1);
    const DetectionEvents events =
        extractDetectionEventsWindow(history, extractor, nullptr, 10);
    for (const auto &e : events.zEvents)
        EXPECT_EQ(e.round, 10u);
}

TEST(Correction, MergeIsXor)
{
    Correction a;
    a.xFlips = {1, 2};
    a.zFlips = {5};
    Correction b;
    b.xFlips = {2, 3};
    b.zFlips = {5};
    a.merge(b);
    std::sort(a.xFlips.begin(), a.xFlips.end());
    EXPECT_EQ(a.xFlips, (std::vector<std::size_t>{1, 3}));
    EXPECT_TRUE(a.zFlips.empty());
}

TEST(Correction, FromFlipMapsFoldsOddSitesInOrder)
{
    // One byte per site; a site flipped an odd number of times is
    // set. The fold is canonical: ascending, one entry per site.
    const std::vector<std::uint8_t> xflip{0, 1, 0, 1, 1, 0};
    const std::vector<std::uint8_t> zflip{1, 0, 0, 0, 0, 1};
    const Correction c = Correction::fromFlipMaps(xflip, zflip);
    EXPECT_EQ(c.xFlips, (std::vector<std::size_t>{1, 3, 4}));
    EXPECT_EQ(c.zFlips, (std::vector<std::size_t>{0, 5}));

    const std::vector<std::uint8_t> clean(6, 0);
    EXPECT_EQ(Correction::fromFlipMaps(clean, clean).weight(), 0u);
}

/**
 * The pre-rewrite find+erase merge: for each incoming flip, cancel
 * one matching entry if present, otherwise append. The sort-and-
 * cancel rewrite must stay parity-equivalent to this reference.
 */
void
referenceMergeInto(std::vector<std::size_t> &dst,
                   const std::vector<std::size_t> &src)
{
    for (const std::size_t q : src) {
        const auto it = std::find(dst.begin(), dst.end(), q);
        if (it != dst.end())
            dst.erase(it);
        else
            dst.push_back(q);
    }
}

TEST(Correction, MergeMatchesFindEraseReferenceDifferentially)
{
    // Deterministic pseudo-random flip lists, including repeated
    // entries (an even-multiplicity repeat cancels in both
    // implementations).
    std::uint64_t state = 0x2545F4914F6CDD1Dull;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int trial = 0; trial < 200; ++trial) {
        Correction a, b;
        const std::size_t na = next() % 12;
        for (std::size_t i = 0; i < na; ++i)
            a.xFlips.push_back(next() % 16);
        const std::size_t nb = next() % 12;
        for (std::size_t i = 0; i < nb; ++i)
            b.xFlips.push_back(next() % 16);

        std::vector<std::size_t> reference = a.xFlips;
        referenceMergeInto(reference, b.xFlips);

        a.merge(b);
        // The rewrite canonicalizes (sorted, duplicate-free); the
        // reference preserved insertion order and could keep
        // even-multiplicity duplicates from dst. Parity per qubit is
        // the observable -- applyCorrection XORs.
        std::sort(reference.begin(), reference.end());
        std::vector<std::size_t> ref_parity;
        for (std::size_t i = 0; i < reference.size();) {
            std::size_t j = i;
            while (j < reference.size()
                   && reference[j] == reference[i])
                ++j;
            if ((j - i) % 2)
                ref_parity.push_back(reference[i]);
            i = j;
        }
        EXPECT_EQ(a.xFlips, ref_parity) << "trial " << trial;
        EXPECT_TRUE(std::is_sorted(a.xFlips.begin(),
                                   a.xFlips.end()));
        EXPECT_EQ(std::adjacent_find(a.xFlips.begin(),
                                     a.xFlips.end()),
                  a.xFlips.end());
    }
}

TEST_F(DetectionTest, BatchWindowMatchesScalarWindowPerLane)
{
    // Two window segments with a carried baseline: the batch
    // extraction must agree with the scalar window API lane for
    // lane, including the baseline differencing and the round
    // offset the batch path used to drop.
    const MemoryExperiment six(3, Protocol::Steane, 5);
    quest::quantum::BatchPauliFrame frame(lattice.numQubits());
    std::vector<BatchSyndromeRound> history;
    six.sampleBatch(quest::quantum::ErrorRates{5e-3, 0, 0, 0, 5e-3},
                    0xB17, 0, frame, history);

    const std::vector<BatchSyndromeRound> first(history.begin(),
                                                history.begin() + 3);
    const std::vector<BatchSyndromeRound> second(history.begin() + 3,
                                                 history.end());

    for (std::size_t lane = 0; lane < 8; ++lane) {
        std::vector<SyndromeRound> lane_first, lane_second;
        for (const auto &r : first)
            lane_first.push_back(r.lane(lane));
        for (const auto &r : second)
            lane_second.push_back(r.lane(lane));

        const DetectionEvents s1 = extractDetectionEventsWindow(
            lane_first, extractor, nullptr, 0);
        const SyndromeRound baseline = first.back().lane(lane);
        const DetectionEvents s2 = extractDetectionEventsWindow(
            lane_second, extractor, &baseline, 3);

        std::vector<DetectionEvents> b1, b2;
        extractDetectionEventsBatchInto(first, extractor, nullptr, 0, b1);
        extractDetectionEventsBatchInto(second, extractor, &first.back(),
                                        3, b2);

        EXPECT_EQ(b1[lane].xEvents, s1.xEvents) << "lane " << lane;
        EXPECT_EQ(b1[lane].zEvents, s1.zEvents) << "lane " << lane;
        EXPECT_EQ(b2[lane].xEvents, s2.xEvents) << "lane " << lane;
        EXPECT_EQ(b2[lane].zEvents, s2.zEvents) << "lane " << lane;
        // The second segment's events carry the absolute round --
        // the hardcoded `round = r` bug would report 0-based rounds.
        for (const auto &e : b2[lane].xEvents)
            EXPECT_GE(e.round, 3u);
        for (const auto &e : b2[lane].zEvents)
            EXPECT_GE(e.round, 3u);
    }
}

TEST(Correction, ApplyInjectsIntoFrame)
{
    PauliFrame frame(4);
    Correction c;
    c.xFlips = {0};
    c.zFlips = {2};
    applyCorrection(frame, c);
    EXPECT_TRUE(frame.xError(0));
    EXPECT_TRUE(frame.zError(2));
    // Applying twice cancels.
    applyCorrection(frame, c);
    EXPECT_EQ(frame.weight(), 0u);
}

} // namespace
