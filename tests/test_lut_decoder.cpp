/**
 * @file
 * Tests for the per-MCE lookup-table decoder: it must fully resolve
 * the isolated single-error patterns the paper assigns to it and
 * defer everything ambiguous to the global decoder.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "decode/lut_decoder.hpp"
#include "decode/mwpm_decoder.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/logging.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::PauliFrame;

class LutTest : public ::testing::Test
{
  protected:
    LutTest()
        : exp(5), lut(lattice)
    {}

    DetectionEvents
    eventsFor(PauliFrame &frame, std::size_t rounds = 1)
    {
        const auto history =
            extractor.runRounds(frame, nullptr, rounds);
        return extractDetectionEvents(history, extractor);
    }

    MemoryExperiment exp;
    const Lattice &lattice = exp.lattice();
    const SyndromeExtractor &extractor = exp.extractor();
    LutDecoder lut;
};

TEST_F(LutTest, ResolvesIsolatedInteriorError)
{
    PauliFrame frame(lattice.numQubits());
    const Coord data{3, 3};
    frame.injectX(lattice.index(data));
    const DetectionEvents events = eventsFor(frame);
    ASSERT_EQ(events.zEvents.size(), 2u);

    const LocalDecodeResult result = lut.decodeLocal(events);
    EXPECT_EQ(result.resolvedEvents, 2u);
    EXPECT_EQ(result.residual.total(), 0u);
    ASSERT_EQ(result.correction.xFlips.size(), 1u);
    EXPECT_EQ(result.correction.xFlips[0], lattice.index(data));
}

TEST_F(LutTest, ResolvesBoundaryAdjacentError)
{
    // A corner-ish data error produces one lone event one step from
    // the boundary; the LUT handles it.
    PauliFrame frame(lattice.numQubits());
    const Coord data{0, 0};
    frame.injectX(lattice.index(data));
    const DetectionEvents events = eventsFor(frame);
    ASSERT_EQ(events.zEvents.size(), 1u);

    const LocalDecodeResult result = lut.decodeLocal(events);
    EXPECT_EQ(result.resolvedEvents, 1u);
    EXPECT_EQ(result.residual.total(), 0u);
    ASSERT_EQ(result.correction.xFlips.size(), 1u);
    // The correction must have the same syndrome as the error: a
    // boundary data qubit adjacent to the flipped check.
    applyCorrection(frame, result.correction);
    EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
}

TEST_F(LutTest, ResolvesMeasurementFlipPair)
{
    // A time-like pair (same check, consecutive rounds) is a
    // measurement error: consumed with no data correction.
    DetectionEvents events;
    events.zEvents.push_back(
        DetectionEvent{1, Coord{3, 2}, SiteType::ZAncilla});
    events.zEvents.push_back(
        DetectionEvent{2, Coord{3, 2}, SiteType::ZAncilla});
    const LocalDecodeResult result = lut.decodeLocal(events);
    EXPECT_EQ(result.resolvedEvents, 2u);
    EXPECT_EQ(result.correction.weight(), 0u);
    EXPECT_EQ(result.residual.total(), 0u);
}

TEST_F(LutTest, DefersChainsToGlobalDecoder)
{
    // A two-qubit error chain produces events the LUT cannot pair
    // unambiguously; they must be forwarded, not guessed.
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    frame.injectX(lattice.index(Coord{3, 5}));
    const DetectionEvents events = eventsFor(frame);
    ASSERT_GE(events.zEvents.size(), 2u);

    const LocalDecodeResult result = lut.decodeLocal(events);
    // The shared middle check makes local pairing ambiguous for at
    // least part of the pattern.
    EXPECT_GT(result.residual.total(), 0u);
}

TEST_F(LutTest, HandlesZErrorsViaXChecks)
{
    PauliFrame frame(lattice.numQubits());
    const Coord data{3, 3};
    frame.injectZ(lattice.index(data));
    const DetectionEvents events = eventsFor(frame);
    ASSERT_EQ(events.xEvents.size(), 2u);

    const LocalDecodeResult result = lut.decodeLocal(events);
    EXPECT_EQ(result.resolvedEvents, 2u);
    ASSERT_EQ(result.correction.zFlips.size(), 1u);
    EXPECT_EQ(result.correction.zFlips[0], lattice.index(data));
}

TEST_F(LutTest, EmptyInputProducesEmptyOutput)
{
    const LocalDecodeResult result = lut.decodeLocal(DetectionEvents{});
    EXPECT_EQ(result.resolvedEvents, 0u);
    EXPECT_EQ(result.correction.weight(), 0u);
    EXPECT_EQ(result.residual.total(), 0u);
}

TEST_F(LutTest, RejectsInputThatIsNotRoundMajor)
{
    // The passes look for partners only in an event's own round and
    // the next one, which is exact only when rounds never decrease
    // along a list; other input is a caller bug and panics.
    const auto expectPanic = [&](const DetectionEvents &events,
                                 const char *text) {
        try {
            lut.decodeLocal(events);
            ADD_FAILURE() << "accepted input without '" << text << "'";
        } catch (const quest::sim::SimError &e) {
            EXPECT_EQ(e.kind(), quest::sim::SimError::Kind::Panic);
            EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
                << e.what();
        }
    };
    DetectionEvents events;
    events.zEvents.push_back(
        DetectionEvent{2, Coord{3, 2}, SiteType::ZAncilla});
    events.zEvents.push_back(
        DetectionEvent{1, Coord{3, 4}, SiteType::ZAncilla});
    expectPanic(events, "round-major");

    // The X list is held to the same rule.
    std::swap(events.zEvents, events.xEvents);
    for (DetectionEvent &e : events.xEvents) {
        e.ancilla = Coord{e.ancilla.col, e.ancilla.row};
        e.type = SiteType::XAncilla;
    }
    expectPanic(events, "round-major");
}

TEST_F(LutTest, RejectsTwoEventsAtOneCheckInOneRound)
{
    // Extraction emits at most one event per check and round; the
    // passes look partners up by check, so a repeat is a caller bug
    // and panics. The panic leaves the decoder's per-thread tables
    // clean: the next decode resolves a pair on the same checks.
    DetectionEvents events;
    for (const Coord c : {Coord{3, 2}, Coord{3, 4}, Coord{3, 2}})
        events.zEvents.push_back(DetectionEvent{0, c, SiteType::ZAncilla});
    try {
        lut.decodeLocal(events);
        ADD_FAILURE() << "accepted two events at one check";
    } catch (const quest::sim::SimError &e) {
        EXPECT_NE(std::string(e.what()).find("two LUT events"),
                  std::string::npos)
            << e.what();
    }
    events.zEvents.pop_back();
    const LocalDecodeResult result = lut.decodeLocal(events);
    EXPECT_EQ(result.resolvedEvents, 2u);
    EXPECT_EQ(result.correction.xFlips,
              std::vector<std::size_t>{lattice.index(Coord{3, 3})});
    EXPECT_EQ(result.residual.total(), 0u);
}

TEST_F(LutTest, LocalPlusGlobalEqualsCleanState)
{
    // The two-level scheme end to end: LUT first, MWPM on residual.
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3})); // isolated -> LUT
    frame.injectX(lattice.index(Coord{7, 1})); // chain part 1
    frame.injectX(lattice.index(Coord{7, 3})); // chain part 2
    const DetectionEvents events = eventsFor(frame);

    const LocalDecodeResult local = lut.decodeLocal(events);
    applyCorrection(frame, local.correction);

    const MwpmDecoder global(lattice);
    applyCorrection(frame, global.decode(local.residual));

    EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
}

} // namespace
