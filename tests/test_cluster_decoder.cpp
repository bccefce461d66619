/**
 * @file
 * Tests for the Union-Find-style cluster decoder, including
 * cross-checks against the MWPM decoder on every pattern with a
 * correction guarantee and on random noise.
 */

#include <gtest/gtest.h>

#include <set>

#include "decode/cluster_decoder.hpp"
#include "qecc/distance.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/random.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::PauliFrame;
using quest::sim::Rng;

struct Harness
{
    explicit Harness(std::size_t d)
        : exp(d), mwpm(lattice), cluster(mwpm)
    {}

    DetectionEvents
    eventsFor(PauliFrame &frame, std::size_t rounds = 1)
    {
        const auto history =
            extractor.runRounds(frame, nullptr, rounds);
        return extractDetectionEvents(history, extractor);
    }

    bool
    clean(PauliFrame &frame)
    {
        return !extractor.runRound(frame, nullptr).any();
    }

    MemoryExperiment exp;
    const Lattice &lattice = exp.lattice();
    const SyndromeExtractor &extractor = exp.extractor();
    MwpmDecoder mwpm;
    ClusterDecoder cluster;
};

TEST(ClusterDecoder, EmptyEventsEmptyCorrection)
{
    Harness h(3);
    EXPECT_EQ(h.cluster.decode(DetectionEvents{}).weight(), 0u);
}

TEST(ClusterDecoder, SingleErrorFormsOneCluster)
{
    Harness h(5);
    PauliFrame frame(h.lattice.numQubits());
    frame.injectX(h.lattice.index(Coord{3, 3}));
    const auto events = h.eventsFor(frame);

    ClusterStats stats;
    const Correction corr = h.cluster.decode(events, stats);
    EXPECT_EQ(stats.clusters, 1u);
    EXPECT_EQ(stats.largestCluster, 2u);
    ASSERT_EQ(corr.xFlips.size(), 1u);
    EXPECT_EQ(corr.xFlips[0], h.lattice.index(Coord{3, 3}));
}

TEST(ClusterDecoder, SeparatedErrorsFormSeparateClusters)
{
    Harness h(7);
    PauliFrame frame(h.lattice.numQubits());
    frame.injectX(h.lattice.index(Coord{1, 1}));
    frame.injectX(h.lattice.index(Coord{11, 11}));
    const auto events = h.eventsFor(frame);

    ClusterStats stats;
    const Correction corr = h.cluster.decode(events, stats);
    EXPECT_EQ(stats.clusters, 2u);
    applyCorrection(frame, corr);
    EXPECT_FALSE(h.exp.logicalFailure(frame));
}

TEST(ClusterDecoder, BoundaryEventBecomesNeutralCluster)
{
    Harness h(5);
    PauliFrame frame(h.lattice.numQubits());
    frame.injectX(h.lattice.index(Coord{0, 2})); // top boundary data
    const auto events = h.eventsFor(frame);
    ASSERT_EQ(events.zEvents.size(), 1u);

    ClusterStats stats;
    const Correction corr = h.cluster.decode(events, stats);
    EXPECT_EQ(stats.clusters, 1u);
    applyCorrection(frame, corr);
    EXPECT_FALSE(h.exp.logicalFailure(frame));
}

/** Parameterized: every single error corrected at d = 3, 5, 7. */
class ClusterSingleSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ClusterSingleSweep, EverySingleErrorCorrected)
{
    Harness h(GetParam());
    for (const Coord data : h.lattice.sites(SiteType::Data)) {
        for (int pauli = 0; pauli < 3; ++pauli) {
            PauliFrame frame(h.lattice.numQubits());
            if (pauli == 0 || pauli == 2)
                frame.injectX(h.lattice.index(data));
            if (pauli == 1 || pauli == 2)
                frame.injectZ(h.lattice.index(data));
            const auto events = h.eventsFor(frame);
            applyCorrection(frame, h.cluster.decode(events));
            EXPECT_FALSE(h.exp.logicalFailure(frame))
                << "d=" << GetParam() << " (" << data.row << ","
                << data.col << ") pauli " << pauli;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, ClusterSingleSweep,
                         ::testing::Values(3u, 5u, 7u));

TEST(ClusterDecoder, RandomErrorsWithinGuaranteeCorrected)
{
    Rng rng(314);
    for (std::size_t d : { 3u, 5u, 7u }) {
        Harness h(d);
        const auto data = h.lattice.sites(SiteType::Data);
        const std::size_t t = correctableErrors(d);
        for (int trial = 0; trial < 60; ++trial) {
            PauliFrame frame(h.lattice.numQubits());
            std::set<std::size_t> picked;
            while (picked.size() < t)
                picked.insert(rng.uniformInt(data.size()));
            for (std::size_t k : picked)
                frame.injectX(h.lattice.index(data[k]));
            const auto events = h.eventsFor(frame);
            applyCorrection(frame, h.cluster.decode(events));
            EXPECT_FALSE(h.exp.logicalFailure(frame))
                << "d=" << d << " trial " << trial;
        }
    }
}

TEST(ClusterDecoder, AgreesWithMwpmOnRandomNoise)
{
    // Both decoders must return the system to the code space; they
    // may differ by stabilizers but never disagree on validity.
    Rng rng(2718);
    Harness h(7);
    for (int trial = 0; trial < 40; ++trial) {
        const auto shot = h.exp.sampleShot(
            quest::quantum::ErrorRates{.idle = 2e-3, .meas = 2e-3}, rng);
        const auto events =
            extractDetectionEvents(shot.history, h.extractor);

        PauliFrame a = shot.frame, b = shot.frame;
        applyCorrection(a, h.cluster.decode(events));
        applyCorrection(b, h.mwpm.decode(events));
        EXPECT_TRUE(h.clean(a)) << "cluster left syndrome, trial "
                                << trial;
        EXPECT_TRUE(h.clean(b)) << "mwpm left syndrome, trial "
                                << trial;
    }
}

TEST(ClusterDecoder, TimeLikePairClusterNeedsNoDataCorrection)
{
    Harness h(5);
    DetectionEvents events;
    events.zEvents.push_back(
        DetectionEvent{1, Coord{3, 2}, SiteType::ZAncilla});
    events.zEvents.push_back(
        DetectionEvent{2, Coord{3, 2}, SiteType::ZAncilla});
    ClusterStats stats;
    const Correction corr = h.cluster.decode(events, stats);
    EXPECT_EQ(stats.clusters, 1u);
    EXPECT_EQ(corr.weight(), 0u);
}

TEST(ClusterDecoder, MatchesToTheTileMatchersMaskedBoundary)
{
    // The cluster decoder reads its boundaries through the tile's
    // matcher: masking a check there opens a defect boundary next to
    // the event, closer than the lattice edge three data qubits
    // north.
    Harness h(7);
    const Coord event{5, 6};
    const Coord masked{7, 6};
    const std::size_t masked_index = h.lattice.index(masked);
    h.mwpm.setMaskPredicate(
        [masked_index](std::size_t q) { return q == masked_index; });

    DetectionEvents events;
    events.zEvents.push_back(
        DetectionEvent{0, event, SiteType::ZAncilla});
    const Correction corr = h.cluster.decode(events);
    EXPECT_EQ(corr.xFlips,
              std::vector<std::size_t>{h.lattice.index(Coord{6, 6})});
    EXPECT_TRUE(corr.zFlips.empty());
    EXPECT_EQ(corr.xFlips, h.mwpm.decode(events).xFlips);
}

} // namespace
