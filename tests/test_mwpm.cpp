/**
 * @file
 * Tests for the global MWPM decoder: exhaustive single/double error
 * correction on small codes, exact-vs-greedy consistency, and the
 * distance-respecting property sweep.
 */

#include <gtest/gtest.h>

#include <set>

#include "decode/mwpm_decoder.hpp"
#include "qecc/distance.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::PauliFrame;
using quest::sim::Rng;

/** Everything needed to decode on a distance-d code. */
struct Harness
{
    explicit Harness(std::size_t d) : exp(d), decoder(lattice) {}

    /** Decode the syndrome of `frame` and return the residual. */
    PauliFrame
    decodeResidual(PauliFrame frame, std::size_t rounds = 1)
    {
        const auto history =
            extractor.runRounds(frame, nullptr, rounds);
        const DetectionEvents events =
            extractDetectionEvents(history, extractor);
        const Correction corr = decoder.decode(events);
        applyCorrection(frame, corr);
        return frame;
    }

    MemoryExperiment exp;
    const Lattice &lattice = exp.lattice();
    const SyndromeExtractor &extractor = exp.extractor();
    MwpmDecoder decoder;
};

TEST(Mwpm, DistanceMetricCountsDataQubits)
{
    Harness h(5);
    const DetectionEvent a{0, Coord{1, 0}, SiteType::ZAncilla};
    const DetectionEvent b{0, Coord{1, 4}, SiteType::ZAncilla};
    const DetectionEvent c{2, Coord{3, 0}, SiteType::ZAncilla};
    EXPECT_EQ(h.decoder.distance(a, b), 2u); // two columns over
    EXPECT_EQ(h.decoder.distance(a, c), 3u); // one row + two rounds
}

TEST(Mwpm, BoundaryDistances)
{
    Harness h(5); // 9x9 lattice
    // Z check at row 1: one data qubit from the north boundary.
    EXPECT_EQ(h.decoder.boundaryDistance(
                  DetectionEvent{0, Coord{1, 2}, SiteType::ZAncilla}),
              1u);
    // Z check at row 7: one from the south boundary.
    EXPECT_EQ(h.decoder.boundaryDistance(
                  DetectionEvent{0, Coord{7, 2}, SiteType::ZAncilla}),
              1u);
    // Middle row 3: min(2, 3) == 2.
    EXPECT_EQ(h.decoder.boundaryDistance(
                  DetectionEvent{0, Coord{3, 2}, SiteType::ZAncilla}),
              2u);
    // X checks use the east/west boundaries.
    EXPECT_EQ(h.decoder.boundaryDistance(
                  DetectionEvent{0, Coord{2, 1}, SiteType::XAncilla}),
              1u);
}

TEST(Mwpm, PathBetweenChecksIsLShaped)
{
    Harness h(5);
    const auto path = h.decoder.pathBetween(Coord{1, 0}, Coord{5, 4});
    // Two row steps + two column steps = 4 data qubits.
    EXPECT_EQ(path.size(), 4u);
    for (std::size_t q : path)
        EXPECT_TRUE(h.lattice.isData(h.lattice.coord(q)));
}

TEST(Mwpm, PathToBoundaryLengthMatchesDistance)
{
    Harness h(5);
    for (const Coord c : h.lattice.sites(SiteType::ZAncilla)) {
        const DetectionEvent e{0, c, SiteType::ZAncilla};
        EXPECT_EQ(h.decoder.pathToBoundary(c).size(),
                  h.decoder.boundaryDistance(e));
    }
}

/** Exhaustive: every single data error on d=3 and d=5 is corrected. */
class SingleErrorSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SingleErrorSweep, EverySingleErrorCorrected)
{
    Harness h(GetParam());
    for (const Coord data : h.lattice.sites(SiteType::Data)) {
        for (int pauli = 0; pauli < 3; ++pauli) {
            PauliFrame frame(h.lattice.numQubits());
            if (pauli == 0 || pauli == 2)
                frame.injectX(h.lattice.index(data));
            if (pauli == 1 || pauli == 2)
                frame.injectZ(h.lattice.index(data));
            PauliFrame residual = h.decodeResidual(frame);
            EXPECT_FALSE(h.exp.logicalFailure(residual))
                << "d=" << GetParam() << " data (" << data.row << ","
                << data.col << ") pauli " << pauli;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, SingleErrorSweep,
                         ::testing::Values(3u, 5u));

/** Exhaustive: every X error pair on d=5 is corrected. */
TEST(Mwpm, EveryDoubleXErrorCorrectedAtDistance5)
{
    Harness h(5);
    const auto data = h.lattice.sites(SiteType::Data);
    for (std::size_t i = 0; i < data.size(); ++i) {
        for (std::size_t j = i + 1; j < data.size(); ++j) {
            PauliFrame frame(h.lattice.numQubits());
            frame.injectX(h.lattice.index(data[i]));
            frame.injectX(h.lattice.index(data[j]));
            PauliFrame residual = h.decodeResidual(frame);
            EXPECT_FALSE(h.exp.logicalFailure(residual))
                << "pair " << i << "," << j;
        }
    }
}

/** Random errors up to the correction guarantee never fail. */
TEST(MwpmProperty, RandomErrorsWithinGuaranteeCorrected)
{
    Rng rng(99);
    for (std::size_t d : { 3u, 5u, 7u }) {
        Harness h(d);
        const auto data = h.lattice.sites(SiteType::Data);
        const std::size_t t = correctableErrors(d);
        for (int trial = 0; trial < 60; ++trial) {
            PauliFrame frame(h.lattice.numQubits());
            // Inject up to t distinct X errors.
            std::set<std::size_t> picked;
            while (picked.size() < t)
                picked.insert(rng.uniformInt(data.size()));
            for (std::size_t k : picked)
                frame.injectX(h.lattice.index(data[k]));
            PauliFrame residual = h.decodeResidual(frame);
            EXPECT_FALSE(h.exp.logicalFailure(residual))
                << "d=" << d << " trial " << trial;
        }
    }
}

TEST(Mwpm, GreedyMatchesAllEvents)
{
    // Force the greedy path with a low exact limit.
    Harness h(7);
    MwpmDecoder greedy(h.lattice, /*exact_limit=*/0);
    PauliFrame frame(h.lattice.numQubits());
    const auto data = h.lattice.sites(SiteType::Data);
    for (std::size_t i = 0; i < data.size(); i += 5)
        frame.injectX(h.lattice.index(data[i]));
    const auto history = h.extractor.runRounds(frame, nullptr, 1);
    const DetectionEvents events =
        extractDetectionEvents(history, h.extractor);
    const Correction corr = greedy.decode(events);
    applyCorrection(frame, corr);
    // Whatever the matching quality, the syndrome must be cleared.
    const SyndromeRound after = h.extractor.runRound(frame, nullptr);
    EXPECT_FALSE(after.any());
}

TEST(Mwpm, ExactAndGreedyAgreeOnTotalWeightForEasyCases)
{
    Harness h(5);
    MwpmDecoder exact(h.lattice, 14);
    MwpmDecoder greedy(h.lattice, 0);
    // An adjacent mid-lattice pair: pairing (weight 1) strictly
    // beats any boundary match (weight 2 each side), so both
    // matchers must find it.
    std::vector<DetectionEvent> events = {
        {0, Coord{3, 2}, SiteType::ZAncilla},
        {0, Coord{3, 4}, SiteType::ZAncilla},
    };
    EXPECT_EQ(exact.matchEvents(events).totalWeight, 1u);
    EXPECT_EQ(greedy.matchEvents(events).totalWeight, 1u);
}

TEST(Mwpm, ExactBeatsOrTiesGreedy)
{
    Harness h(7);
    Rng rng(5);
    MwpmDecoder exact(h.lattice, 14);
    MwpmDecoder greedy(h.lattice, 0);
    const auto zs = h.lattice.sites(SiteType::ZAncilla);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<DetectionEvent> events;
        std::set<std::size_t> picked;
        while (picked.size() < 6)
            picked.insert(rng.uniformInt(zs.size()));
        for (std::size_t k : picked)
            events.push_back(DetectionEvent{
                rng.uniformInt(3), zs[k], SiteType::ZAncilla});
        EXPECT_LE(exact.matchEvents(events).totalWeight,
                  greedy.matchEvents(events).totalWeight)
            << "trial " << trial;
    }
}

TEST(Mwpm, ExactLimitAboveDpCapRejected)
{
    // The bitmask DP allocates 2^exact_limit table entries: 30 would
    // be a multi-GiB allocation, 64 shifts past the word width (UB).
    // Construction must reject anything above the documented cap.
    quest::sim::setQuiet(true);
    Harness h(5);
    EXPECT_THROW(MwpmDecoder(h.lattice, 25), quest::sim::SimError);
    EXPECT_THROW(MwpmDecoder(h.lattice, 30), quest::sim::SimError);
    EXPECT_THROW(MwpmDecoder(h.lattice, 64), quest::sim::SimError);
    EXPECT_NO_THROW(MwpmDecoder(h.lattice,
                                MwpmDecoder::maxExactLimit));
    EXPECT_EQ(MwpmDecoder::maxExactLimit, 24u);
    quest::sim::setQuiet(false);
}

/** Every event index appears in exactly one match. */
bool
matchesCoverAllEvents(const MatchingResult &mr, std::size_t n)
{
    std::vector<int> seen(n, 0);
    for (const Match &m : mr.matches) {
        ++seen[m.a];
        if (!m.toBoundary)
            ++seen[m.b];
    }
    for (std::size_t i = 0; i < n; ++i)
        if (seen[i] != 1)
            return false;
    return true;
}

TEST(Mwpm, ExactVsGreedyEquivalenceAtLimitBoundary)
{
    // A decoder with exact_limit L runs the optimal DP for exactly L
    // events and falls back to the greedy matcher at L+1. At the
    // boundary both regimes must produce complete matchings, the
    // L-event result must equal a reference exact matcher's weight,
    // and the (L+1)-event greedy result may only be heavier than the
    // reference optimum.
    constexpr std::size_t limit = 8;
    Harness h(9);
    MwpmDecoder boundary(h.lattice, limit);
    MwpmDecoder reference(h.lattice, 14); // exact for both sizes
    Rng rng(1234);
    const auto zs = h.lattice.sites(SiteType::ZAncilla);
    for (int trial = 0; trial < 30; ++trial) {
        for (const std::size_t n : { limit, limit + 1 }) {
            std::vector<DetectionEvent> events;
            std::set<std::size_t> picked;
            while (picked.size() < n)
                picked.insert(rng.uniformInt(zs.size()));
            for (std::size_t k : picked)
                events.push_back(DetectionEvent{
                    rng.uniformInt(3), zs[k], SiteType::ZAncilla});

            const MatchingResult got = boundary.matchEvents(events);
            const MatchingResult ref = reference.matchEvents(events);
            EXPECT_TRUE(matchesCoverAllEvents(got, n))
                << "trial " << trial << " n=" << n;
            EXPECT_TRUE(matchesCoverAllEvents(ref, n))
                << "trial " << trial << " n=" << n;
            if (n <= limit)
                EXPECT_EQ(got.totalWeight, ref.totalWeight)
                    << "trial " << trial << ": exact side of the "
                    << "boundary must be optimal";
            else
                EXPECT_GE(got.totalWeight, ref.totalWeight)
                    << "trial " << trial << ": greedy side may not "
                    << "beat the optimum";
        }
    }
}

TEST(Mwpm, MeasurementErrorPairNeedsNoDataCorrection)
{
    Harness h(3);
    // Two time-like events at the same check: pure measurement flip.
    std::vector<DetectionEvent> events = {
        {1, Coord{1, 2}, SiteType::ZAncilla},
        {2, Coord{1, 2}, SiteType::ZAncilla},
    };
    DetectionEvents all;
    all.zEvents = events;
    const Correction corr = h.decoder.decode(all);
    EXPECT_EQ(corr.weight(), 0u);
}

TEST(Mwpm, EmptyEventsYieldEmptyCorrection)
{
    Harness h(3);
    const Correction corr = h.decoder.decode(DetectionEvents{});
    EXPECT_EQ(corr.weight(), 0u);
}

} // namespace
