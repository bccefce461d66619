/**
 * @file
 * Tests for the memory-experiment readout: logicalFailure() must
 * accept every frame equivalent to no error and reject a residual
 * syndrome and each logical operator. The scalar-vs-batch sampler
 * differential lives with the batch engine (test_batch_frame).
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "qecc/memory_experiment.hpp"

namespace {

using namespace quest::qecc;
using quest::quantum::PauliFrame;

static_assert(!std::is_copy_constructible_v<MemoryExperiment>
              && !std::is_copy_assignable_v<MemoryExperiment>
              && !std::is_move_constructible_v<MemoryExperiment>
              && !std::is_move_assignable_v<MemoryExperiment>,
              "the extractor points into the fixture's own schedule");

class LogicalFailure : public ::testing::TestWithParam<std::size_t>
{
  protected:
    LogicalFailure() : exp(GetParam()) {}

    MemoryExperiment exp;
    const Lattice &lattice = exp.lattice();
    PauliFrame frame{ lattice.numQubits() };
};

TEST_P(LogicalFailure, CleanFrameSucceeds)
{
    EXPECT_FALSE(exp.logicalFailure(frame));
}

TEST_P(LogicalFailure, StabilizerSucceeds)
{
    // X on the support of an X check (Z on a Z check) is a
    // stabilizer: no syndrome and no logical action.
    for (const Coord anc : lattice.sites(SiteType::XAncilla)) {
        PauliFrame f(lattice.numQubits());
        for (const Coord q : lattice.stabilizerSupport(anc))
            f.injectX(lattice.index(q));
        EXPECT_FALSE(exp.logicalFailure(f))
            << "X check (" << anc.row << "," << anc.col << ")";
    }
    for (const Coord anc : lattice.sites(SiteType::ZAncilla)) {
        PauliFrame f(lattice.numQubits());
        for (const Coord q : lattice.stabilizerSupport(anc))
            f.injectZ(lattice.index(q));
        EXPECT_FALSE(exp.logicalFailure(f))
            << "Z check (" << anc.row << "," << anc.col << ")";
    }
}

TEST_P(LogicalFailure, ResidualSyndromeFails)
{
    frame.injectX(lattice.index(Coord{ 2, 2 }));
    EXPECT_TRUE(exp.extractor().runRound(frame, nullptr).any());
    EXPECT_TRUE(exp.logicalFailure(frame));
}

// The logical X operator (an X chain down the left column) is
// syndrome-free and crosses the logical-Z support once, so only the
// parity readout along logicalZSupport can catch it; likewise the
// logical Z operator along logicalXSupport.
TEST_P(LogicalFailure, LogicalXFailsOnLogicalZSupportParity)
{
    for (const Coord c : lattice.logicalXSupport())
        frame.injectX(lattice.index(c));
    EXPECT_FALSE(exp.extractor().runRound(frame, nullptr).any());
    EXPECT_TRUE(exp.logicalFailure(frame));
}

TEST_P(LogicalFailure, LogicalZFailsOnLogicalXSupportParity)
{
    for (const Coord c : lattice.logicalZSupport())
        frame.injectZ(lattice.index(c));
    EXPECT_FALSE(exp.extractor().runRound(frame, nullptr).any());
    EXPECT_TRUE(exp.logicalFailure(frame));
}

INSTANTIATE_TEST_SUITE_P(Distances, LogicalFailure,
                         ::testing::Values(3u, 5u));

TEST(MemoryExperiment, RoundsDefaultToDistance)
{
    const MemoryExperiment by_default(5);
    EXPECT_EQ(by_default.rounds(), 5u);
    const MemoryExperiment longer(5, Protocol::Steane, 10);
    EXPECT_EQ(longer.rounds(), 10u);

    quest::sim::Rng rng(1);
    const auto shot = longer.sampleShot(
        quest::quantum::ErrorRates::uniform(1e-3), rng);
    EXPECT_EQ(shot.history.size(), 11u); // plus the closing round
}

} // namespace
