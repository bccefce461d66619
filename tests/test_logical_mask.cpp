/**
 * @file
 * Tests for logical qubit geometry.
 */

#include <gtest/gtest.h>

#include "qecc/logical_mask.hpp"

namespace {

using namespace quest::qecc;

class LogicalMaskTest : public ::testing::Test
{
  protected:
    LogicalMaskTest() : lattice(11, 17) {}
    Lattice lattice;
};

TEST_F(LogicalMaskTest, DoubleDefectGeometry)
{
    const LogicalQubit lq(lattice, Coord{2, 2}, 3);
    EXPECT_TRUE(lq.fits());
    EXPECT_EQ(lq.defectA().topLeft, (Coord{2, 2}));
    EXPECT_EQ(lq.defectA().size, 3u);
    // Second defect offset by 2d columns (d data qubits away).
    EXPECT_EQ(lq.defectB().topLeft, (Coord{2, 8}));
}

TEST_F(LogicalMaskTest, DoesNotFitNearEdge)
{
    const LogicalQubit lq(lattice, Coord{2, 10}, 3);
    EXPECT_FALSE(lq.fits());
}

TEST_F(LogicalMaskTest, MaskedAncillasIncludePerimeter)
{
    const LogicalQubit lq(lattice, Coord{2, 2}, 3);
    const auto masked = lq.maskedAncillas();
    EXPECT_FALSE(masked.empty());
    // An ancilla inside defect A.
    EXPECT_NE(std::find(masked.begin(), masked.end(),
                        lattice.index(Coord{3, 2})),
              masked.end());
    // An ancilla on the one-site perimeter ring.
    EXPECT_NE(std::find(masked.begin(), masked.end(),
                        lattice.index(Coord{1, 2})),
              masked.end());
    // Every masked index is an ancilla.
    for (std::size_t q : masked)
        EXPECT_TRUE(lattice.isAncilla(lattice.coord(q)));
}

TEST_F(LogicalMaskTest, FootprintCoversBothDefects)
{
    const LogicalQubit lq(lattice, Coord{2, 2}, 3);
    const auto fp = lq.footprint();
    EXPECT_EQ(fp.size(), 2u * 3u * 3u);
}

TEST_F(LogicalMaskTest, MoveShiftsBothDefects)
{
    LogicalQubit lq(lattice, Coord{2, 2}, 3);
    lq.move(1, 2);
    EXPECT_EQ(lq.defectA().topLeft, (Coord{3, 4}));
    EXPECT_EQ(lq.defectB().topLeft, (Coord{3, 10}));
}

TEST_F(LogicalMaskTest, ExpandContractRoundTrip)
{
    LogicalQubit lq(lattice, Coord{3, 3}, 3);
    const auto before = lq.footprint();
    lq.expandA(1);
    EXPECT_EQ(lq.defectA().size, 5u);
    EXPECT_GT(lq.footprint().size(), before.size());
    lq.contractA(1);
    EXPECT_EQ(lq.footprint(), before);
}

TEST_F(LogicalMaskTest, ContractBelowMinimumPanics)
{
    quest::sim::setQuiet(true);
    LogicalQubit lq(lattice, Coord{2, 2}, 3);
    lq.contractA(1); // size 3 -> 1
    EXPECT_THROW(lq.contractA(1), quest::sim::SimError);
    quest::sim::setQuiet(false);
}

} // namespace
