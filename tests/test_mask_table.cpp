/**
 * @file
 * Tests for the hardware mask table and the coalesced capacity model.
 */

#include <gtest/gtest.h>

#include "core/mask_table.hpp"

namespace {

using namespace quest::core;
using quest::qecc::Coord;
using quest::qecc::Lattice;
using quest::qecc::LogicalQubit;

class MaskTableTest : public ::testing::Test
{
  protected:
    MaskTableTest() : lattice(11, 17) {}
    Lattice lattice;
};

TEST_F(MaskTableTest, CapacityIsOneBitPerQubit)
{
    const MaskTable table(lattice);
    EXPECT_EQ(table.capacityBits(), lattice.numQubits());
}

TEST_F(MaskTableTest, ApplyMasksFootprint)
{
    MaskTable table(lattice);
    const LogicalQubit lq(lattice, Coord{2, 2}, 3);
    table.apply(lq, true);
    for (std::size_t q : lq.maskedAncillas())
        EXPECT_TRUE(table.masked(q));
    EXPECT_EQ(table.maskedQubitCount(), lq.maskedAncillas().size());

    table.apply(lq, false);
    EXPECT_EQ(table.maskedQubitCount(), 0u);
    EXPECT_EQ(table.writeCount(), 2u);
}

TEST_F(MaskTableTest, ClearUnmasksEveryQubit)
{
    MaskTable table(lattice);
    const LogicalQubit a(lattice, Coord{2, 2}, 3);
    const LogicalQubit b(lattice, Coord{6, 2}, 3);
    table.apply(a, true);
    table.apply(b, true);
    std::size_t masked = 0;
    for (std::size_t q = 0; q < lattice.numQubits(); ++q)
        masked += table.masked(q) ? 1 : 0;
    EXPECT_GT(masked, a.maskedAncillas().size());
    EXPECT_EQ(table.maskedQubitCount(), masked);

    table.clear();
    EXPECT_EQ(table.maskedQubitCount(), 0u);
    for (std::size_t q = 0; q < lattice.numQubits(); ++q)
        EXPECT_FALSE(table.masked(q)) << "qubit " << q;
    EXPECT_EQ(table.writeCount(), 3u);
}

TEST_F(MaskTableTest, CoalescedCapacityIsOneBitPerDxDBlock)
{
    // Section 4.5: about N/d^2 bits, one per d x d block, with the
    // partial blocks on the far edges rounded up.
    EXPECT_EQ(coalescedMaskBits(lattice, 3), 4u * 6u);
    EXPECT_EQ(coalescedMaskBits(lattice, 1), lattice.numQubits());
    EXPECT_LT(coalescedMaskBits(lattice, 3), lattice.numQubits() / 4);
}

TEST(CoalescedCapacity, MatchesTheAblationTable)
{
    // The coalesced column of the microcode ablation: a d-distance
    // tile of (2d-1) x 8d sites needs 16 bits at every distance.
    for (const std::size_t d : {3u, 5u, 7u, 11u}) {
        const Lattice lattice(2 * d - 1, 8 * d);
        EXPECT_EQ(coalescedMaskBits(lattice, d), 16u) << "d=" << d;
    }
}

TEST_F(MaskTableTest, EachTableKeepsItsOwnWriteCount)
{
    // Tiles each own a table; the `mask_table.writes` row sums them.
    auto &row = quest::sim::metrics::Registry::global().counter(
        "mask_table.writes", "");
    MaskTable a(lattice);
    MaskTable b(lattice);
    const std::uint64_t before = row.value();
    const LogicalQubit lq(lattice, Coord{2, 2}, 3);
    a.apply(lq, true);
    a.apply(lq, false);
    a.clear(); // a recompute-from-scratch is a write too
    b.apply(lq, true);
    EXPECT_EQ(a.writeCount(), 3u);
    EXPECT_EQ(b.writeCount(), 1u);
    EXPECT_EQ(row.value() - before, 4u);
}

} // namespace
