/**
 * @file
 * Tests for the hardware mask table layouts.
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

TEST_F(MaskTableTest, FullLayoutCapacityIsN)
{
    const MaskTable table(lattice, MaskLayout::Full, 3);
    EXPECT_EQ(table.capacityBits(), lattice.numQubits());
}

TEST_F(MaskTableTest, CoalescedLayoutCapacityIsNOverD2)
{
    // Section 4.5: N/d^2 mask bits.
    const MaskTable table(lattice, MaskLayout::Coalesced, 3);
    EXPECT_LT(table.capacityBits(), lattice.numQubits() / 4);
}

TEST_F(MaskTableTest, ApplyMasksFootprint)
{
    MaskTable table(lattice, MaskLayout::Full, 3);
    const LogicalQubit lq(lattice, Coord{2, 2}, 3);
    table.apply(lq, true);
    for (std::size_t q : lq.maskedAncillas())
        EXPECT_TRUE(table.masked(q));
    EXPECT_EQ(table.maskedQubitCount(), lq.maskedAncillas().size());

    table.apply(lq, false);
    EXPECT_EQ(table.maskedQubitCount(), 0u);
    EXPECT_EQ(table.writeCount(), 2u);
}

TEST_F(MaskTableTest, CoalescedNeverUnderMasks)
{
    MaskTable full(lattice, MaskLayout::Full, 3);
    MaskTable coalesced(lattice, MaskLayout::Coalesced, 3);
    const LogicalQubit lq(lattice, Coord{3, 4}, 3);
    full.apply(lq, true);
    coalesced.apply(lq, true);
    for (std::size_t q = 0; q < lattice.numQubits(); ++q)
        if (full.masked(q)) {
            EXPECT_TRUE(coalesced.masked(q)) << "qubit " << q;
        }
}

TEST_F(MaskTableTest, EachTableKeepsItsOwnWriteCount)
{
    // Tiles each own a table; the `mask_table.writes` row sums them.
    auto &row = quest::sim::metrics::Registry::global().counter(
        "mask_table.writes", "");
    MaskTable a(lattice, MaskLayout::Full, 3);
    MaskTable b(lattice, MaskLayout::Coalesced, 3);
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
