/**
 * @file
 * Tests for the inter-MCE logical qubit transfer (footnote-9
 * extension).
 */

#include <gtest/gtest.h>

#include "core/system.hpp"

namespace {

using namespace quest::core;
using quest::qecc::Coord;

MasterConfig
twoTileConfig()
{
    MasterConfig cfg;
    cfg.numMces = 2;
    cfg.mce = tileConfigForLogicalQubits(3);
    return cfg;
}

TEST(Transfer, MovesQubitBetweenMces)
{
    MasterController master(twoTileConfig());
    const int src_id = master.mce(0).defineLogicalQubit(Coord{2, 2});
    EXPECT_EQ(master.mce(0).logicalQubitCount(), 1u);
    EXPECT_EQ(master.mce(1).logicalQubitCount(), 0u);

    const int dst_id =
        master.transferLogicalQubit(0, src_id, 1, Coord{2, 2});
    EXPECT_EQ(master.mce(0).logicalQubitCount(), 0u);
    EXPECT_EQ(master.mce(1).logicalQubitCount(), 1u);
    EXPECT_EQ(dst_id, 0);
}

TEST(Transfer, CostsDistanceRoundsAndBusPackets)
{
    MasterController master(twoTileConfig());
    const int src_id = master.mce(0).defineLogicalQubit(Coord{2, 2});
    const std::size_t rounds_before = master.roundsRun();
    const double logical_before = master.busBytesLogical();
    const double sync_before = master.busBytesSync();

    master.transferLogicalQubit(0, src_id, 1, Coord{2, 2});

    EXPECT_EQ(master.roundsRun() - rounds_before, 3u); // d rounds
    // 4 packets x 2 bytes to each endpoint.
    EXPECT_DOUBLE_EQ(master.busBytesLogical() - logical_before, 16.0);
    EXPECT_DOUBLE_EQ(master.busBytesSync() - sync_before, 4.0);
}

TEST(Transfer, DestinationMaskIsActive)
{
    MasterController master(twoTileConfig());
    const int src_id = master.mce(0).defineLogicalQubit(Coord{2, 2});
    master.transferLogicalQubit(0, src_id, 1, Coord{2, 2});
    EXPECT_EQ(master.mce(0).maskTable().maskedQubitCount(), 0u);
    EXPECT_GT(master.mce(1).maskTable().maskedQubitCount(), 0u);
}

TEST(Transfer, SameMceTransferPanics)
{
    quest::sim::setQuiet(true);
    MasterController master(twoTileConfig());
    const int id = master.mce(0).defineLogicalQubit(Coord{2, 2});
    EXPECT_THROW(master.transferLogicalQubit(0, id, 0, Coord{2, 2}),
                 quest::sim::SimError);
    quest::sim::setQuiet(false);
}

} // namespace
