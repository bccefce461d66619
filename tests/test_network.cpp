/**
 * @file
 * Tests for the packet-switched interconnect model and its
 * integration with the master controller's bus accounting.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/master_controller.hpp"
#include "core/network.hpp"
#include "core/system.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace quest::core;
using quest::sim::nanoseconds;

TEST(Network, TreeDepthGrowsWithMceCount)
{
    static_assert(PacketNetwork::radix == 4);
    EXPECT_EQ(PacketNetwork(1).depth(), 1u);
    EXPECT_EQ(PacketNetwork(4).depth(), 1u);
    EXPECT_EQ(PacketNetwork(16).depth(), 2u);
    EXPECT_EQ(PacketNetwork(17).depth(), 3u);
}

TEST(Network, PacketLatencyIsHopsPlusSerialization)
{
    static_assert(PacketNetwork::hopLatency == nanoseconds(5));
    static_assert(PacketNetwork::linkBytesPerTick == 0.004); // 4 GB/s
    PacketNetwork net(4);

    // depth 1 -> 2 hops; 2 bytes at 0.004 B/tick -> 500 ticks.
    const PacketTiming t = net.send(0, 2);
    EXPECT_EQ(t.hops, 2u);
    EXPECT_EQ(t.latency, 2 * nanoseconds(5) + 500);
}

TEST(Network, AccountingAccumulates)
{
    PacketNetwork net(2);
    net.send(0, 100);
    net.send(1, 300);
    EXPECT_DOUBLE_EQ(net.bytesCarried(), 400.0);
    EXPECT_DOUBLE_EQ(net.packetsCarried(), 2.0);
    EXPECT_GT(net.meanLatencyTicks(), 0.0);
}

TEST(Network, RootUtilizationReflectsLoad)
{
    PacketNetwork net(2);
    net.send(0, 4);
    // 4 bytes over 1e6 ticks at 0.004 B/tick capacity -> 0.1%.
    EXPECT_NEAR(net.rootLinkUtilization(1000000), 1e-3, 1e-9);
    EXPECT_DOUBLE_EQ(net.rootLinkUtilization(0), 0.0);
}

TEST(Network, OutOfRangeMcePanics)
{
    quest::sim::setQuiet(true);
    PacketNetwork net(2);
    EXPECT_THROW(net.send(5, 10), quest::sim::SimError);
    quest::sim::setQuiet(false);
}

TEST(NetworkIntegration, MasterTrafficFlowsThroughNetwork)
{
    MasterConfig cfg;
    cfg.numMces = 2;
    cfg.mce = tileConfigForLogicalQubits(3);
    MasterController master(cfg);
    master.mce(0).defineLogicalQubit(quest::qecc::Coord{2, 2});

    master.dispatch(quest::isa::LogicalInstr{
        quest::isa::LogicalOpcode::Hadamard, 0});
    master.broadcastSync();
    master.dispatchBlock(0, 1,
                         quest::isa::generateDistillationRound(0));

    // Every ledger byte crossed the network.
    EXPECT_DOUBLE_EQ(master.network().bytesCarried(),
                     master.totalBusBytes());
}

TEST(NetworkIntegration, QuestLeavesTheRootLinkNearlyIdle)
{
    // The architectural point: at logical rates the interconnect is
    // essentially idle, whereas the baseline's physical-rate stream
    // would saturate it thousands of times over.
    MasterConfig cfg;
    cfg.numMces = 4;
    cfg.mce = tileConfigForLogicalQubits(3);
    QuestSystem sys(cfg);
    sys.placeLogicalQubits();

    quest::isa::TraceGenConfig t;
    t.numInstructions = 128;
    t.logicalQubits = 4;
    t.maskFraction = 0.0;
    sys.runMixedWorkload(quest::isa::generateApplicationTrace(t),
                         quest::isa::generateDistillationRound(0),
                         512);

    // 512 rounds x 160 ns round.
    const quest::sim::Tick interval =
        512 * quest::sim::nanoseconds(160);
    const double quest_util =
        sys.master().network().rootLinkUtilization(interval);
    EXPECT_LT(quest_util, 0.05);

    const double baseline_util = sys.report().baselineBytes
        / (0.004 * double(interval));
    EXPECT_GT(baseline_util, quest_util * 50);
}

TEST(Network, SingleMceDegenerateTreeConstructs)
{
    // A single MCE is a depth-1 chain: no fan-out needed.
    PacketNetwork net(1);
    EXPECT_TRUE(net.send(0, 4).delivered);
    EXPECT_GE(net.depth(), 1u);
}

/** The registry counter `name`, registered by the network. */
std::uint64_t
row(const char *name)
{
    return quest::sim::metrics::Registry::global().counter(name, "")
        .value();
}

TEST(Network, EachNetworkKeepsItsOwnTotals)
{
    PacketNetwork a(4);
    PacketNetwork b(4);
    const std::uint64_t bytes0 = row("network.bytes");
    const std::uint64_t packets0 = row("network.packets");
    a.send(0, 100);
    a.send(3, 20);
    b.send(1, 7);
    EXPECT_DOUBLE_EQ(a.bytesCarried(), 120.0);
    EXPECT_DOUBLE_EQ(a.packetsCarried(), 2.0);
    EXPECT_DOUBLE_EQ(b.bytesCarried(), 7.0);
    EXPECT_DOUBLE_EQ(b.packetsCarried(), 1.0);
    EXPECT_EQ(row("network.bytes") - bytes0, 127u);
    EXPECT_EQ(row("network.packets") - packets0, 3u);
}

TEST(Network, LatencyHistogramRecordsEveryPacket)
{
    PacketNetwork net(4);
    auto &hist = quest::sim::metrics::Registry::global().histogram(
        "network.latency", "");
    const std::uint64_t count0 = hist.count();
    const std::uint64_t sum0 = hist.sum();
    const std::uint64_t ticks0 = row("network.latency_ticks");

    quest::sim::Tick total = 0;
    for (const std::size_t bytes : {2u, 64u, 512u})
        total += net.send(2, bytes).latency;
    EXPECT_EQ(hist.count() - count0, 3u);
    EXPECT_EQ(hist.sum() - sum0, total);
    EXPECT_EQ(row("network.latency_ticks") - ticks0, total);
    EXPECT_DOUBLE_EQ(net.meanLatencyTicks(), double(total) / 3.0);
}

TEST(Network, SerializationChargesWholeTicksPerByte)
{
    // 4 GB/s is exactly 250 ps per byte, so serialization never
    // rounds: the latency is linear in the packet size.
    PacketNetwork net(4);
    const quest::sim::Tick hops = 2 * PacketNetwork::hopLatency;
    for (const std::size_t bytes : {1u, 3u, 7u, 333u, 4096u})
        EXPECT_EQ(net.send(1, bytes).latency, hops + 250 * bytes)
            << bytes << " bytes";
}

TEST(Network, IdleNetworkReportsNoTraffic)
{
    const PacketNetwork net(16);
    EXPECT_DOUBLE_EQ(net.bytesCarried(), 0.0);
    EXPECT_DOUBLE_EQ(net.packetsCarried(), 0.0);
    EXPECT_DOUBLE_EQ(net.meanLatencyTicks(), 0.0);
    EXPECT_DOUBLE_EQ(net.rootLinkUtilization(1000), 0.0);
}

TEST(Network, UtilizationIsLinearInBytesAndInverseInInterval)
{
    PacketNetwork net(4);
    net.send(0, 40);
    const double u = net.rootLinkUtilization(100000);
    EXPECT_DOUBLE_EQ(u, 40.0 / (0.004 * 100000.0));
    EXPECT_DOUBLE_EQ(net.rootLinkUtilization(200000), u / 2.0);
    net.send(3, 40);
    EXPECT_DOUBLE_EQ(net.rootLinkUtilization(100000), 2.0 * u);
}

TEST(Network, InvalidPacketsAndTreesPanic)
{
    quest::sim::setQuiet(true);
    EXPECT_THROW(PacketNetwork(0), quest::sim::SimError);
    PacketNetwork net(4);
    EXPECT_THROW(net.send(0, 0), quest::sim::SimError);
    EXPECT_THROW(net.hopsToMce(4), quest::sim::SimError);
    quest::sim::setQuiet(false);
    // A refused packet is not accounted.
    EXPECT_DOUBLE_EQ(net.packetsCarried(), 0.0);
}

/** Tree shapes on both sides of each radix-4 level boundary. */
class NetworkTree : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(NetworkTree, DepthIsTheSmallestCoveringPowerOfTheRadix)
{
    const std::size_t mces = GetParam();
    const PacketNetwork net(mces);
    std::size_t reach = 1;
    for (std::size_t level = 0; level < net.depth(); ++level)
        reach *= PacketNetwork::radix;
    EXPECT_GE(reach, mces);
    // One level fewer would not reach every leaf (depth is at least
    // one even for a single MCE).
    if (net.depth() > 1) {
        EXPECT_LT(reach / PacketNetwork::radix, mces);
    }
}

TEST_P(NetworkTree, EveryLeafIsOneHopPastTheDepth)
{
    const std::size_t mces = GetParam();
    PacketNetwork net(mces);
    for (std::size_t i = 0; i < mces; ++i) {
        ASSERT_EQ(net.hopsToMce(i), net.depth() + 1) << "leaf " << i;
        const PacketTiming t = net.send(i, 2);
        EXPECT_EQ(t.hops, net.depth() + 1) << "leaf " << i;
        EXPECT_TRUE(t.delivered) << "leaf " << i;
    }
    EXPECT_DOUBLE_EQ(net.packetsCarried(), double(mces));
}

TEST_P(NetworkTree, LatencyDependsOnlyOnTheTreeAndThePacketSize)
{
    // The model keeps no per-link queue: a packet's latency is the
    // same to every leaf and after any earlier traffic.
    const std::size_t mces = GetParam();
    PacketNetwork net(mces);
    const quest::sim::Tick first = net.send(0, 64).latency;
    for (std::size_t i = 0; i < mces; ++i)
        net.send(i, 4096);
    for (std::size_t i = 0; i < mces; ++i)
        EXPECT_EQ(net.send(i, 64).latency, first) << "leaf " << i;
    EXPECT_EQ(PacketNetwork(mces).send(mces - 1, 64).latency, first);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetworkTree,
                         ::testing::Values(1u, 2u, 4u, 5u, 16u, 17u,
                                           77u));

} // namespace
