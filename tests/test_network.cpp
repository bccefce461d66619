/**
 * @file
 * Tests for the packet-switched interconnect model and its
 * integration with the master controller's bus accounting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/master_controller.hpp"
#include "core/network.hpp"
#include "core/system.hpp"
#include "sim/fault_injector.hpp"
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

/** Drive `n` sends through a lossy network; collect latencies. */
std::vector<quest::sim::Tick>
lossyLatencies(std::uint64_t fault_seed, int n)
{
    quest::sim::FaultConfig fc;
    fc.seed = fault_seed;
    fc.rate(quest::sim::FaultSite::NetworkLoss) = 0.3;
    quest::sim::FaultInjector inj(fc);
    PacketNetwork net(4);
    net.attachFaults(&inj);
    std::vector<quest::sim::Tick> lat;
    lat.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i)
        lat.push_back(net.send(0, 8).latency);
    return lat;
}

TEST(NetworkJitter, BackoffJitterReplaysBitForBit)
{
    // The jitter stream is seeded off the injector, never the wall
    // clock: identical seeds must give identical retransmission
    // timing, delivery for delivery.
    EXPECT_EQ(lossyLatencies(42, 512), lossyLatencies(42, 512));
    EXPECT_NE(lossyLatencies(42, 512), lossyLatencies(43, 512));
}

TEST(NetworkJitter, FaultFreePathIgnoresJitterEntirely)
{
    // An idle injector reseeds the jitter stream, but the fault-free
    // path never draws from it: the timing is bit-identical whatever
    // the fault seed, one attempt per packet.
    quest::sim::FaultInjector idle_a(quest::sim::FaultConfig::none());
    quest::sim::FaultConfig other = quest::sim::FaultConfig::none();
    other.seed = 7;
    quest::sim::FaultInjector idle_b(other);
    PacketNetwork na(4), nb(4);
    na.attachFaults(&idle_a);
    nb.attachFaults(&idle_b);
    for (int i = 0; i < 64; ++i) {
        const PacketTiming ta = na.send(i % 4, 16);
        const PacketTiming tb = nb.send(i % 4, 16);
        EXPECT_EQ(ta.latency, tb.latency);
        EXPECT_EQ(ta.attempts, 1u);
        EXPECT_EQ(tb.attempts, 1u);
    }
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

} // namespace
