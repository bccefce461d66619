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
    NetworkConfig small;
    small.mceCount = 4;
    small.radix = 4;
    EXPECT_EQ(PacketNetwork(small).depth(), 1u);

    NetworkConfig medium = small;
    medium.mceCount = 16;
    EXPECT_EQ(PacketNetwork(medium).depth(), 2u);

    NetworkConfig large = small;
    large.mceCount = 17;
    EXPECT_EQ(PacketNetwork(large).depth(), 3u);
}

TEST(Network, PacketLatencyIsHopsPlusSerialization)
{
    NetworkConfig cfg;
    cfg.mceCount = 4;
    cfg.radix = 4;
    cfg.hopLatency = nanoseconds(5);
    cfg.linkBytesPerTick = 0.004; // 4 GB/s
    PacketNetwork net(cfg);

    // depth 1 -> 2 hops; 2 bytes at 0.004 B/tick -> 500 ticks.
    const PacketTiming t = net.send(0, 2);
    EXPECT_EQ(t.hops, 2u);
    EXPECT_EQ(t.latency, 2 * nanoseconds(5) + 500);
}

TEST(Network, AccountingAccumulates)
{
    NetworkConfig cfg;
    cfg.mceCount = 2;
    PacketNetwork net(cfg);
    net.send(0, 100);
    net.send(1, 300);
    EXPECT_DOUBLE_EQ(net.bytesCarried(), 400.0);
    EXPECT_DOUBLE_EQ(net.packetsCarried(), 2.0);
    EXPECT_GT(net.meanLatencyTicks(), 0.0);
}

TEST(Network, RootUtilizationReflectsLoad)
{
    NetworkConfig cfg;
    cfg.mceCount = 2;
    cfg.linkBytesPerTick = 0.004;
    PacketNetwork net(cfg);
    net.send(0, 4);
    // 4 bytes over 1e6 ticks at 0.004 B/tick capacity -> 0.1%.
    EXPECT_NEAR(net.rootLinkUtilization(1000000), 1e-3, 1e-9);
    EXPECT_DOUBLE_EQ(net.rootLinkUtilization(0), 0.0);
}

TEST(Network, OutOfRangeMcePanics)
{
    quest::sim::setQuiet(true);
    NetworkConfig cfg;
    cfg.mceCount = 2;
    PacketNetwork net(cfg);
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
lossyLatencies(const NetworkConfig &cfg, std::uint64_t fault_seed,
               int n)
{
    quest::sim::FaultConfig fc;
    fc.seed = fault_seed;
    fc.rate(quest::sim::FaultSite::NetworkLoss) = 0.3;
    quest::sim::FaultInjector inj(fc);
    PacketNetwork net(cfg);
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
    NetworkConfig cfg;
    cfg.mceCount = 4;
    EXPECT_EQ(lossyLatencies(cfg, 42, 512),
              lossyLatencies(cfg, 42, 512));
    EXPECT_NE(lossyLatencies(cfg, 42, 512),
              lossyLatencies(cfg, 43, 512));
}

TEST(NetworkJitter, ZeroJitterRestoresDeterministicDoubling)
{
    NetworkConfig plain;
    plain.mceCount = 4;
    plain.retryJitter = 0.0;
    // Backoff with jitter disabled is the pure doubling sequence:
    // independent of the seed entirely.
    EXPECT_EQ(lossyLatencies(plain, 1, 256),
              lossyLatencies(plain, 1, 256));

    // And the jittered schedule really does spread retries: same
    // fault pattern, different waits somewhere in the run.
    NetworkConfig jittered = plain;
    jittered.retryJitter = 0.5;
    EXPECT_NE(lossyLatencies(jittered, 1, 256),
              lossyLatencies(plain, 1, 256));
}

TEST(NetworkJitter, FaultFreePathIgnoresJitterEntirely)
{
    // No injector attached: the zero-overhead path must be
    // bit-identical whatever the jitter knob says.
    NetworkConfig a;
    a.mceCount = 4;
    NetworkConfig b = a;
    b.retryJitter = 0.9;
    PacketNetwork na(a), nb(b);
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
    NetworkConfig cfg;
    cfg.mceCount = 4;
    PacketNetwork a(cfg);
    PacketNetwork b(cfg);
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
    NetworkConfig cfg;
    cfg.mceCount = 4;
    PacketNetwork net(cfg);
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
