/**
 * @file
 * Unit tests for the classical fault layer's building blocks: the
 * seeded FaultInjector, the CRC/ACK retransmit path of the packet
 * network, the parity-protected MicrocodeStore and the global
 * decoder's deadline arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/microcode.hpp"
#include "core/network.hpp"
#include "decode/pipeline.hpp"
#include "sim/fault_injector.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "tech/jj_memory.hpp"

namespace {

using namespace quest;
using sim::FaultConfig;
using sim::FaultInjector;
using sim::FaultSite;

TEST(FaultInjector, ZeroRateNeverFiresAndNeverDraws)
{
    FaultInjector inj(FaultConfig::none());
    EXPECT_FALSE(inj.enabled());
    for (int i = 0; i < 1000; ++i)
        for (FaultSite s : sim::allFaultSites)
            EXPECT_FALSE(inj.fire(s));
    // Zero-rate sites skip the Bernoulli draw entirely, so the
    // placement streams are untouched and trials stay at zero.
    for (FaultSite s : sim::allFaultSites)
        EXPECT_EQ(inj.trialCount(s), 0u);
}

TEST(FaultInjector, RateOneAlwaysFires)
{
    FaultInjector inj(FaultConfig::uniform(1.0));
    EXPECT_TRUE(inj.enabled());
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(inj.fire(FaultSite::NetworkLoss));
    EXPECT_EQ(inj.trialCount(FaultSite::NetworkLoss), 100u);
    EXPECT_EQ(inj.firedCount(FaultSite::NetworkLoss), 100u);
}

TEST(FaultInjector, DeterministicReplayUnderFixedSeed)
{
    FaultConfig cfg = FaultConfig::uniform(0.3, /*seed=*/1234);
    FaultInjector a(cfg), b(cfg);
    for (int i = 0; i < 4096; ++i)
        for (FaultSite s : sim::allFaultSites)
            EXPECT_EQ(a.fire(s), b.fire(s));
    for (FaultSite s : sim::allFaultSites)
        EXPECT_EQ(a.firedCount(s), b.firedCount(s));
}

TEST(FaultInjector, SitesHaveIndependentStreams)
{
    // Draining one site's stream must not change another site's
    // sequence -- each site owns its own xoshiro state.
    FaultConfig cfg = FaultConfig::uniform(0.25, /*seed=*/77);
    FaultInjector undisturbed(cfg), disturbed(cfg);

    std::vector<bool> expect;
    for (int i = 0; i < 512; ++i)
        expect.push_back(undisturbed.fire(FaultSite::MceHang));

    for (int i = 0; i < 999; ++i)
        disturbed.fire(FaultSite::NetworkLoss); // interleaved noise
    for (int i = 0; i < 512; ++i)
        EXPECT_EQ(disturbed.fire(FaultSite::MceHang), expect[i]);
}

TEST(FaultInjector, ObservedRateTracksConfiguredRate)
{
    FaultInjector inj(FaultConfig::uniform(0.1, /*seed=*/5));
    const int trials = 20000;
    int hits = 0;
    for (int i = 0; i < trials; ++i)
        hits += inj.fire(FaultSite::MicrocodeSeu) ? 1 : 0;
    EXPECT_NEAR(double(hits) / trials, 0.1, 0.01);
}

TEST(FaultInjector, ReconfigureResetsStreamsAndCounters)
{
    FaultInjector inj(FaultConfig::uniform(0.5, /*seed=*/42));
    std::vector<bool> first;
    for (int i = 0; i < 64; ++i)
        first.push_back(inj.fire(FaultSite::DecoderOverrun));

    inj.configure(FaultConfig::uniform(0.5, /*seed=*/42));
    EXPECT_EQ(inj.trialCount(FaultSite::DecoderOverrun), 0u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(inj.fire(FaultSite::DecoderOverrun), first[i]);
}

TEST(FaultInjector, SitesAreCatalogued)
{
    EXPECT_EQ(sim::faultSiteCount, 5u);
    EXPECT_EQ(std::size(sim::allFaultSites), sim::faultSiteCount);

    // Distinct, non-empty names across the whole catalog.
    std::vector<std::string> names;
    for (FaultSite s : sim::allFaultSites) {
        EXPECT_FALSE(sim::faultSiteName(s).empty());
        names.push_back(sim::faultSiteName(s));
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(FaultInjector, SiteIdsAndNamesArePinned)
{
    // Site ids key the per-site streams and name the report rows;
    // renumbering one would silently change every fault-sweep figure.
    const std::pair<FaultSite, const char *> expected[] = {
        {FaultSite::NetworkLoss, "network-loss"},
        {FaultSite::NetworkCorruption, "network-corruption"},
        {FaultSite::MicrocodeSeu, "microcode-seu"},
        {FaultSite::DecoderOverrun, "decoder-overrun"},
        {FaultSite::MceHang, "mce-hang"},
    };
    ASSERT_EQ(std::size(expected), sim::faultSiteCount);
    for (std::size_t i = 0; i < sim::faultSiteCount; ++i) {
        EXPECT_EQ(std::size_t(expected[i].first), i);
        EXPECT_EQ(sim::allFaultSites[i], expected[i].first);
        EXPECT_EQ(sim::faultSiteName(expected[i].first),
                  expected[i].second);
    }
}

TEST(FaultInjector, SiteStreamIsKeyedBySeedAndSiteId)
{
    // Each site draws from an Rng seeded with seed ^ K*(id+1), the
    // contract that keeps seeded fault runs byte-identical.
    const std::uint64_t seed = 0x5EEDFAB5;
    FaultInjector inj(FaultConfig::uniform(0.3, seed));
    for (FaultSite s : sim::allFaultSites) {
        sim::Rng ref(seed
                     ^ (0x9E3779B97F4A7C15ull * (std::size_t(s) + 1)));
        for (int i = 0; i < 256; ++i)
            ASSERT_EQ(inj.fire(s), ref.bernoulli(0.3))
                << sim::faultSiteName(s) << " draw " << i;
    }
}

TEST(FaultInjector, SingleSiteRateEnablesOnlyThatSite)
{
    FaultConfig cfg = FaultConfig::none();
    cfg.rate(FaultSite::MceHang) = 1.0;
    EXPECT_TRUE(cfg.anyEnabled());
    FaultInjector inj(cfg);
    EXPECT_TRUE(inj.enabled());
    for (FaultSite s : sim::allFaultSites) {
        const bool hang = s == FaultSite::MceHang;
        EXPECT_EQ(inj.fire(s), hang) << sim::faultSiteName(s);
        EXPECT_EQ(inj.trialCount(s), hang ? 1u : 0u)
            << sim::faultSiteName(s);
    }
}

TEST(FaultInjector, RateOutsideUnitIntervalPanics)
{
    sim::setQuiet(true);
    FaultConfig cfg = FaultConfig::none();
    cfg.rate(FaultSite::NetworkLoss) = 1.5;
    EXPECT_THROW(FaultInjector{cfg}, sim::SimError);
    cfg.rate(FaultSite::NetworkLoss) = -0.1;
    EXPECT_THROW(FaultInjector{cfg}, sim::SimError);
    sim::setQuiet(false);
}

// --- PacketNetwork ARQ ---------------------------------------------

TEST(NetworkArq, FaultFreeNetworkMatchesNoInjector)
{
    // An attached injector with all-zero rates must leave the
    // accounting bit-identical to a network with no injector at all.
    core::PacketNetwork plain(4);
    core::PacketNetwork guarded(4);
    FaultInjector idle(FaultConfig::none());
    guarded.attachFaults(&idle);

    for (std::size_t i = 0; i < 4; ++i) {
        const auto tp = plain.send(i, 16);
        const auto tg = guarded.send(i, 16);
        EXPECT_EQ(tp.latency, tg.latency);
        EXPECT_EQ(tp.hops, tg.hops);
        EXPECT_EQ(tg.attempts, 1u);
        EXPECT_TRUE(tg.delivered);
    }
    EXPECT_DOUBLE_EQ(plain.bytesCarried(), guarded.bytesCarried());
    EXPECT_DOUBLE_EQ(guarded.protocolOverheadBytes(), 0.0);
    EXPECT_DOUBLE_EQ(guarded.retransmits(), 0.0);
}

TEST(NetworkArq, LossIsRecoveredByRetransmission)
{
    core::PacketNetwork net(4);
    FaultConfig cfg;
    cfg.rate(FaultSite::NetworkLoss) = 0.4;
    cfg.seed = 99;
    FaultInjector inj(cfg);
    net.attachFaults(&inj);

    std::size_t delivered = 0;
    for (int i = 0; i < 500; ++i)
        delivered += net.send(std::size_t(i) % 4, 8).delivered ? 1 : 0;
    // At 40% loss with a 4-retry budget, P(all 5 attempts lost) is
    // ~1%: nearly everything still gets through.
    EXPECT_GT(delivered, 480u);
    EXPECT_GT(net.lostPackets(), 0.0);
    EXPECT_GT(net.retransmits(), 0.0);
    // With no corruption, every lost attempt triggers a retransmit
    // except the final attempt of a budget-exhausted packet.
    EXPECT_DOUBLE_EQ(net.retransmits(),
                     net.lostPackets() - net.deliveryFailures());
    // Every attempt pays the CRC trailer; every surviving attempt
    // pays the ACK/NACK token.
    EXPECT_GT(net.protocolOverheadBytes(), 0.0);
}

TEST(NetworkArq, CorruptionIsRecoveredByRetransmission)
{
    core::PacketNetwork net(4);
    FaultConfig cfg;
    cfg.rate(FaultSite::NetworkCorruption) = 0.3;
    FaultInjector inj(cfg);
    net.attachFaults(&inj);

    for (int i = 0; i < 300; ++i)
        EXPECT_TRUE(net.send(std::size_t(i) % 4, 8).delivered);
    EXPECT_GT(net.corruptedPackets(), 0.0);
    EXPECT_DOUBLE_EQ(net.lostPackets(), 0.0);
    EXPECT_GE(net.retransmits(), net.corruptedPackets());
}

TEST(NetworkArq, RetryBudgetExhaustionIsReportedNotFatal)
{
    core::PacketNetwork net(4);
    FaultConfig cfg;
    cfg.rate(FaultSite::NetworkLoss) = 1.0; // nothing ever arrives
    FaultInjector inj(cfg);
    net.attachFaults(&inj);

    const auto t = net.send(0, 8);
    EXPECT_FALSE(t.delivered);
    constexpr std::size_t attempts = core::PacketNetwork::retryLimit + 1;
    EXPECT_EQ(t.attempts, attempts);
    EXPECT_DOUBLE_EQ(net.deliveryFailures(), 1.0);
    // Every attempt pays the CRC trailer and is lost before any ACK.
    EXPECT_DOUBLE_EQ(net.lostPackets(), double(attempts));
    EXPECT_DOUBLE_EQ(net.retransmits(), double(attempts - 1));
    EXPECT_DOUBLE_EQ(net.protocolOverheadBytes(),
                     double(attempts * core::PacketNetwork::crcBytes));
    EXPECT_DOUBLE_EQ(net.bytesCarried(),
                     double(attempts * 8) + net.protocolOverheadBytes());
    // Each retry waits at least the unjittered share of its doubling
    // backoff step.
    sim::Tick min_backoff = 0;
    for (std::size_t k = 0; k + 1 < attempts; ++k)
        min_backoff += sim::Tick(
            double(core::PacketNetwork::retryBackoff << k)
            * (1.0 - core::PacketNetwork::retryJitter));
    EXPECT_GE(t.latency, min_backoff);
}

TEST(NetworkArq, BackoffGrowsLatencyWithAttempts)
{
    core::PacketNetwork net(4);
    FaultConfig cfg;
    cfg.rate(FaultSite::NetworkLoss) = 1.0;
    FaultInjector inj(cfg);
    net.attachFaults(&inj);

    const auto worst = net.send(0, 8);
    core::PacketNetwork clean(4);
    const auto best = clean.send(0, 8);
    // Full retry ladder (timeouts + exponential backoff) costs far
    // more than one clean traversal.
    EXPECT_GT(worst.latency, best.latency * worst.attempts);
}

TEST(NetworkArq, SingleMceDegenerateTreeConstructs)
{
    // A single MCE is a depth-1 chain: no fan-out needed.
    core::PacketNetwork net(1);
    EXPECT_TRUE(net.send(0, 4).delivered);
    EXPECT_GE(net.depth(), 1u);
}

TEST(NetworkArq, ProtocolCountsFeedTheNetworkRows)
{
    // The network's own counts are the only copy of the ARQ ledger:
    // each `network.*` row moves by exactly what the accessor reads.
    core::PacketNetwork net(4);
    FaultConfig cfg;
    cfg.rate(FaultSite::NetworkLoss) = 0.5;
    cfg.rate(FaultSite::NetworkCorruption) = 0.3;
    cfg.seed = 5;
    FaultInjector inj(cfg);
    net.attachFaults(&inj);

    auto &reg = sim::metrics::Registry::global();
    const std::pair<const char *, double (core::PacketNetwork::*)()
                                      const>
        rows[] = {
            { "network.retransmits", &core::PacketNetwork::retransmits },
            { "network.packets_lost", &core::PacketNetwork::lostPackets },
            { "network.packets_corrupted",
              &core::PacketNetwork::corruptedPackets },
            { "network.delivery_failures",
              &core::PacketNetwork::deliveryFailures },
            { "network.protocol_overhead_bytes",
              &core::PacketNetwork::protocolOverheadBytes },
        };
    std::vector<std::uint64_t> before;
    for (const auto &[name, get] : rows)
        before.push_back(reg.counter(name, "").value());

    for (int i = 0; i < 200; ++i)
        net.send(std::size_t(i) % 4, 8);
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const double own = (net.*rows[i].second)();
        EXPECT_GT(own, 0.0) << rows[i].first;
        EXPECT_EQ(double(reg.counter(rows[i].first, "").value()
                         - before[i]),
                  own)
            << rows[i].first;
    }
}

// --- MicrocodeStore parity model -----------------------------------

TEST(MicrocodeStore, SingleFlipIsParityDetectable)
{
    core::MicrocodeStore store(/*bits=*/4096);
    EXPECT_FALSE(store.corrupted());
    sim::Rng rng(3);
    store.flipRandomBit(rng);
    EXPECT_TRUE(store.corrupted());
    EXPECT_EQ(store.flippedBits(), 1u);
    EXPECT_EQ(store.parityErrorWords(), 1u);
    EXPECT_EQ(store.silentBits(), 0u);
}

TEST(MicrocodeStore, DoubleFlipInOneWordIsSilent)
{
    // Force two flips into the same word by using a one-word store.
    core::MicrocodeStore store(/*bits=*/32);
    sim::Rng rng(3);
    store.flipRandomBit(rng);
    store.flipRandomBit(rng);
    EXPECT_EQ(store.flippedBits(), 2u);
    EXPECT_EQ(store.parityErrorWords(), 0u); // even parity: hidden
    EXPECT_EQ(store.silentBits(), 2u);
    EXPECT_TRUE(store.corrupted());
}

TEST(MicrocodeStore, RepairClearsDetectedAndSilentCorruption)
{
    core::MicrocodeStore store(/*bits=*/1024);
    sim::Rng rng(11);
    for (int i = 0; i < 7; ++i)
        store.flipRandomBit(rng);
    EXPECT_TRUE(store.corrupted());
    EXPECT_EQ(store.repair(), store.imageBytes());
    EXPECT_FALSE(store.corrupted());
    EXPECT_EQ(store.flippedBits(), 0u);
    EXPECT_EQ(store.parityErrorWords(), 0u);
    EXPECT_EQ(store.silentBits(), 0u);
}

TEST(MicrocodeStore, ImageBytesRoundsUp)
{
    EXPECT_EQ(core::MicrocodeStore(8).imageBytes(), 1u);
    EXPECT_EQ(core::MicrocodeStore(9).imageBytes(), 2u);
    EXPECT_EQ(core::MicrocodeStore(4096).imageBytes(), 512u);
}

TEST(JjMemory, ParityAndReuploadHelpers)
{
    EXPECT_EQ(tech::JJMemoryModel::imageWords(4096),
              4096 / tech::microcodeWordBits);
    EXPECT_EQ(tech::JJMemoryModel::parityOverheadBits(4096),
              4096 / tech::microcodeWordBits);
    // 4096 bits = 512 bytes at 1 MB/s -> 512 us.
    EXPECT_NEAR(tech::JJMemoryModel::reuploadSeconds(4096, 1e6),
                512e-6, 1e-9);
}

// --- Decode deadline arithmetic ------------------------------------

TEST(DecodeDeadline, DisabledWindowNeverOverruns)
{
    decode::DecodeDeadline dl; // windowTicks == 0
    EXPECT_FALSE(dl.overruns(0));
    EXPECT_FALSE(dl.overruns(100000));
    EXPECT_DOUBLE_EQ(dl.stretch(100000), 1.0);
}

TEST(DecodeDeadline, QuadraticCostCrossesTheWindow)
{
    decode::DeadlineConfig cfg;
    cfg.windowTicks = sim::nanoseconds(1000);
    decode::DecodeDeadline dl(cfg);

    // 50 + 20 E^2 <= 1000  <=>  E <= 6.
    EXPECT_FALSE(dl.overruns(6));
    EXPECT_TRUE(dl.overruns(7));
    EXPECT_DOUBLE_EQ(dl.stretch(6), 1.0);
    EXPECT_GT(dl.stretch(7), 1.0);
    // Stretch equals mwpmTicks / window once past the deadline.
    EXPECT_DOUBLE_EQ(dl.stretch(10),
                     double(dl.mwpmTicks(10))
                         / double(cfg.windowTicks));
}

TEST(DecodeDeadline, DisabledWindowNeverDrawsInjectedOverruns)
{
    // No budget, no deadline model: the DecoderOverrun stream stays
    // untouched even at rate 1, so a run without the model keeps
    // every other consumer's fault stream where it was.
    FaultInjector faults(FaultConfig::uniform(1.0));
    decode::DeadlineConfig cfg; // windowTicks == 0
    cfg.faults = &faults;
    const decode::DecodeDeadline dl(cfg);
    for (std::size_t events : {1u, 7u, 100000u})
        EXPECT_FALSE(dl.overruns(events));
    EXPECT_EQ(faults.trialCount(FaultSite::DecoderOverrun), 0u);
}

TEST(DecodeDeadline, InjectedOverrunDrawsOncePerDecode)
{
    // A generous budget: analytically nothing overruns, so every
    // overrun below is injected. The trial is drawn on every call,
    // including calls the analytic check alone would fail.
    FaultInjector faults(FaultConfig::uniform(1.0));
    decode::DeadlineConfig cfg;
    cfg.windowTicks = sim::microseconds(1000);
    cfg.faults = &faults;
    const decode::DecodeDeadline dl(cfg);
    EXPECT_TRUE(dl.overruns(1));
    EXPECT_TRUE(dl.overruns(2));
    EXPECT_EQ(faults.trialCount(FaultSite::DecoderOverrun), 2u);
    EXPECT_DOUBLE_EQ(dl.stretch(2), 1.0);

    // At rate 0 the site never fires and draws nothing.
    FaultInjector quiet(FaultConfig::none());
    cfg.faults = &quiet;
    const decode::DecodeDeadline calm(cfg);
    EXPECT_FALSE(calm.overruns(1));
    EXPECT_EQ(quiet.trialCount(FaultSite::DecoderOverrun), 0u);
}

} // namespace
