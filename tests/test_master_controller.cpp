/**
 * @file
 * Tests for the master controller: routing, bus accounting, the
 * global decode loop, and how its counts reach the metrics snapshot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/master_controller.hpp"
#include "core/system.hpp"
#include "decode/pipeline.hpp"
#include "isa/trace.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace quest::core;
using quest::isa::LogicalInstr;
using quest::isa::LogicalOpcode;
using quest::isa::LogicalTrace;
using quest::qecc::Coord;
using quest::sim::metrics::Registry;

MasterConfig
smallMaster(std::size_t mces = 2)
{
    MasterConfig cfg;
    cfg.numMces = mces;
    cfg.mce = tileConfigForLogicalQubits(3);
    return cfg;
}

TEST(Master, ConstructsRequestedMces)
{
    MasterController master(smallMaster(3));
    EXPECT_EQ(master.numMces(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(master.mce(i).lattice().numQubits(),
                  master.mce(0).lattice().numQubits());
}

TEST(Master, DispatchRoutesByOperandModulo)
{
    MasterController master(smallMaster(2));
    master.mce(0).defineLogicalQubit(Coord{2, 2});
    master.mce(1).defineLogicalQubit(Coord{2, 2});

    // Operand 0 -> MCE 0 local L0; operand 1 -> MCE 1 local L0.
    const double before0 = master.mce(0).logicalUopsIssued();
    const double before1 = master.mce(1).logicalUopsIssued();
    master.dispatch(LogicalInstr{LogicalOpcode::Hadamard, 0});
    EXPECT_GT(master.mce(0).logicalUopsIssued(), before0);
    EXPECT_EQ(master.mce(1).logicalUopsIssued(), before1);

    master.dispatch(LogicalInstr{LogicalOpcode::Hadamard, 1});
    EXPECT_GT(master.mce(1).logicalUopsIssued(), before1);
}

TEST(Master, BusBytesPerLogicalInstruction)
{
    MasterController master(smallMaster(2));
    master.mce(0).defineLogicalQubit(Coord{2, 2});
    master.dispatch(LogicalInstr{LogicalOpcode::Hadamard, 0});
    master.dispatch(LogicalInstr{LogicalOpcode::Hadamard, 0});
    EXPECT_DOUBLE_EQ(master.busBytesLogical(),
                     2.0 * quest::tech::logicalInstrBytes);
}

TEST(Master, SyncTokensCountedSeparately)
{
    MasterController master(smallMaster(2));
    master.dispatch(LogicalInstr{LogicalOpcode::SyncToken, 0});
    master.broadcastSync();
    EXPECT_DOUBLE_EQ(master.busBytesSync(), 2.0 + 2.0 * 2.0);
    EXPECT_DOUBLE_EQ(master.busBytesLogical(), 0.0);
}

TEST(Master, StepRoundAdvancesAllMces)
{
    MasterController master(smallMaster(2));
    master.runRounds(7);
    EXPECT_EQ(master.roundsRun(), 7u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(master.mce(i).roundsRun(), 7u);
}

TEST(Master, GlobalDecodeHandlesResidualChains)
{
    MasterConfig cfg = smallMaster(1);
    cfg.decodeWindowRounds = 2;
    MasterController master(cfg);
    Mce &mce = master.mce(0);

    // A chain the LUT cannot resolve locally.
    mce.frame().injectX(mce.lattice().index(Coord{3, 3}));
    mce.frame().injectX(mce.lattice().index(Coord{3, 5}));
    master.runRounds(2); // triggers a decode at the window edge

    EXPECT_GT(master.busBytesSyndrome(), 0.0);
    EXPECT_GT(master.busBytesCorrections(), 0.0);
    EXPECT_EQ(mce.residualErrorWeight(), 0u);
}

TEST(Master, BaselineEquivalentBytesFormula)
{
    MasterConfig cfg = smallMaster(2);
    MasterController master(cfg);
    master.runRounds(4);
    const auto &spec = quest::qecc::protocolSpec(cfg.mce.protocol);
    const double expected = 2.0 * 4.0 * double(spec.depth())
        * double(master.mce(0).lattice().numQubits());
    EXPECT_DOUBLE_EQ(master.baselineEquivalentBytes(), expected);
}

TEST(Master, CacheTrafficAccountedOnBlockDispatch)
{
    MasterController master(smallMaster(1));
    const LogicalTrace body =
        quest::isa::generateDistillationRound(0);

    const ICacheAccess first = master.dispatchBlock(0, 1, body);
    EXPECT_FALSE(first.hit);
    const ICacheAccess second = master.dispatchBlock(0, 1, body);
    EXPECT_TRUE(second.hit);
    EXPECT_DOUBLE_EQ(master.busBytesCacheTraffic(),
                     double(body.bytes() + replayTokenBytes));
}

TEST(Master, TotalIsSumOfCategories)
{
    MasterController master(smallMaster(1));
    master.mce(0).defineLogicalQubit(Coord{2, 2});
    master.dispatch(LogicalInstr{LogicalOpcode::Hadamard, 0});
    master.broadcastSync();
    master.dispatchBlock(0, 1,
                         quest::isa::generateDistillationRound(0));
    EXPECT_DOUBLE_EQ(master.totalBusBytes(),
                     master.busBytesLogical() + master.busBytesSync()
                         + master.busBytesSyndrome()
                         + master.busBytesCorrections()
                         + master.busBytesCacheTraffic());
}

/** Row `name` of the registry snapshot; nullopt when absent. */
std::optional<double>
snapshotRow(const std::string &name)
{
    std::string snap = "\n";
    snap += quest::sim::metricsSnapshot();
    const std::size_t at = snap.find("\n" + name + " ");
    if (at == std::string::npos)
        return std::nullopt;
    return std::stod(snap.substr(at + name.size() + 2));
}

/** A tile's TileStats counts by row name. */
std::map<std::string, double>
tileCounts(Mce &mce)
{
    std::map<std::string, double> out;
    mce.stats().visitValues(
        [&](const std::string &name, double v) { out[name] = v; });
    return out;
}

TEST(MasterStats, SnapshotSumsEveryTile)
{
    // Tiles 0 and 1 hold a logical qubit and tile 2 does not, so the
    // tiles' counts differ; the snapshot must carry their sum, not
    // whichever tile was visited last.
    Registry::global().reset();
    MasterController master(smallMaster(3));
    master.mce(0).defineLogicalQubit(Coord{2, 2});
    master.mce(1).defineLogicalQubit(Coord{2, 2});
    master.dispatch(LogicalInstr{LogicalOpcode::Hadamard, 0});
    master.runRounds(10);
    ASSERT_NE(tileCounts(master.mce(0)), tileCounts(master.mce(2)));

    for (const char *name :
         { "exec_unit.latches", "exec_unit.master_clocks",
           "exec_unit.fired_instructions", "mask_table.writes" }) {
        double sum = 0.0;
        for (std::size_t i = 0; i < master.numMces(); ++i)
            sum += tileCounts(master.mce(i)).at(name);
        EXPECT_GT(sum, 0.0) << name;
        EXPECT_EQ(snapshotRow(name), sum) << name;
    }
}

MasterConfig
noisyMaster(std::uint64_t seed)
{
    MasterConfig cfg = smallMaster(2);
    cfg.mce.errorRates =
        quest::quantum::ErrorRates{.idle = 1e-3, .meas = 1e-3};
    cfg.mce.seed = seed;
    return cfg;
}

void
runWorkload(QuestSystem &sys)
{
    quest::isa::TraceGenConfig tc;
    tc.numInstructions = 96;
    tc.logicalQubits = sys.master().numMces();
    tc.maskFraction = 0.0;
    sys.placeLogicalQubits();
    sys.runMixedWorkload(quest::isa::generateApplicationTrace(tc),
                         quest::isa::generateDistillationRound(0),
                         /*rounds=*/64);
}

/** Every bus-byte count of a master, by its row name. */
std::vector<std::pair<std::string, double>>
masterCounts(const MasterController &m)
{
    return {
        { "master.bus_bytes_logical", m.busBytesLogical() },
        { "master.bus_bytes_sync", m.busBytesSync() },
        { "master.bus_bytes_syndrome", m.busBytesSyndrome() },
        { "master.bus_bytes_corrections", m.busBytesCorrections() },
        { "master.bus_bytes_cache", m.busBytesCacheTraffic() },
    };
}

TEST(MasterStats, ConcurrentMastersKeepTheirOwnCounts)
{
    // Reference counts: each master run on its own.
    std::vector<std::pair<std::string, double>> solo[2];
    for (std::uint64_t k = 0; k < 2; ++k) {
        QuestSystem sys(noisyMaster(7 + k));
        runWorkload(sys);
        solo[k] = masterCounts(sys.master());
    }

    Registry::global().reset();
    QuestSystem a(noisyMaster(7));
    QuestSystem b(noisyMaster(8));
    runWorkload(a);
    runWorkload(b);
    const auto ca = masterCounts(a.master());
    const auto cb = masterCounts(b.master());

    EXPECT_EQ(ca, solo[0]);
    EXPECT_EQ(cb, solo[1]);
    EXPECT_NE(ca, cb);
    for (std::size_t i = 0; i < ca.size(); ++i)
        EXPECT_EQ(snapshotRow(ca[i].first),
                  ca[i].second + cb[i].second)
            << ca[i].first;
}

TEST(MasterStats, SnapshotCarriesEachCountOnce)
{
    MasterController master(smallMaster(2));
    quest::decode::DecoderPipeline pipeline(master.mce(0).lattice());
    master.runRounds(3);
    // Rows that only duplicated a registry counter (or, for the
    // network histogram, were replaced by one) are gone ...
    for (const char *row :
         { "icache.hits", "icache.misses", "icache.bus_bytes",
           "mce0.qecc_rounds", "mce0.qecc_uops", "mce0.microcode_bits",
           "network.latency::samples", "decoder.events_total",
           "decoder.events_local", "decoder.events_global",
           "decoder.syndrome_bus_bytes" })
        EXPECT_EQ(snapshotRow(row), std::nullopt) << row;
    // ... and the counts live on under one name each.
    for (const char *row :
         { "mce.icache.hits", "mce.replay.rounds", "mce.replay.uops",
           "mce.replay.microcode_bits", "mce0.logical_uops",
           "mce0.events_local", "network.packets", "network.latency.count",
           "decode.pipeline.events_local" })
        EXPECT_NE(snapshotRow(row), std::nullopt) << row;
}

TEST(MasterStats, BusByteRowsMoveByTheMastersOwnCounts)
{
    MasterController master(smallMaster(2));
    const auto before = masterCounts(master);
    std::vector<double> rows0;
    for (const auto &[name, v] : before)
        rows0.push_back(snapshotRow(name).value());

    master.mce(0).defineLogicalQubit(Coord{2, 2});
    master.dispatch(LogicalInstr{LogicalOpcode::Hadamard, 0});
    master.broadcastSync();
    master.dispatchBlock(0, 1, quest::isa::generateDistillationRound(0));
    master.dispatchBlock(0, 1, quest::isa::generateDistillationRound(0));
    master.runRounds(4);

    const auto after = masterCounts(master);
    EXPECT_GT(master.busBytesLogical(), 0.0);
    EXPECT_GT(master.busBytesSync(), 0.0);
    EXPECT_GT(master.busBytesCacheTraffic(), 0.0);
    for (std::size_t i = 0; i < after.size(); ++i)
        EXPECT_EQ(snapshotRow(after[i].first).value() - rows0[i],
                  after[i].second - before[i].second)
            << after[i].first;
}

/** The row names of the current snapshot, in order. */
std::vector<std::string>
snapshotRowNames()
{
    std::vector<std::string> names;
    const std::string snap = quest::sim::metricsSnapshot();
    for (std::size_t at = 0; at < snap.size();) {
        const std::size_t end = snap.find('\n', at);
        names.push_back(snap.substr(at, snap.find(' ', at) - at));
        at = end + 1;
    }
    return names;
}

TEST(MasterStats, EveryRowExistsOnceTheMasterIsBuilt)
{
    // Counters register in constructors, so running work adds values
    // but never rows: two passes over the same components (traced
    // and untraced) always list the same rows. The one exception is
    // by design: a registered histogram grows its .p50/.p99 rows with
    // its first sample.
    MasterController master(smallMaster(2));
    const auto built = snapshotRowNames();
    master.mce(0).defineLogicalQubit(Coord{2, 2});
    master.dispatch(LogicalInstr{LogicalOpcode::Hadamard, 0});
    master.broadcastSync();
    master.dispatchBlock(1, 1, quest::isa::generateDistillationRound(0));
    master.runRounds(6);
    std::vector<std::string> added;
    std::ranges::set_difference(snapshotRowNames(), built,
                                std::back_inserter(added));
    std::erase_if(added, [&](const std::string &row) {
        const std::string stem = row.substr(0, row.size() - 4);
        return (row.ends_with(".p50") || row.ends_with(".p99"))
               && std::ranges::binary_search(built, stem + ".count");
    });
    EXPECT_EQ(added, std::vector<std::string>{});
}

TEST(MasterStats, NoRowOfTheRetiredFaultModelIsRegistered)
{
    // The master models no classical faults: building and running
    // one registers no fault, scrub or retransmit row.
    MasterController master(smallMaster(2));
    master.mce(0).defineLogicalQubit(Coord{2, 2});
    master.dispatch(LogicalInstr{LogicalOpcode::Hadamard, 0});
    master.runRounds(6);
    for (const std::string &row : snapshotRowNames()) {
        EXPECT_FALSE(row.starts_with("faults.")) << row;
        EXPECT_FALSE(row.starts_with("network.")
                     && row.find("retransmit") != std::string::npos)
            << row;
        EXPECT_EQ(row.find("seu"), std::string::npos) << row;
        EXPECT_EQ(row.find("scrub"), std::string::npos) << row;
    }
}

/** A decode and arbitration mode of the master. */
struct MasterMode
{
    const char *name;
    std::size_t streamWindow = 0;
    std::size_t streamStride = 0;
    std::size_t sharedFetch = 0;
    ArbiterPolicy policy = ArbiterPolicy::RoundRobin;
};

/** Names a mode in test listings by its name, not its bytes. */
void
PrintTo(const MasterMode &mode, std::ostream *os)
{
    *os << mode.name;
}

class MasterReplay : public ::testing::TestWithParam<MasterMode>
{
  protected:
    /** noisyMaster(seed) in this test's mode. */
    static MasterConfig
    config(std::uint64_t seed)
    {
        MasterConfig cfg = noisyMaster(seed);
        cfg.streamWindowRounds = GetParam().streamWindow;
        cfg.streamStrideRounds = GetParam().streamStride;
        cfg.sharedFetchBandwidth = GetParam().sharedFetch;
        cfg.arbiterPolicy = GetParam().policy;
        return cfg;
    }
};

TEST_P(MasterReplay, IdenticalConfigsReplayBitForBit)
{
    QuestSystem a(config(7));
    QuestSystem b(config(7));
    runWorkload(a);
    runWorkload(b);
    MasterController &ma = a.master();
    MasterController &mb = b.master();
    EXPECT_EQ(masterCounts(ma), masterCounts(mb));
    EXPECT_EQ(ma.roundsRun(), mb.roundsRun());
    for (std::size_t i = 0; i < ma.numMces(); ++i) {
        EXPECT_EQ(ma.mce(i).correctionLedger().xWords(),
                  mb.mce(i).correctionLedger().xWords())
            << "tile " << i;
        EXPECT_EQ(ma.mce(i).correctionLedger().zWords(),
                  mb.mce(i).correctionLedger().zWords())
            << "tile " << i;
        EXPECT_EQ(ma.mce(i).residualErrorWeight(),
                  mb.mce(i).residualErrorWeight())
            << "tile " << i;
    }
    EXPECT_DOUBLE_EQ(ma.network().packetsCarried(),
                     mb.network().packetsCarried());
    EXPECT_DOUBLE_EQ(ma.network().meanLatencyTicks(),
                     mb.network().meanLatencyTicks());
}

TEST_P(MasterReplay, EveryBusByteCrossesTheNetwork)
{
    QuestSystem sys(config(7));
    runWorkload(sys);
    const MasterController &m = sys.master();
    EXPECT_GT(m.busBytesSyndrome(), 0.0);
    EXPECT_GT(m.busBytesCorrections(), 0.0);
    EXPECT_DOUBLE_EQ(sys.master().network().bytesCarried(),
                     m.totalBusBytes());
}

TEST_P(MasterReplay, SeedMovesOnlyTheNoiseTraffic)
{
    // Logical, sync and icache traffic follow the trace alone; the
    // noise seed reaches only the syndrome and correction rows.
    QuestSystem a(config(7));
    QuestSystem b(config(8));
    runWorkload(a);
    runWorkload(b);
    EXPECT_DOUBLE_EQ(a.master().busBytesLogical(),
                     b.master().busBytesLogical());
    EXPECT_DOUBLE_EQ(a.master().busBytesSync(),
                     b.master().busBytesSync());
    EXPECT_DOUBLE_EQ(a.master().busBytesCacheTraffic(),
                     b.master().busBytesCacheTraffic());
    EXPECT_DOUBLE_EQ(a.master().baselineEquivalentBytes(),
                     b.master().baselineEquivalentBytes());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MasterReplay,
    ::testing::Values(MasterMode{.name = "Offline"},
                      MasterMode{.name = "Streaming",
                                 .streamWindow = 6,
                                 .streamStride = 3},
                      MasterMode{.name = "RoundRobin", .sharedFetch = 4},
                      MasterMode{.name = "OldestFirst",
                                 .sharedFetch = 4,
                                 .policy = ArbiterPolicy::OldestFirst}),
    [](const ::testing::TestParamInfo<MasterMode> &info) {
        return std::string(info.param.name);
    });

} // namespace
