/**
 * @file
 * Tests for the QuestSystem facade and its bandwidth ledger.
 */

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "isa/trace.hpp"

namespace {

using namespace quest::core;
using quest::isa::LogicalTrace;
using quest::isa::TraceGenConfig;

MasterConfig
systemConfig(std::size_t mces, std::size_t icache_capacity = 1024)
{
    MasterConfig cfg;
    cfg.numMces = mces;
    cfg.mce = tileConfigForLogicalQubits(3);
    cfg.mce.icacheCapacity = icache_capacity;
    return cfg;
}

LogicalTrace
appTrace(std::size_t n, std::size_t mces)
{
    TraceGenConfig cfg;
    cfg.numInstructions = n;
    cfg.logicalQubits = mces; // operand == MCE index, local id 0
    cfg.maskFraction = 0.0;   // keep footprints static
    cfg.tFraction = 0.28;
    return quest::isa::generateApplicationTrace(cfg);
}

TEST(System, PlaceLogicalQubitsOnEveryMce)
{
    QuestSystem sys(systemConfig(3));
    sys.placeLogicalQubits();
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(sys.master().mce(i).logicalQubitCount(), 1u);
}

TEST(System, MixedWorkloadLedgerIsConsistent)
{
    QuestSystem sys(systemConfig(2));
    sys.placeLogicalQubits();
    const LogicalTrace app = appTrace(64, 2);
    const LogicalTrace distill =
        quest::isa::generateDistillationRound(0);

    sys.runMixedWorkload(app, distill, /*rounds=*/32);
    const SystemReport report = sys.report();

    EXPECT_EQ(report.rounds, 32u);
    EXPECT_GT(report.baselineBytes, 0.0);
    EXPECT_GT(report.bytesLogical, 0.0);
    EXPECT_GT(report.bytesSync, 0.0);
    EXPECT_GT(report.bytesCache, 0.0);
    EXPECT_NEAR(report.questBusBytes,
                report.bytesLogical + report.bytesSync
                    + report.bytesSyndrome + report.bytesCorrections
                    + report.bytesCache,
                1e-6);
}

TEST(System, HardwareQeccBeatsSoftwareStreamingOnTheTile)
{
    // Even on a tiny noiseless tile, the cycle-level ledger shows
    // the MCE saving orders of magnitude of bus traffic.
    QuestSystem sys(systemConfig(2));
    sys.placeLogicalQubits();
    sys.runMixedWorkload(appTrace(64, 2),
                         quest::isa::generateDistillationRound(0),
                         /*rounds=*/256);
    const SystemReport report = sys.report();
    EXPECT_GT(report.savings(), 50.0);
}

TEST(System, ICacheReducesBusTraffic)
{
    const LogicalTrace app = appTrace(32, 2);
    const LogicalTrace distill =
        quest::isa::generateDistillationRound(0);

    QuestSystem with_cache(systemConfig(2, 1024));
    with_cache.placeLogicalQubits();
    with_cache.runMixedWorkload(app, distill, 128);

    QuestSystem without_cache(systemConfig(2, 0));
    without_cache.placeLogicalQubits();
    without_cache.runMixedWorkload(app, distill, 128);

    EXPECT_LT(with_cache.report().bytesCache,
              without_cache.report().bytesCache / 5.0);
    EXPECT_GT(with_cache.report().savings(),
              without_cache.report().savings());
}

TEST(System, ReportToStringMentionsSavings)
{
    QuestSystem sys(systemConfig(2));
    sys.placeLogicalQubits();
    sys.runMixedWorkload(appTrace(8, 2), LogicalTrace{}, 8);
    const std::string text = sys.report().toString();
    EXPECT_NE(text.find("savings="), std::string::npos);
    EXPECT_NE(text.find("rounds=8"), std::string::npos);
}

TEST(System, NoisyMixedWorkloadStaysDecoded)
{
    MasterConfig cfg = systemConfig(2);
    cfg.mce.errorRates = quest::quantum::ErrorRates{.idle = 5e-4};
    cfg.mce.seed = 7;
    QuestSystem sys(cfg);
    sys.placeLogicalQubits();
    sys.runMixedWorkload(appTrace(64, 2),
                         quest::isa::generateDistillationRound(0),
                         128);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_LE(sys.master().mce(i).residualErrorWeight(), 4u);
    EXPECT_GT(sys.report().bytesSyndrome, 0.0);
}

} // namespace
