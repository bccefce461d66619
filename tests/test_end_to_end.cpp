/**
 * @file
 * End-to-end integration: the cycle-level system and the analytical
 * estimator must tell the same story, and long noisy runs must stay
 * decoded and deterministic.
 */

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "isa/trace.hpp"
#include "workloads/estimator.hpp"

namespace {

using namespace quest::core;
using quest::isa::LogicalTrace;
using quest::isa::TraceGenConfig;

MasterConfig
e2eConfig()
{
    MasterConfig cfg;
    cfg.numMces = 2;
    cfg.mce = tileConfigForLogicalQubits(3);
    return cfg;
}

LogicalTrace
e2eTrace(std::size_t n)
{
    TraceGenConfig t;
    t.numInstructions = n;
    t.logicalQubits = 2;
    t.maskFraction = 0.0;
    return quest::isa::generateApplicationTrace(t);
}

TEST(EndToEnd, DeterministicAcrossRuns)
{
    auto run = [] {
        MasterConfig cfg = e2eConfig();
        cfg.mce.errorRates = quest::quantum::ErrorRates::uniform(1e-3);
        cfg.mce.seed = 11;
        QuestSystem sys(cfg);
        sys.placeLogicalQubits();
        sys.runMixedWorkload(e2eTrace(64),
                             quest::isa::generateDistillationRound(0),
                             64);
        return sys.report();
    };
    const SystemReport a = run();
    const SystemReport b = run();
    EXPECT_DOUBLE_EQ(a.questBusBytes, b.questBusBytes);
    EXPECT_DOUBLE_EQ(a.bytesSyndrome, b.bytesSyndrome);
    EXPECT_DOUBLE_EQ(a.bytesCorrections, b.bytesCorrections);
}

TEST(EndToEnd, SeedChangesNoiseButNotLogicalTraffic)
{
    auto run = [](std::uint64_t seed) {
        MasterConfig cfg = e2eConfig();
        cfg.mce.errorRates = quest::quantum::ErrorRates::uniform(1e-3);
        cfg.mce.seed = seed;
        QuestSystem sys(cfg);
        sys.placeLogicalQubits();
        sys.runMixedWorkload(e2eTrace(64), LogicalTrace{}, 64);
        return sys.report();
    };
    const SystemReport a = run(1);
    const SystemReport b = run(2);
    // Logical dispatch is noise-independent; syndrome traffic is not.
    EXPECT_DOUBLE_EQ(a.bytesLogical, b.bytesLogical);
    EXPECT_DOUBLE_EQ(a.bytesSync, b.bytesSync);
}

TEST(EndToEnd, CycleLevelAgreesWithAnalyticalDirection)
{
    // The analytical estimator predicts caching shrinks the bus
    // share of distillation; confirm the cycle-level ledger moves
    // the same way and that both report QECC as the dominant
    // baseline component.
    quest::workloads::ResourceEstimator est;
    const auto analytic =
        est.estimate(quest::workloads::shor(512));
    EXPECT_GT(analytic.mceSavings(), 1e5);

    QuestSystem sys(e2eConfig());
    sys.placeLogicalQubits();
    sys.runMixedWorkload(e2eTrace(64),
                         quest::isa::generateDistillationRound(0),
                         256);
    const SystemReport cyc = sys.report();
    // The tiny tile cannot reach 1e5, but the *sign* of the story
    // matches: hardware QECC makes baseline >> bus traffic.
    EXPECT_GT(cyc.savings(), 10.0);
    EXPECT_GT(cyc.baselineBytes, cyc.questBusBytes);
}

TEST(EndToEnd, SustainedNoisyOperationKeepsErrorsBounded)
{
    MasterConfig cfg;
    cfg.numMces = 1;
    cfg.mce.distance = 5;
    cfg.mce.errorRates = quest::quantum::ErrorRates{.idle = 1e-3};
    cfg.mce.seed = 3;
    QuestSystem sys(cfg);

    sys.master().runRounds(500);
    EXPECT_LE(sys.master().mce(0).residualErrorWeight(), 4u);
}

TEST(EndToEnd, MeasurementNoiseHandledByTimeLikeMatching)
{
    MasterConfig cfg;
    cfg.numMces = 1;
    cfg.mce.distance = 5;
    cfg.mce.errorRates = quest::quantum::ErrorRates{.meas = 2e-3};
    cfg.mce.seed = 5;
    QuestSystem sys(cfg);

    sys.master().runRounds(300);
    // Measurement flips alone never corrupt data qubits; the decoder
    // must not inject corrections that do.
    EXPECT_LE(sys.master().mce(0).residualErrorWeight(), 2u);
}

} // namespace
