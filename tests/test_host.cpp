/**
 * @file
 * Tests for the host-side delivery path (the Section-3.4
 * determinism argument).
 */

#include <gtest/gtest.h>

#include "host/delivery.hpp"
#include "qecc/distance.hpp"

namespace {

using namespace quest::host;
using quest::sim::nanoseconds;
using quest::sim::Rng;

DeliveryJob
typicalJob()
{
    DeliveryJob job;
    // A 1000-qubit tile at 9 uops/qubit/round under a 165 ns round.
    job.instructionsPerRound = 9000;
    job.roundDeadline = nanoseconds(165);
    // Channel provisioned with ~20% slack over the payload.
    job.channelInstrPerTick =
        double(job.instructionsPerRound)
        / (0.8 * double(job.roundDeadline));
    return job;
}

TEST(Delivery, DeterministicPathAlwaysMeetsDeadline)
{
    CacheConfig cache;
    cache.missRate = 0.0;
    const DeliveryPath path(cache, typicalJob());
    Rng rng(1);
    const DeliveryReport report = path.deliverRounds(5000, rng);
    EXPECT_EQ(report.lateRounds, 0u);
    EXPECT_DOUBLE_EQ(report.meanStretch, 1.0);
    EXPECT_EQ(report.totalStall, 0u);
}

TEST(Delivery, MissesCauseDeadlineViolations)
{
    CacheConfig cache;
    cache.missRate = 0.02;
    cache.missPenalty = nanoseconds(100);
    const DeliveryPath path(cache, typicalJob());
    Rng rng(2);
    const DeliveryReport report = path.deliverRounds(5000, rng);
    EXPECT_GT(report.lateRounds, 0u);
    EXPECT_GT(report.meanStretch, 1.0);
    EXPECT_GT(report.worstStretch, report.meanStretch);
}

TEST(Delivery, ViolationRateGrowsWithMissRate)
{
    Rng rng(3);
    double prev = -1.0;
    for (double miss : { 0.005, 0.02, 0.08 }) {
        CacheConfig cache;
        cache.missRate = miss;
        const DeliveryPath path(cache, typicalJob());
        const double late =
            path.deliverRounds(4000, rng).lateFraction();
        EXPECT_GT(late, prev) << "miss=" << miss;
        prev = late;
    }
}

TEST(Delivery, StallScalesWithMissPenalty)
{
    Rng rng(4);
    CacheConfig small;
    small.missRate = 0.05;
    small.missPenalty = nanoseconds(20);
    CacheConfig big = small;
    big.missPenalty = nanoseconds(200);
    const auto r_small =
        DeliveryPath(small, typicalJob()).deliverRounds(3000, rng);
    const auto r_big =
        DeliveryPath(big, typicalJob()).deliverRounds(3000, rng);
    EXPECT_GT(r_big.totalStall, r_small.totalStall * 5);
}

TEST(Delivery, EffectiveErrorRateScalesWithStretch)
{
    EXPECT_DOUBLE_EQ(DeliveryPath::effectiveErrorRate(1e-4, 1.0),
                     1e-4);
    EXPECT_DOUBLE_EQ(DeliveryPath::effectiveErrorRate(1e-4, 2.5),
                     2.5e-4);
}

TEST(Delivery, LogicalInflationIsSuperlinearInDistance)
{
    // A 2x stretch inflates the logical rate by 2^ceil(d/2): the
    // non-determinism penalty compounds with the code distance.
    const double d5 = logicalErrorInflation(1e-4, 5, 2.0);
    const double d9 = logicalErrorInflation(1e-4, 9, 2.0);
    EXPECT_NEAR(d5, 8.0, 1e-6);  // 2^3
    EXPECT_NEAR(d9, 32.0, 1e-6); // 2^5
    EXPECT_GT(d9, d5);
}

TEST(Delivery, AboveThresholdStretchSaturates)
{
    // A stretch that pushes p_eff past threshold destroys the code;
    // the inflation saturates at 1/P_L(base).
    const double inflation = logicalErrorInflation(5e-3, 7, 10.0);
    const double cap =
        1.0 / quest::qecc::logicalErrorPerRound(5e-3, 7);
    EXPECT_DOUBLE_EQ(inflation, cap);
}

} // namespace
