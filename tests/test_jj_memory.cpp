/**
 * @file
 * Tests for the JJ memory model against the paper's published
 * design points (Section 4.5 and Table 2).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/logging.hpp"
#include "tech/jj_memory.hpp"

namespace {

using namespace quest::tech;

TEST(JJMemory, CalibrationPointsMatchTable2)
{
    const JJMemoryModel m;
    // Table 2: 4 Channel = 1Kb x 4 -> 170048 JJs, 2.1 uW.
    const MemoryConfig four{4, 1024};
    EXPECT_EQ(m.jjCount(four), 170048u);
    EXPECT_NEAR(m.powerUw(four), 2.1, 1e-9);

    // Table 2: 2 Channel = 2Kb x 2 -> 168264 JJs, 1.1 uW.
    const MemoryConfig two{2, 2048};
    EXPECT_EQ(m.jjCount(two), 168264u);
    EXPECT_NEAR(m.powerUw(two), 1.1, 1e-9);

    // Table 2: 8 Channel = 512b x 8 -> 163472 JJs, 5.6 uW.
    const MemoryConfig eight{8, 512};
    EXPECT_EQ(m.jjCount(eight), 163472u);
    EXPECT_NEAR(m.powerUw(eight), 5.6, 1e-9);
}

TEST(JJMemory, Footnote6FourKbPoint)
{
    // "4Kb memory requires about 170,000 JJs ... about 10 uW".
    const JJMemoryModel m;
    const MemoryConfig one{1, 4096};
    EXPECT_EQ(m.jjCount(one), 170000u);
    EXPECT_NEAR(m.powerUw(one), 10.0, 1e-9);
}

TEST(JJMemory, LatenciesMatchSection45)
{
    const JJMemoryModel m;
    // "For a one channel 4Kb, the memory access latency is three
    // cycles ... for a four-channel 1Kb configuration, the read
    // latency decreases to 2 cycles".
    EXPECT_EQ(m.bankLatencyCycles(4096), 3u);
    EXPECT_EQ(m.bankLatencyCycles(1024), 2u);
    EXPECT_EQ(m.bankLatencyCycles(2048), 3u);
    EXPECT_EQ(m.bankLatencyCycles(512), 2u);
}

TEST(JJMemory, FourChannelGivesSixTimesBandwidth)
{
    // Section 4.5: "the bandwidth improves by 6x".
    const JJMemoryModel m;
    const double one = m.uopsPerSecond(MemoryConfig{1, 4096}, 4);
    const double four = m.uopsPerSecond(MemoryConfig{4, 1024}, 4);
    EXPECT_NEAR(four / one, 6.0, 1e-9);
}

TEST(JJMemory, UopsPerSecondScalesWithWordPacking)
{
    const JJMemoryModel m;
    const MemoryConfig cfg{1, 1024};
    // 3-bit uops pack more per 32-bit word than 4-bit uops.
    EXPECT_GT(m.uopsPerSecond(cfg, 3), m.uopsPerSecond(cfg, 4));
}

TEST(JJMemory, StandardConfigsCoverChannelSweep)
{
    const auto configs = JJMemoryModel::standardConfigs(4096);
    ASSERT_EQ(configs.size(), 4u);
    EXPECT_EQ(configs[0], (MemoryConfig{1, 4096}));
    EXPECT_EQ(configs[1], (MemoryConfig{2, 2048}));
    EXPECT_EQ(configs[2], (MemoryConfig{4, 1024}));
    EXPECT_EQ(configs[3], (MemoryConfig{8, 512}));
}

TEST(JJMemory, ConfigToStringMatchesTable2Notation)
{
    EXPECT_EQ((MemoryConfig{4, 1024}).toString(),
              "4 Channel = 1Kb x 4");
    EXPECT_EQ((MemoryConfig{8, 512}).toString(),
              "8 Channel = 512b x 8");
}

TEST(JJMemory, OffTableSizesInterpolateSanely)
{
    const JJMemoryModel m;
    // Monotone JJ counts and latencies around the table.
    EXPECT_GT(m.bankJJCount(8192), m.bankJJCount(4096));
    EXPECT_GE(m.bankLatencyCycles(16384), m.bankLatencyCycles(4096));
    EXPECT_GT(m.bankPowerUw(8192), 0.0);
}

TEST(JJMemory, ConfigTotalsAreChannelsTimesOneBank)
{
    const JJMemoryModel m;
    for (const std::size_t bits : {512u, 1024u, 3000u, 4096u}) {
        for (const std::size_t channels : {1u, 2u, 4u, 8u}) {
            const MemoryConfig cfg{channels, bits};
            EXPECT_EQ(cfg.totalBits(), channels * bits);
            EXPECT_EQ(m.jjCount(cfg), channels * m.bankJJCount(bits));
            EXPECT_DOUBLE_EQ(m.powerUw(cfg),
                             double(channels) * m.bankPowerUw(bits));
        }
    }
}

TEST(JJMemory, StandardConfigsKeepTheTotalAndSkipUnevenSplits)
{
    for (const std::size_t total : {4096u, 8192u, 6u}) {
        const auto configs = JJMemoryModel::standardConfigs(total);
        ASSERT_FALSE(configs.empty()) << total;
        for (const MemoryConfig &cfg : configs)
            EXPECT_EQ(cfg.totalBits(), total) << cfg.toString();
    }
    // 6 bits split only into 1 or 2 banks.
    EXPECT_EQ(JJMemoryModel::standardConfigs(6),
              (std::vector<MemoryConfig>{{1, 6}, {2, 3}}));
}

TEST(JJMemory, OffTableLatencyAddsOneStagePerFourTimesCapacity)
{
    const JJMemoryModel m;
    EXPECT_EQ(m.bankLatencyCycles(1), 1u);
    EXPECT_EQ(m.bankLatencyCycles(256), 1u);
    EXPECT_EQ(m.bankLatencyCycles(257), 2u);
    EXPECT_EQ(m.bankLatencyCycles(3000), 3u);
    EXPECT_EQ(m.bankLatencyCycles(16384), 4u);
    EXPECT_EQ(m.bankLatencyCycles(16385), 5u);
}

TEST(JJMemory, OffTableCostsFollowTheInterpolation)
{
    const JJMemoryModel m;
    // ~41.5 JJ per bit, rounded to the nearest junction.
    EXPECT_EQ(m.bankJJCount(3), 125u);
    EXPECT_EQ(m.bankJJCount(8192), 339968u);
    // Power scales with the square root of capacity from 0.55 uW
    // at 2 Kb.
    EXPECT_DOUBLE_EQ(m.bankPowerUw(8192), 1.1);
}

TEST(JJMemory, UopsPerSecondIsChannelsTimesWordRateTimesPacking)
{
    const JJMemoryModel m;
    const MemoryConfig cfg{2, 2048}; // 3-cycle banks
    const std::size_t uop_bits = microcodeWordBits / 4;
    EXPECT_DOUBLE_EQ(m.uopsPerSecond(cfg, uop_bits),
                     2.0 * (jjClockHz / 3.0) * 4.0);
    // A uop wider than half the word packs one per word.
    EXPECT_DOUBLE_EQ(m.uopsPerSecond(cfg, microcodeWordBits),
                     m.uopsPerSecond(cfg, microcodeWordBits / 2 + 1));
}

TEST(JJMemory, InvalidSizesPanic)
{
    quest::sim::setQuiet(true);
    const JJMemoryModel m;
    EXPECT_THROW(m.bankJJCount(0), quest::sim::SimError);
    EXPECT_THROW(m.bankPowerUw(0), quest::sim::SimError);
    EXPECT_THROW(m.bankLatencyCycles(0), quest::sim::SimError);
    const MemoryConfig cfg{4, 1024};
    EXPECT_THROW(m.uopsPerSecond(cfg, 0), quest::sim::SimError);
    EXPECT_THROW(m.uopsPerSecond(cfg, microcodeWordBits + 1),
                 quest::sim::SimError);
    quest::sim::setQuiet(false);
}

} // namespace
