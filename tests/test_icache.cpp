/**
 * @file
 * Tests for the software-managed logical instruction cache.
 */

#include <gtest/gtest.h>

#include "core/icache.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace quest::core;
using quest::isa::LogicalOpcode;
using quest::isa::LogicalTrace;

LogicalTrace
makeBlock(std::size_t size)
{
    LogicalTrace t;
    for (std::size_t i = 0; i < size; ++i)
        t.append(LogicalOpcode::Cnot, std::uint16_t(i & 0xFF));
    return t;
}

TEST(ICache, FirstAccessMissesThenHits)
{
    LogicalInstructionCache cache(1024);
    const LogicalTrace block = makeBlock(148);

    const ICacheAccess miss = cache.execute(1, block);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.bytesFetched, block.bytes());
    EXPECT_EQ(miss.instructions, 148u);

    const ICacheAccess hit = cache.execute(1, block);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.bytesFetched, replayTokenBytes);
    EXPECT_EQ(hit.instructions, 148u);
}

TEST(ICache, ReplayCutsBusTrafficByBlockRatio)
{
    // The Section-5.3 effect: N replays cost ~one block fill plus
    // N-1 tokens instead of N block bodies.
    LogicalInstructionCache cached(1024);
    LogicalInstructionCache uncached(0);
    const LogicalTrace block = makeBlock(148);

    const int replays = 1000;
    for (int i = 0; i < replays; ++i) {
        cached.execute(7, block);
        uncached.execute(7, block);
    }
    EXPECT_GT(uncached.busBytes() / cached.busBytes(), 100.0);
}

TEST(ICache, LruEvictionUnderPressure)
{
    LogicalInstructionCache cache(300); // fits two blocks
    const LogicalTrace block = makeBlock(148);

    cache.execute(1, block); // miss, resident {1}
    cache.execute(2, block); // miss, resident {1, 2}
    EXPECT_EQ(cache.residentInstructions(), 296u);
    cache.execute(1, block); // hit, 1 becomes MRU
    cache.execute(3, block); // miss, evicts 2
    EXPECT_TRUE(cache.execute(1, block).hit);
    EXPECT_FALSE(cache.execute(2, block).hit);
}

TEST(ICache, OversizedBlockStreamsWithoutInstalling)
{
    LogicalInstructionCache cache(100);
    const LogicalTrace big = makeBlock(148);
    cache.execute(1, big);
    EXPECT_EQ(cache.residentInstructions(), 0u);
    EXPECT_FALSE(cache.execute(1, big).hit);
}

TEST(ICache, DisabledCacheAlwaysStreams)
{
    LogicalInstructionCache cache(0);
    EXPECT_FALSE(cache.enabled());
    const LogicalTrace block = makeBlock(10);
    for (int i = 0; i < 3; ++i) {
        const ICacheAccess a = cache.execute(1, block);
        EXPECT_FALSE(a.hit);
        EXPECT_EQ(a.bytesFetched, block.bytes());
    }
    EXPECT_DOUBLE_EQ(cache.misses(), 3.0);
}

TEST(ICache, StatsCountHitsAndMisses)
{
    LogicalInstructionCache cache(1024);
    const LogicalTrace block = makeBlock(50);
    cache.execute(1, block);
    cache.execute(1, block);
    cache.execute(1, block);
    EXPECT_DOUBLE_EQ(cache.misses(), 1.0);
    EXPECT_DOUBLE_EQ(cache.hits(), 2.0);
    EXPECT_DOUBLE_EQ(cache.busBytes(),
                     double(block.bytes() + 2 * replayTokenBytes));
}

TEST(ICache, EachCacheKeepsItsOwnCounts)
{
    // One cache per tile; the `mce.icache.*` rows sum every cache.
    auto &reg = quest::sim::metrics::Registry::global();
    LogicalInstructionCache a(1024);
    LogicalInstructionCache b(0);
    auto &hits = reg.counter("mce.icache.hits", "");
    auto &misses = reg.counter("mce.icache.misses", "");
    auto &bytes = reg.counter("mce.icache.bus_bytes", "");
    const std::uint64_t h0 = hits.value();
    const std::uint64_t m0 = misses.value();
    const std::uint64_t b0 = bytes.value();

    const LogicalTrace block = makeBlock(20);
    a.execute(7, block);
    a.execute(7, block);
    b.execute(7, block);
    b.execute(7, block);

    EXPECT_DOUBLE_EQ(a.hits(), 1.0);
    EXPECT_DOUBLE_EQ(a.misses(), 1.0);
    EXPECT_DOUBLE_EQ(b.hits(), 0.0);
    EXPECT_DOUBLE_EQ(b.misses(), 2.0);
    EXPECT_DOUBLE_EQ(b.busBytes(), double(2 * block.bytes()));
    EXPECT_EQ(double(hits.value() - h0), a.hits() + b.hits());
    EXPECT_EQ(double(misses.value() - m0), a.misses() + b.misses());
    EXPECT_EQ(double(bytes.value() - b0), a.busBytes() + b.busBytes());
}

} // namespace
