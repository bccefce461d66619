#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/logging.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/thread_pool.hpp"

using quest::sim::Rng;
using quest::sim::ThreadPool;

namespace {

/** Bit pattern of a double, for exact (not approximate) comparison. */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

} // namespace

TEST(ParallelEngine, ForRangeCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::uint64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    quest::sim::parallelFor(pool, n, [&](std::uint64_t i) {
        hits[std::size_t(i)].fetch_add(1);
    }, /*chunk=*/7);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[std::size_t(i)].load(), 1) << "index " << i;
}

TEST(ParallelEngine, ForRangeHandsOutChunkAlignedRanges)
{
    ThreadPool pool(3);
    constexpr std::uint64_t n = 103;
    constexpr std::uint64_t chunk = 10;
    std::mutex mutex;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    pool.forRange(n, chunk,
                  [&](std::uint64_t begin, std::uint64_t end) {
                      std::lock_guard<std::mutex> lock(mutex);
                      ranges.emplace_back(begin, end);
                  });
    std::uint64_t covered = 0;
    std::set<std::uint64_t> begins;
    for (const auto &[begin, end] : ranges) {
        EXPECT_EQ(begin % chunk, 0u);
        EXPECT_LE(end - begin, chunk);
        EXPECT_TRUE(end == begin + chunk || end == n);
        EXPECT_TRUE(begins.insert(begin).second);
        covered += end - begin;
    }
    EXPECT_EQ(covered, n);
}

TEST(ParallelEngine, ForRangeZeroAndTinyN)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    quest::sim::parallelFor(pool, 0, [&](std::uint64_t) {
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 0);
    quest::sim::parallelFor(pool, 1, [&](std::uint64_t i) {
        EXPECT_EQ(i, 0u);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelEngine, ReduceBitIdenticalAcrossThreadCounts)
{
    // Sum values spanning ~15 orders of magnitude: any change in
    // the floating-point association changes the rounding, so a
    // bit-exact match across pool sizes exercises the fixed
    // chunk-order fold for real.
    constexpr std::uint64_t n = 4321;
    auto map = [](std::uint64_t i) {
        Rng rng = Rng::substream(42, i);
        return (rng.uniform() - 0.5) * (i % 3 == 0 ? 1e15 : 1e-3);
    };
    auto combine = [](double a, double b) { return a + b; };

    ThreadPool serial(1);
    const double expected = quest::sim::parallelReduce(
        serial, n, 0.0, map, combine);
    for (std::size_t threads : {2, 3, 5}) {
        ThreadPool pool(threads);
        for (int rep = 0; rep < 3; ++rep) {
            const double got = quest::sim::parallelReduce(
                pool, n, 0.0, map, combine);
            EXPECT_EQ(bits(got), bits(expected))
                << threads << " threads, rep " << rep;
        }
    }
}

TEST(ParallelEngine, MapMatchesSerialExecution)
{
    constexpr std::uint64_t n = 500;
    auto fn = [](std::uint64_t i) {
        Rng rng = Rng::substream(7, i);
        return rng.next() ^ (i << 32);
    };
    std::vector<std::uint64_t> expected(n);
    for (std::uint64_t i = 0; i < n; ++i)
        expected[std::size_t(i)] = fn(i);

    for (std::size_t threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        const auto got = quest::sim::parallelMap<std::uint64_t>(
            pool, n, fn);
        EXPECT_EQ(got, expected) << threads << " threads";
    }
}

TEST(ParallelEngine, SubstreamsAreReproducibleAndDistinct)
{
    Rng a = Rng::substream(123, 5);
    Rng b = Rng::substream(123, 5);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());

    // Distinct indices and distinct seeds give distinct streams.
    std::set<std::uint64_t> firsts;
    for (std::uint64_t idx = 0; idx < 64; ++idx)
        firsts.insert(Rng::substream(123, idx).next());
    EXPECT_EQ(firsts.size(), 64u);
    EXPECT_NE(Rng::substream(123, 0).next(),
              Rng::substream(124, 0).next());
}

TEST(ParallelEngine, NestedParallelForRunsInline)
{
    ThreadPool pool(3);
    constexpr std::uint64_t outer = 16;
    constexpr std::uint64_t inner = 32;
    std::vector<std::atomic<int>> hits(outer * inner);
    quest::sim::parallelFor(pool, outer, [&](std::uint64_t o) {
        quest::sim::parallelFor(pool, inner, [&](std::uint64_t i) {
            hits[std::size_t(o * inner + i)].fetch_add(1);
        });
    }, /*chunk=*/1);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(ParallelEngine, BodyExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(3);
    auto boom = [&] {
        quest::sim::parallelFor(pool, 100, [](std::uint64_t i) {
            QUEST_ASSERT(i != 57, "injected failure at index %llu",
                         static_cast<unsigned long long>(i));
        }, /*chunk=*/4);
    };
    EXPECT_THROW(boom(), quest::sim::SimError);

    // The pool must remain usable after a failed job.
    std::atomic<std::uint64_t> sum{0};
    quest::sim::parallelFor(pool, 100, [&](std::uint64_t i) {
        sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 99u * 100u / 2);
}

namespace {

/**
 * Sets QUEST_THREADS for one test and restores the caller's value
 * afterwards. Only ThreadPool::defaultThreads() is queried under it:
 * no pool is ever built from these values.
 */
class QuestThreadsEnv : public ::testing::Test
{
  protected:
    QuestThreadsEnv()
    {
        if (const char *v = std::getenv("QUEST_THREADS"))
            _saved = v;
        unsetenv("QUEST_THREADS");
        hardware = ThreadPool::defaultThreads();
        quest::sim::setQuiet(true); // rejected values warn
    }

    ~QuestThreadsEnv() override
    {
        quest::sim::setQuiet(false);
        if (_saved)
            setenv("QUEST_THREADS", _saved->c_str(), 1);
        else
            unsetenv("QUEST_THREADS");
    }

    static std::size_t
    threadsFor(const char *value)
    {
        setenv("QUEST_THREADS", value, 1);
        return ThreadPool::defaultThreads();
    }

    /** defaultThreads() with QUEST_THREADS unset. */
    std::size_t hardware = 0;

  private:
    std::optional<std::string> _saved;
};

} // namespace

TEST_F(QuestThreadsEnv, AcceptsWholeCountsUpTo1024)
{
    EXPECT_EQ(threadsFor("4"), 4u);
    EXPECT_EQ(threadsFor("1"), 1u);
    EXPECT_EQ(threadsFor("1024"), 1024u);
}

TEST_F(QuestThreadsEnv, RejectsMalformedOrOutOfRangeCounts)
{
    for (const char *bad : {"4x", "3x", "5x", "0", "-3", "99999999",
                            "1025", "", "abc", " 4", "4 ", "+4",
                            "4.0", "18446744073709551616"})
        EXPECT_EQ(threadsFor(bad), hardware) << "'" << bad << "'";
}

TEST(ParallelEngine, GlobalPoolAndDefaultThreads)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool &g = ThreadPool::global();
    EXPECT_GE(g.threads(), 1u);
    std::atomic<int> calls{0};
    quest::sim::parallelFor(10, [&](std::uint64_t) {
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 10);
}
