/**
 * @file
 * Tests for the gate benches' shared scaffolding in
 * bench/bench_util.hpp: the strict flag parser, rep calibration and
 * the BENCH_*.json writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using quest::bench::calibrateReps;
using quest::bench::medianProbeSeconds;
using quest::bench::Flags;
using quest::bench::Json;
using quest::bench::jsonObject;

const char *const usage = "bench [--smoke] [--trials=N]";

/** Parse `args` as a bench's command line (argv[0] supplied). */
Flags
parse(std::vector<std::string> args)
{
    static std::vector<std::string> store;
    store = std::move(args);
    store.insert(store.begin(), "bench");
    static std::vector<char *> argv;
    argv.clear();
    for (auto &a : store)
        argv.push_back(a.data());
    return Flags(int(argv.size()), argv.data(), usage);
}

TEST(BenchFlags, ReadsSwitchesAndValues)
{
    Flags f = parse({ "--smoke", "--trials=12", "--scale=0.25",
                      "--out=x.json" });
    EXPECT_TRUE(f.has("--smoke"));
    EXPECT_FALSE(f.has("--check"));
    EXPECT_EQ(f.count("--trials", 3, 1, 100), 12u);
    EXPECT_EQ(f.number("--scale", 1.0, 0.0, 1.0), 0.25);
    EXPECT_EQ(f.text("--out", "default.json"), "x.json");
    f.done(); // every given flag was asked about: no exit
}

TEST(BenchFlags, AbsentFlagsTakeTheirFallbacks)
{
    Flags f = parse({});
    EXPECT_FALSE(f.has("--smoke"));
    EXPECT_EQ(f.count("--trials", 3, 1, 100), 3u);
    EXPECT_EQ(f.number("--scale", 0.5, 0.0, 1.0), 0.5);
    EXPECT_EQ(f.text("--out", "default.json"), "default.json");
    f.done();
}

TEST(BenchFlags, RangeBoundsAreInclusive)
{
    Flags f = parse({ "--lo=1", "--hi=100", "--x=0", "--y=1" });
    EXPECT_EQ(f.count("--lo", 5, 1, 100), 1u);
    EXPECT_EQ(f.count("--hi", 5, 1, 100), 100u);
    EXPECT_EQ(f.number("--x", 0.5, 0.0, 1.0), 0.0);
    EXPECT_EQ(f.number("--y", 0.5, 0.0, 1.0), 1.0);
}

TEST(BenchFlagsDeathTest, MalformedIntegerExitsOne)
{
    EXPECT_EXIT(parse({ "--trials=abc" }).count("--trials", 3, 1, 100),
                ::testing::ExitedWithCode(1),
                "error: --trials expects an integer in \\[1, 100\\], "
                "got 'abc'");
    EXPECT_EXIT(parse({ "--trials=4x" }).count("--trials", 3, 1, 100),
                ::testing::ExitedWithCode(1), "error: --trials ");
    EXPECT_EXIT(parse({ "--trials=" }).count("--trials", 3, 1, 100),
                ::testing::ExitedWithCode(1), "error: --trials ");
}

TEST(BenchFlagsDeathTest, NegativeIntegerExitsOneInsteadOfWrapping)
{
    EXPECT_EXIT(parse({ "--threads=-1" }).count("--threads", 1, 1, 256),
                ::testing::ExitedWithCode(1), "error: --threads ");
}

TEST(BenchFlagsDeathTest, IntegerOutsideItsRangeExitsOne)
{
    EXPECT_EXIT(parse({ "--threads=0" }).count("--threads", 1, 1, 256),
                ::testing::ExitedWithCode(1), "error: --threads ");
    EXPECT_EXIT(parse({ "--threads=257" }).count("--threads", 1, 1, 256),
                ::testing::ExitedWithCode(1), "error: --threads ");
    EXPECT_EXIT(parse({ "--threads=99999999999999999999999" })
                    .count("--threads", 1, 1, 256),
                ::testing::ExitedWithCode(1), "error: --threads ");
}

TEST(BenchFlagsDeathTest, NonFiniteOrOutOfRangeNumberExitsOne)
{
    for (const char *bad : { "--scale=nan", "--scale=inf", "--scale=1.5",
                             "--scale=0.5x", "--scale=" })
        EXPECT_EXIT(parse({ bad }).number("--scale", 0.5, 0.0, 1.0),
                    ::testing::ExitedWithCode(1), "error: --scale ")
            << bad;
}

TEST(BenchFlagsDeathTest, ValueOnASwitchExitsOne)
{
    EXPECT_EXIT(parse({ "--smoke=1" }).has("--smoke"),
                ::testing::ExitedWithCode(1),
                "error: --smoke takes no value");
}

TEST(BenchFlagsDeathTest, ValueFlagWithoutAValueExitsOne)
{
    EXPECT_EXIT(parse({ "--rounds" }).count("--rounds", 8, 1, 100),
                ::testing::ExitedWithCode(1),
                "error: --rounds expects --rounds=VALUE");
}

TEST(BenchFlagsDeathTest, UnknownFlagExitsOneAtDone)
{
    EXPECT_EXIT(
        {
            Flags f = parse({ "--smoke", "--bogus" });
            f.has("--smoke");
            f.done();
        },
        ::testing::ExitedWithCode(1), "error: --bogus is not a known flag");
}

TEST(BenchFlagsDeathTest, PositionalArgumentExitsOneWithUsage)
{
    EXPECT_EXIT(parse({ "smoke" }), ::testing::ExitedWithCode(1),
                "error: unexpected argument 'smoke'\nusage: bench ");
}

TEST(BenchCalibrateReps, StretchesTheProbeToTheWindow)
{
    // A 125 ms probe against a 1 s window needs 8 reps, plus one.
    EXPECT_EQ(calibrateReps(0.125, 1.0), 9u);
    // A probe already as long as the window runs once.
    EXPECT_EQ(calibrateReps(0.5, 0.5), 1u);
    EXPECT_EQ(calibrateReps(2.0, 0.5), 1u);
    // A fast decoder's 2^-16 s probe fills a 0.5 s window with 2^15
    // reps, far more than a fixed cap of a few thousand would allow.
    EXPECT_EQ(calibrateReps(1.0 / 65536, 0.5), 32769u);
}

TEST(BenchCalibrateReps, MedianProbeIgnoresOneSlowPass)
{
    // One preempted pass among five warm ones, here the first, moves
    // neither the median nor the rep count it sets.
    const double passes[] = { 0.5, 0.021, 0.019, 0.020, 0.022 };
    std::size_t calls = 0;
    const double median =
        medianProbeSeconds([&] { return passes[calls++]; });
    EXPECT_EQ(calls, quest::bench::calibrationProbes);
    EXPECT_DOUBLE_EQ(median, 0.021);
    EXPECT_EQ(calibrateReps(median, 0.25), 12u);
}

TEST(BenchCalibrateReps, CapsTinyOrUntimedProbes)
{
    EXPECT_EQ(calibrateReps(1e-9, 0.05), 1u << 24);
    EXPECT_EQ(calibrateReps(0.0, 0.05), 1u << 24);
    EXPECT_EQ(calibrateReps(-1.0, 0.05), 1u << 24);
}

TEST(BenchJson, ValuesPrintAsTheStreamPrintsThem)
{
    const std::string name = "offline";
    EXPECT_EQ(jsonObject(0, "distance", std::size_t(5), "rate", 0.1234567,
                         "whole", 56024.0, "big", 1.5e6, "ok", true,
                         "shape", name, "mode", "ooo", "timing",
                         jsonObject(0, "threads", 4u))
                  .text,
              "{\"distance\": 5, \"rate\": 0.123457, \"whole\": 56024, "
              "\"big\": 1.5e+06, \"ok\": true, \"shape\": \"offline\", "
              "\"mode\": \"ooo\", \"timing\": {\"threads\": 4}}");
}

TEST(BenchJson, BlocksAndArraysKeepTheBenchLayout)
{
    const std::vector<Json> rows(2, jsonObject(0, "a", 1));
    EXPECT_EQ(jsonObject(2, "bench", "b", "configs", rows, "none",
                         std::vector<Json>{}, "nested", false)
                  .text,
              "{\n"
              "  \"bench\": \"b\",\n"
              "  \"configs\": [\n"
              "  {\"a\": 1},\n"
              "  {\"a\": 1}\n"
              "  ],\n"
              "  \"none\": [\n"
              "  ],\n"
              "  \"nested\": false\n"
              "}");
    EXPECT_EQ(jsonObject(4, "a", 1, "b", 2).text,
              "{\n    \"a\": 1,\n    \"b\": 2\n  }");
}

TEST(BenchJson, MetricsFileWrapsTheRegistryDump)
{
    const std::string path = "/tmp/quest_bench_util_metrics.json";
    quest::bench::writeMetricsJson("b", path);
    std::ifstream is(path);
    std::stringstream got;
    got << is.rdbuf();
    std::remove(path.c_str());
    EXPECT_EQ(got.str(), "{\n  \"bench\": \"b\",\n  \"metrics\": "
                             + quest::bench::metricsJson().text
                             + "\n}\n");
}

} // namespace
