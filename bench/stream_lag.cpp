/**
 * @file
 * Streaming-decoder lag bench: how far decoding runs behind
 * extraction for sliding-window shapes, versus the offline
 * end-of-shot pipeline. For each (window, stride) shape it streams
 * seeded d-round memory shots through decode::StreamingDecoder,
 * reporting the logical failure count, windows/sec and the
 * decode.stream.lag_rounds p50/p99 (rounds extracted but not yet
 * committed, sampled after every pushed round). The offline baseline
 * decodes the same shots through DecoderPipeline; its "lag" is the
 * whole shot by construction.
 *
 * Flags:
 *   --smoke      CI-sized run (d=5 only, fewer trials)
 *   --trials=N   shots per configuration
 *   --out=PATH   JSON output (default BENCH_stream_lag.json)
 *   --check      gate mode: exit 1 unless (a) the full-shot
 *                single-window stream is bit-identical to the
 *                offline pipeline on every trial, and (b) every
 *                windowed shape clears the syndrome on every trial.
 */

#include <cstdio>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "decode/pipeline.hpp"
#include "decode/streaming.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/table.hpp"

namespace {

using namespace quest;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t sampleSeed = 0x57AE;

struct ConfigResult
{
    std::size_t distance = 0;
    std::string shape; ///< "offline" or "WxS"
    std::size_t window = 0;
    std::size_t stride = 0;
    std::uint64_t failures = 0;
    std::uint64_t windows = 0;
    double windowsPerSec = 0.0;
    double lagP50 = 0.0;
    double lagP99 = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    bench::Flags flags(argc, argv,
                       "stream_lag [--smoke] [--check] [--trials=N] "
                       "[--out=PATH]");
    const bool smoke = flags.has("--smoke");
    const bool check = flags.has("--check");
    std::uint64_t trials = flags.count("--trials", 0, 0, 1u << 24);
    const std::string out_path =
        flags.text("--out", "BENCH_stream_lag.json");
    flags.done();
    if (trials == 0)
        trials = smoke ? 96 : 512;
    sim::metrics::Registry::global().reset();

    const double p = 2e-3;
    const quantum::ErrorRates rates{.idle = p, .meas = p};
    const std::vector<std::size_t> distances =
        smoke ? std::vector<std::size_t>{5}
              : std::vector<std::size_t>{5, 7};

    auto &lag_hist = sim::metrics::Registry::global().histogram(
        "decode.stream.lag_rounds",
        "rounds decoding ran behind extraction, per pushed round");

    int gate_failures = 0;
    std::vector<ConfigResult> results;
    for (const std::size_t d : distances) {
        const std::size_t shot_rounds = 2 * d;
        const qecc::MemoryExperiment exp(d, qecc::Protocol::Steane,
                                         shot_rounds);

        // Offline baseline: end-of-shot barrier.
        {
            decode::DecoderPipeline pipeline(exp.lattice());
            ConfigResult r;
            r.distance = d;
            r.shape = "offline";
            const auto t0 = Clock::now();
            for (std::uint64_t t = 0; t < trials; ++t) {
                sim::Rng rng = sim::Rng::substream(sampleSeed, t);
                auto shot = exp.sampleShot(rates, rng);
                decode::applyCorrection(
                    shot.frame,
                    pipeline.decode(decode::extractDetectionEvents(
                        shot.history, exp.extractor())));
                r.failures += exp.logicalFailure(shot.frame) ? 1 : 0;
            }
            const double wall = std::chrono::duration<double>(
                Clock::now() - t0).count();
            r.windows = trials;
            r.windowsPerSec =
                wall > 0.0 ? double(trials) / wall : 0.0;
            r.lagP50 = double(shot_rounds + 1);
            r.lagP99 = double(shot_rounds + 1);
            results.push_back(r);
        }

        const std::vector<std::pair<std::size_t, std::size_t>>
            shapes = { { d, d }, { 2 * d, d }, { 4 * d, 2 * d } };
        for (const auto &[window, stride] : shapes) {
            ConfigResult r;
            r.distance = d;
            r.window = window;
            r.stride = stride;
            r.shape = std::to_string(window) + "x"
                + std::to_string(stride);
            lag_hist.reset();
            std::uint64_t windows = 0;
            const auto t0 = Clock::now();
            for (std::uint64_t t = 0; t < trials; ++t) {
                sim::Rng rng = sim::Rng::substream(sampleSeed, t);
                auto shot = exp.sampleShot(rates, rng);
                decode::StreamConfig cfg;
                cfg.windowRounds = window;
                cfg.strideRounds = stride;
                decode::StreamingDecoder streamer(exp.extractor(),
                                                  cfg);
                decode::Correction total;
                for (const auto &round : shot.history)
                    if (auto c = streamer.pushRound(round))
                        total.merge(c->correction);
                if (auto c = streamer.finish())
                    total.merge(c->correction);
                windows += streamer.windowsDecoded();
                decode::applyCorrection(shot.frame, total);
                if (check
                    && exp.extractor().runRound(shot.frame, nullptr)
                           .any()) {
                    std::cout << "check: d=" << d << " " << r.shape
                              << " trial " << t
                              << " left residual syndrome\n";
                    ++gate_failures;
                }
                r.failures += exp.logicalFailure(shot.frame) ? 1 : 0;
            }
            const double wall = std::chrono::duration<double>(
                Clock::now() - t0).count();
            r.windows = windows;
            r.windowsPerSec =
                wall > 0.0 ? double(windows) / wall : 0.0;
            r.lagP50 = lag_hist.percentile(0.5);
            r.lagP99 = lag_hist.percentile(0.99);
            results.push_back(r);
        }

        // Gate: a single window spanning the whole shot reproduces
        // the offline pipeline bit for bit.
        if (check) {
            decode::DecoderPipeline pipeline(exp.lattice());
            for (std::uint64_t t = 0; t < trials; ++t) {
                sim::Rng rng = sim::Rng::substream(sampleSeed, t);
                const auto history = exp.sampleShot(rates, rng).history;
                const decode::Correction offline = pipeline.decode(
                    decode::extractDetectionEvents(history,
                                                   exp.extractor()));
                decode::StreamConfig cfg;
                cfg.windowRounds = history.size() + 1;
                cfg.strideRounds = 1;
                decode::StreamingDecoder streamer(exp.extractor(),
                                                  cfg);
                for (const auto &round : history)
                    streamer.pushRound(round);
                decode::Correction streamed;
                if (auto c = streamer.finish())
                    streamed = c->correction;
                if (streamed.xFlips != offline.xFlips
                    || streamed.zFlips != offline.zFlips) {
                    std::cout << "check: d=" << d << " trial " << t
                              << " full-shot stream diverged from "
                                 "offline pipeline\n";
                    ++gate_failures;
                }
            }
        }
    }

    sim::Table table("Streaming decode lag (p=" + std::to_string(p)
                     + ", " + std::to_string(trials) + " shots)");
    table.header({ "distance", "window x stride", "failures",
                   "windows", "windows/s", "lag p50", "lag p99" });
    for (const ConfigResult &r : results) {
        char b1[32], b2[32], b3[32];
        std::snprintf(b1, sizeof(b1), "%.0f", r.windowsPerSec);
        std::snprintf(b2, sizeof(b2), "%.0f", r.lagP50);
        std::snprintf(b3, sizeof(b3), "%.0f", r.lagP99);
        table.row({ std::to_string(r.distance), r.shape,
                    std::to_string(r.failures),
                    std::to_string(r.windows), b1, b2, b3 });
    }
    table.caption("offline lag is the whole shot by construction; "
                  "sliding windows bound it by window size at the "
                  "cost of committing matches early");
    table.print(std::cout);

    std::vector<bench::Json> configs;
    for (const ConfigResult &r : results)
        configs.push_back(bench::jsonObject(
            0, "distance", r.distance, "shape", r.shape,
            "window", r.window, "stride", r.stride,
            "failures", r.failures, "windows", r.windows,
            "windows_per_sec", r.windowsPerSec,
            "lag_p50", r.lagP50, "lag_p99", r.lagP99));
    bench::writeJsonFile(
        out_path,
        bench::jsonObject(2, "bench", "stream_lag", "smoke", smoke,
                          "trials", trials, "error_rate", p,
                          "configs", configs,
                          "metrics", bench::metricsJson()));

    if (check) {
        if (gate_failures != 0) {
            std::cout << "check: " << gate_failures
                      << " gate failure(s)\n";
            return 1;
        }
        std::cout << "check: full-shot equivalence and syndrome "
                     "closure both hold\n";
    }
    return 0;
}
