/**
 * @file
 * Decoder throughput bench: the binding constraint of the classical
 * control plane (cf. Das et al., "A Scalable Decoder
 * Micro-architecture for Fault-Tolerant Quantum Computing") is how
 * many syndrome windows per second the global decoder sustains.
 * This bench measures trials/sec and p50/p99 decode latency for the
 * MWPM (exact + greedy) and cluster decoders, single- and
 * multi-threaded, and emits BENCH_decoder_throughput.json so the
 * perf trajectory of the hot path is tracked across PRs.
 *
 * Each trial is a d-round memory experiment sampled through the
 * bit-parallel batch engine (qecc::MemoryExperiment::sampleBatch,
 * whose lanes reproduce the scalar engine's trials); the
 * multi-thread run must reproduce the single-thread per-trial
 * correction weights bit-for-bit (verified here) — the determinism
 * contract of sim/parallel.hpp.
 *
 * Measurement method: each configuration is decoded once untimed
 * (warm-up: faults the pool's worker threads awake, warms caches
 * and allocator arenas), then the timed loop repeats the whole
 * trial set enough times for the wall clock to dwarf dispatch
 * overhead (>= --min-window-ms, calibrated on the median of five
 * single-thread probe passes and reused for the multi-thread run so
 * the scaling ratio compares identical work). Without this, a smoke-sized window is
 * almost pure thread-pool wake latency and the "multi-thread
 * throughput" column reports the cold-dispatch artifact instead of
 * the decoder — the sub-single-thread numbers once reported at
 * d=9 were exactly that.
 *
 * The JSON's `metrics` section is captured before any timing: every
 * configuration decodes its trial set exactly once, single-threaded,
 * so the counters do not scale with the calibrated rep count and two
 * runs of one build write the same section.
 *
 * The full run decodes d = 5, 9, 13 and 17; --smoke only d = 5.
 *
 * Flags: --smoke (CI-sized run), --threads=N (multi-thread degree,
 * default ThreadPool::defaultThreads()), --trials=N, --out=PATH,
 * --min-window-ms=N (timed-window floor, default 50),
 * --check-scaling=R (exit 1 when any config's multi/single
 * throughput ratio lands below R; skipped with a note on
 * single-core hosts where no speedup is physically available).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "decode/cluster_decoder.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/table.hpp"

namespace {

using namespace quest;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t sampleSeed = 0xDEC0DE;

/**
 * Sample every trial's detection events up front through the
 * batched frame engine, 64 trials per batch (see
 * MemoryExperiment::sampleBatch for the lane-to-trial mapping).
 */
std::vector<decode::DetectionEvents>
sampleAll(const qecc::MemoryExperiment &exp, double p,
          std::uint64_t trials, sim::ThreadPool &pool)
{
    constexpr std::size_t lanes = quantum::BatchPauliFrame::lanes;
    auto per_batch =
        sim::parallelMap<std::vector<decode::DetectionEvents>>(
            pool, (trials + lanes - 1) / lanes, [&](std::uint64_t b) {
                quantum::BatchPauliFrame frame(
                    exp.lattice().numQubits());
                std::vector<qecc::BatchSyndromeRound> history;
                exp.sampleBatch(quantum::ErrorRates{.idle = p, .meas = p},
                                sampleSeed, b, frame, history);
                return decode::extractDetectionEventsBatch(
                    history, exp.extractor());
            });
    std::vector<decode::DetectionEvents> events;
    events.reserve(trials);
    for (std::uint64_t i = 0; i < trials; ++i)
        events.push_back(std::move(per_batch[i / lanes][i % lanes]));
    return events;
}

/** One distance's decoders and its pre-sampled trial set. */
struct Workload
{
    explicit Workload(std::size_t d)
        : distance(d), exp(d), exact(exp.lattice(), 14),
          greedy(exp.lattice(), 0), cluster(exact)
    {
    }

    /** Call f(name, decode_one) for each decoder under test. */
    template <typename F>
    void
    forEachDecoder(F &&f) const
    {
        f("mwpm_exact", [this](const decode::DetectionEvents &e) {
            return exact.decode(e);
        });
        f("mwpm_greedy", [this](const decode::DetectionEvents &e) {
            return greedy.decode(e);
        });
        f("uf_cluster", [this](const decode::DetectionEvents &e) {
            return cluster.decode(e);
        });
    }

    std::size_t distance;
    qecc::MemoryExperiment exp;
    decode::MwpmDecoder exact;
    decode::MwpmDecoder greedy;
    decode::ClusterDecoder cluster;
    std::vector<decode::DetectionEvents> events;
};

/** One timed run: per-trial latencies plus total wall time. */
struct Timing
{
    double trialsPerSec = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    std::size_t threads = 1;
    std::uint64_t reps = 1;      ///< timed passes over the trial set
    double wallSeconds = 0.0;    ///< total timed wall
};

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = std::min(
        sorted.size() - 1,
        std::size_t(q * double(sorted.size() - 1) + 0.5));
    return sorted[idx];
}

Timing
summarize(std::vector<double> latencies, double wall_seconds,
          std::size_t threads, std::uint64_t reps)
{
    Timing t;
    t.threads = threads;
    t.reps = reps;
    t.wallSeconds = wall_seconds;
    t.trialsPerSec = wall_seconds > 0.0
        ? double(latencies.size()) * double(reps) / wall_seconds
        : 0.0;
    std::sort(latencies.begin(), latencies.end());
    t.p50Ns = percentile(latencies, 0.50);
    t.p99Ns = percentile(latencies, 0.99);
    return t;
}

/**
 * Decode the pre-sampled windows on `pool` `reps` times after one
 * untimed warm-up pass, recording per-trial decode latency (final
 * pass) and the per-trial correction weight (the determinism
 * witness). The warm-up pass is what keeps smoke-sized windows
 * honest: it absorbs the pool's cold condvar wake and the
 * decoders' first-touch allocations, which otherwise dominate a
 * 64-trial measurement and invert the scaling ratio.
 */
template <typename DecodeFn>
Timing
runTrials(sim::ThreadPool &pool,
          const std::vector<decode::DetectionEvents> &events,
          const DecodeFn &decode_one,
          std::vector<std::uint64_t> &weights, std::uint64_t reps)
{
    const std::uint64_t trials = events.size();
    std::vector<double> latency(trials, 0.0);
    weights.assign(trials, 0);

    sim::parallelFor(pool, trials, [&](std::uint64_t i) {
        weights[i] = decode_one(events[i]).weight();
    });

    const auto wall0 = Clock::now();
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        const bool last = rep + 1 == reps;
        sim::parallelFor(pool, trials, [&](std::uint64_t i) {
            const auto t0 = Clock::now();
            const decode::Correction corr = decode_one(events[i]);
            const auto t1 = Clock::now();
            if (last) {
                latency[i] = double(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(t1 - t0)
                        .count());
                weights[i] = corr.weight();
            }
        });
    }
    const double wall = std::chrono::duration<double>(
        Clock::now() - wall0).count();
    return summarize(std::move(latency), wall, pool.threads(), reps);
}

struct ConfigResult
{
    std::size_t distance = 0;
    std::string decoder;
    Timing single;
    Timing multi;
    double scaling = 0.0; ///< multi/single throughput ratio
    bool deterministic = false;
};

bench::Json
jsonTiming(const Timing &t)
{
    return bench::jsonObject(0, "threads", t.threads,
                             "trials_per_sec", t.trialsPerSec,
                             "p50_ns", t.p50Ns, "p99_ns", t.p99Ns);
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    bench::Flags flags(argc, argv,
                       "decoder_throughput [--smoke] [--threads=N] "
                       "[--trials=N] [--out=PATH] [--min-window-ms=N] "
                       "[--check-scaling=R]");
    const bool smoke = flags.has("--smoke");
    const std::size_t threads = flags.count("--threads", 0, 0, 1024);
    std::uint64_t trials = flags.count("--trials", 0, 0, 1u << 24);
    const std::string out_path =
        flags.text("--out", "BENCH_decoder_throughput.json");
    const double min_window_ms =
        flags.number("--min-window-ms", 50.0, 0.0, 60000.0);
    // 0 = report only, no gate.
    const double check_scaling =
        flags.number("--check-scaling", 0.0, 0.0, 1024.0);
    flags.done();
    if (trials == 0)
        trials = smoke ? 64 : 1024;
    // Start the cycle-accounting section of the output JSON from a
    // clean registry so it reflects this run only.
    sim::metrics::Registry::global().reset();
    sim::ThreadPool pool(threads ? threads
                                 : sim::ThreadPool::defaultThreads());
    sim::ThreadPool serial(1);

    const double p = 3e-3; // the decoder_comparison workload point
    const std::vector<std::size_t> distances =
        smoke ? std::vector<std::size_t>{5}
              : std::vector<std::size_t>{5, 9, 13, 17};

    // A deque never moves its elements, and each Workload's
    // decoders reference its lattice.
    std::deque<Workload> workloads;
    for (const std::size_t d : distances) {
        Workload &w = workloads.emplace_back(d);
        w.events = sampleAll(w.exp, p, trials, pool);
    }

    // The cycle-accounting snapshot: one untimed single-thread
    // decode per trial per decoder, captured before calibration.
    for (const Workload &w : workloads) {
        w.forEachDecoder([&](const char *, const auto &decode_one) {
            for (const decode::DetectionEvents &e : w.events)
                decode_one(e);
        });
    }
    const bench::Json metrics_json = bench::metricsJson();

    std::vector<ConfigResult> results;
    for (const Workload &w : workloads) {
        w.forEachDecoder([&](const char *name, const auto &decode_one) {
            ConfigResult r;
            r.distance = w.distance;
            r.decoder = name;
            std::vector<std::uint64_t> w_single, w_multi;
            // Calibrate the rep count on warm single-thread probes,
            // then time both runs over identical work.
            const std::uint64_t reps = bench::calibrateReps(
                bench::medianProbeSeconds([&] {
                    return runTrials(serial, w.events, decode_one,
                                     w_single, 1)
                        .wallSeconds;
                }),
                min_window_ms / 1e3);
            r.single = runTrials(serial, w.events, decode_one,
                                 w_single, reps);
            r.multi = runTrials(pool, w.events, decode_one,
                                w_multi, reps);
            r.scaling = r.single.trialsPerSec > 0.0
                ? r.multi.trialsPerSec / r.single.trialsPerSec
                : 0.0;
            r.deterministic = w_single == w_multi;
            QUEST_ASSERT(r.deterministic,
                         "multi-thread decode diverged from "
                         "single-thread on %s d=%zu",
                         name, w.distance);
            results.push_back(r);
        });
    }

    sim::Table table("Decoder throughput (p=3e-3 memory windows, "
                     + std::to_string(trials) + " trials)");
    table.header({ "distance", "decoder", "1T trials/s", "1T p50 us",
                   "1T p99 us", std::to_string(pool.threads())
                       + "T trials/s", "scaling", "reps",
                   "deterministic" });
    for (const ConfigResult &r : results) {
        char b1[32], b2[32], b3[32], b4[32], b5[32];
        std::snprintf(b1, sizeof(b1), "%.0f", r.single.trialsPerSec);
        std::snprintf(b2, sizeof(b2), "%.1f", r.single.p50Ns / 1e3);
        std::snprintf(b3, sizeof(b3), "%.1f", r.single.p99Ns / 1e3);
        std::snprintf(b4, sizeof(b4), "%.0f", r.multi.trialsPerSec);
        std::snprintf(b5, sizeof(b5), "%.2f", r.scaling);
        table.row({ std::to_string(r.distance), r.decoder, b1, b2,
                    b3, b4, b5, std::to_string(r.single.reps),
                    r.deterministic ? "yes" : "NO" });
    }
    table.caption("single-thread latency tracks the scratch-arena + "
                  "distance-cache hot path; scaling is the "
                  "multi/single throughput ratio over identical "
                  "warmed, rep-expanded work");
    table.print(std::cout);

    std::vector<bench::Json> configs;
    for (const ConfigResult &r : results)
        configs.push_back(bench::jsonObject(
            4, "distance", r.distance, "decoder", r.decoder,
            "single_thread", jsonTiming(r.single),
            "multi_thread", jsonTiming(r.multi),
            "scaling", r.scaling, "reps", r.single.reps,
            "deterministic", r.deterministic));
    std::cout << "\n";
    bench::writeJsonFile(
        out_path,
        bench::jsonObject(2, "bench", "decoder_throughput",
                          "smoke", smoke, "trials", trials,
                          "error_rate", p, "configs", configs,
                          "metrics", metrics_json));

    if (check_scaling > 0.0) {
        if (std::thread::hardware_concurrency() < 2
            || pool.threads() < 2) {
            std::cout << "check-scaling: skipped (host offers "
                      << std::thread::hardware_concurrency()
                      << " core(s); no parallel speedup is "
                         "physically available)\n";
            return 0;
        }
        int bad = 0;
        for (const ConfigResult &r : results) {
            if (r.scaling < check_scaling) {
                std::cout << "check-scaling: d=" << r.distance
                          << " " << r.decoder << " scaled "
                          << r.scaling << "x < required "
                          << check_scaling << "x\n";
                ++bad;
            }
        }
        if (bad != 0)
            return 1;
        std::cout << "check-scaling: all configs >= "
                  << check_scaling << "x\n";
    }
    return 0;
}
