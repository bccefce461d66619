/**
 * @file
 * Raw kernel performance: the batched Pauli-frame sweep versus the
 * scalar one it replaced. This is the loop whose throughput bounds
 * how many Monte-Carlo trials the simulator itself can sustain, so
 * the bench emits BENCH_kernel_speed.json to track the perf
 * trajectory across changes.
 *
 * The scalar sweep samples one qecc::MemoryExperiment shot at a
 * time from Rng::substream(seed, trial); the batched sweep samples
 * the same trials 64 to a batch (sampleBatch), so both sweeps see
 * identical error patterns — the bench cross-checks their
 * detection-event digests and refuses to report a speedup for
 * diverging engines.
 *
 * The sweeps are timed like bench/decoder_throughput: one warm
 * probe pass calibrates a rep count that stretches the timed window
 * past the minimum, so fast engines are not measured over
 * millisecond-scale windows. The multi-threaded row defaults to the
 * hardware concurrency and is skipped outright on 1-core hosts,
 * where it could only measure pool overhead.
 *
 * Flags: --smoke (CI-sized run), --check (exit non-zero unless the
 * digests match and the batched sweep is at least as fast as the
 * scalar one), --threads=N (multi-threaded batched row),
 * --out=PATH. The active SIMD dispatch target (it runs BatchRng's
 * mask kernel) is recorded in the JSON so perf trajectories compare
 * like targets.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "decode/detection.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/simd.hpp"
#include "sim/table.hpp"

namespace {

using namespace quest;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t benchSeed = 0x5ABE11ull;

/** Fold one trial's detection events into a running FNV digest. */
std::uint64_t
foldEvents(std::uint64_t h, const decode::DetectionEvents &events)
{
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (const auto &e : events.xEvents) {
        mix(0x58);
        mix(e.round);
        mix(std::uint64_t(e.ancilla.row));
        mix(std::uint64_t(e.ancilla.col));
    }
    for (const auto &e : events.zEvents) {
        mix(0x5A);
        mix(e.round);
        mix(std::uint64_t(e.ancilla.row));
        mix(std::uint64_t(e.ancilla.col));
    }
    return h;
}

constexpr quantum::ErrorRates sweepRates{ 2e-3, 0, 0, 0, 2e-3 };

/**
 * Scalar engine: one PauliFrame trial at a time, the whole sweep
 * repeated `reps` times. Every rep replays the identical substream
 * seeds, so `digest` lands on the single-rep value.
 */
double
runScalarSweep(const qecc::MemoryExperiment &s, std::uint64_t trials,
               std::uint64_t &digest, std::uint64_t reps = 1)
{
    const auto t0 = Clock::now();
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        digest = 0xcbf29ce484222325ull;
        for (std::uint64_t i = 0; i < trials; ++i) {
            sim::Rng rng = sim::Rng::substream(benchSeed, i);
            const auto shot = s.sampleShot(sweepRates, rng);
            digest = foldEvents(
                digest, decode::extractDetectionEvents(
                            shot.history, s.extractor()));
        }
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Batched engine: the same trials, 64 lanes per frame word. */
double
runBatchedSweep(const qecc::MemoryExperiment &s, std::uint64_t trials,
                std::uint64_t &digest, std::uint64_t reps = 1)
{
    constexpr std::size_t lanes = quantum::BatchPauliFrame::lanes;
    const std::uint64_t batches = (trials + lanes - 1) / lanes;
    // Frame, round and event scratch live across batches: at 2e-3
    // error rates the per-batch work is small enough that allocator
    // round-trips would otherwise dominate the measurement.
    quantum::BatchPauliFrame frame(s.lattice().numQubits());
    std::vector<qecc::BatchSyndromeRound> history;
    std::vector<decode::DetectionEvents> events;
    const auto t0 = Clock::now();
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        digest = 0xcbf29ce484222325ull;
        for (std::uint64_t b = 0; b < batches; ++b) {
            s.sampleBatch(sweepRates, benchSeed, b, frame, history);
            decode::extractDetectionEventsBatchInto(
                history, s.extractor(), nullptr, 0, events);
            const std::uint64_t want =
                std::min<std::uint64_t>(lanes, trials - b * lanes);
            for (std::uint64_t t = 0; t < want; ++t)
                digest = foldEvents(digest, events[t]);
        }
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Batched engine fanned out on a pool (throughput row only). */
double
runBatchedSweepParallel(const qecc::MemoryExperiment &s,
                        std::uint64_t trials, sim::ThreadPool &pool,
                        std::uint64_t reps = 1)
{
    constexpr std::size_t lanes = quantum::BatchPauliFrame::lanes;
    const auto t0 = Clock::now();
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        const auto sizes = sim::parallelMap<std::size_t>(
            pool, (trials + lanes - 1) / lanes, [&](std::uint64_t b) {
                quantum::BatchPauliFrame frame(s.lattice().numQubits());
                std::vector<qecc::BatchSyndromeRound> history;
                s.sampleBatch(sweepRates, benchSeed, b, frame, history);
                thread_local std::vector<decode::DetectionEvents>
                    events;
                decode::extractDetectionEventsBatchInto(
                    history, s.extractor(), nullptr, 0, events);
                std::size_t total = 0;
                for (const auto &lane : events)
                    total += lane.xEvents.size()
                        + lane.zEvents.size();
                return total;
            });
        (void)sizes;
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct FrameResult
{
    std::size_t distance = 0;
    std::uint64_t trials = 0;
    double scalarPerSec = 0.0;
    double batchedPerSec = 0.0;
    double batchedParPerSec = 0.0;
    std::size_t parThreads = 1;
    bool parSkipped = false;
    std::uint64_t scalarReps = 1;
    std::uint64_t batchedReps = 1;
    bool identical = false;

    double
    speedup() const
    {
        return scalarPerSec > 0.0 ? batchedPerSec / scalarPerSec
                                  : 0.0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    bench::Flags flags(argc, argv,
                       "kernel_speed [--smoke] [--check] [--threads=N] "
                       "[--out=PATH]");
    const bool smoke = flags.has("--smoke");
    const bool check = flags.has("--check");
    const std::size_t threads = flags.count("--threads", 0, 0, 1024);
    const std::string out_path =
        flags.text("--out", "BENCH_kernel_speed.json");
    flags.done();

    sim::metrics::Registry::global().reset();

    const double min_seconds = smoke ? 0.02 : 0.2;

    // Frame sweeps at d=7: d noisy rounds + one quiet round per
    // trial, detection events extracted — the Monte-Carlo inner
    // loop everything upstream of the decoder pays per trial.
    const std::uint64_t trials = smoke ? 256 : 4096;
    const qecc::MemoryExperiment sweep(7);
    FrameResult frames;
    frames.distance = 7;
    frames.trials = trials;
    std::uint64_t scalar_digest = 0, batched_digest = 0;
    // Warm probe pass per engine, then a calibrated number of reps
    // so the batched engine (an order of magnitude faster) is still
    // timed over a full window rather than a few milliseconds.
    const double scalar_probe =
        runScalarSweep(sweep, trials, scalar_digest);
    frames.scalarReps = bench::calibrateReps(scalar_probe, min_seconds);
    const double scalar_wall = runScalarSweep(
        sweep, trials, scalar_digest, frames.scalarReps);
    const double batched_probe =
        runBatchedSweep(sweep, trials, batched_digest);
    frames.batchedReps = bench::calibrateReps(batched_probe, min_seconds);
    const double batched_wall = runBatchedSweep(
        sweep, trials, batched_digest, frames.batchedReps);
    frames.scalarPerSec = scalar_wall > 0.0
        ? double(trials * frames.scalarReps) / scalar_wall
        : 0.0;
    frames.batchedPerSec = batched_wall > 0.0
        ? double(trials * frames.batchedReps) / batched_wall
        : 0.0;
    frames.identical = scalar_digest == batched_digest;
    QUEST_ASSERT(frames.identical,
                 "batched sweep diverged from scalar engine "
                 "(digest %llx vs %llx)",
                 (unsigned long long)batched_digest,
                 (unsigned long long)scalar_digest);
    frames.parThreads =
        threads ? threads : sim::ThreadPool::defaultThreads();
    // With fewer than two threads the parallel row can only measure
    // pool overhead, not scaling; skip it (1-core hosts, --threads=1).
    frames.parSkipped = frames.parThreads < 2;
    if (!frames.parSkipped) {
        sim::ThreadPool pool(frames.parThreads);
        frames.parThreads = pool.threads();
        const double probe =
            runBatchedSweepParallel(sweep, trials, pool);
        const std::uint64_t reps = bench::calibrateReps(probe, min_seconds);
        const double wall =
            runBatchedSweepParallel(sweep, trials, pool, reps);
        frames.batchedParPerSec =
            wall > 0.0 ? double(trials * reps) / wall : 0.0;
    }

    sim::Table table("Kernel speed: scalar vs batched d=7 frame "
                     "sweep");
    table.header({ "kernel", "n", "scalar", "batched", "speedup" });
    char b1[32], b2[32], b3[32];
    std::snprintf(b1, sizeof(b1), "%.0f/s", frames.scalarPerSec);
    std::snprintf(b2, sizeof(b2), "%.0f/s", frames.batchedPerSec);
    std::snprintf(b3, sizeof(b3), "%.1fx", frames.speedup());
    table.row({ "frame_trials", std::to_string(frames.trials), b1,
                b2, b3 });
    if (frames.parSkipped) {
        table.row({ "frame_trials_mt",
                    std::to_string(frames.parThreads) + "T",
                    "-", "skipped (<2 threads)", "-" });
    } else {
        std::snprintf(b1, sizeof(b1), "%.0f/s",
                      frames.batchedParPerSec);
        table.row({ "frame_trials_mt",
                    std::to_string(frames.parThreads) + "T", "-", b1,
                    "-" });
    }
    const char *simd_target =
        sim::simdTargetName(sim::simdActiveTarget());
    table.caption("simd " + std::string(simd_target)
                  + "; frame digests "
                  + std::string(frames.identical ? "match"
                                                 : "DIVERGE")
                  + ": lane t of batch b is trial b*64+t");
    table.print(std::cout);

    std::ofstream os(out_path);
    os << "{\n  \"bench\": \"kernel_speed\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"simd_target\": \"" << simd_target << "\",\n"
       << "  \"frames\": {\n"
       << "    \"distance\": " << frames.distance << ",\n"
       << "    \"trials\": " << frames.trials << ",\n"
       << "    \"scalar_reps\": " << frames.scalarReps << ",\n"
       << "    \"batched_reps\": " << frames.batchedReps << ",\n"
       << "    \"scalar_trials_per_sec\": " << frames.scalarPerSec
       << ",\n"
       << "    \"batched_trials_per_sec\": " << frames.batchedPerSec
       << ",\n"
       << "    \"parallel_skipped\": "
       << (frames.parSkipped ? "true" : "false") << ",\n";
    if (!frames.parSkipped)
        os << "    \"batched_parallel_trials_per_sec\": "
           << frames.batchedParPerSec << ",\n";
    os << "    \"parallel_threads\": " << frames.parThreads << ",\n"
       << "    \"speedup\": " << frames.speedup() << ",\n"
       << "    \"digests_identical\": "
       << (frames.identical ? "true" : "false") << "\n  },\n"
       << "  \"metrics\": ";
    sim::metricsWriteJson(os);
    os << "\n}\n";
    std::cout << "\nwrote " << out_path << "\n";

    if (check) {
        bool ok = frames.identical;
        if (frames.speedup() < 1.0) {
            std::cerr << "CHECK FAILED: batched frame sweep slower "
                         "than scalar ("
                      << frames.speedup() << "x)\n";
            ok = false;
        }
        if (!ok)
            return 2;
        std::cout << "check passed: batched frame sweep matches and "
                     "beats the scalar one\n";
    }
    return 0;
}
