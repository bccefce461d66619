/**
 * @file
 * Differential tests for the bit-parallel batched Pauli-frame
 * engine: a BatchPauliFrame run must be *bit-identical* to 64
 * scalar PauliFrame runs fed the same (seed, trial) Rng substreams
 * — same syndrome flips, same residual error frames, same
 * detection-event sets — across surface-code distances and for any
 * thread count when batches fan out on a ThreadPool.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "decode/detection.hpp"
#include "qecc/memory_experiment.hpp"
#include "quantum/batch_pauli_frame.hpp"
#include "quantum/error_model.hpp"
#include "sim/parallel.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace quest;
using quantum::BatchErrorChannel;
using quantum::BatchPauliFrame;
using quantum::ErrorChannel;
using quantum::ErrorRates;
using quantum::PauliFrame;

constexpr std::uint64_t diffSeed = 0xBA7C4ull;

// ---------------------------------------------------------------
// Kernel-level equivalence: every batch op == 64 scalar ops.
// ---------------------------------------------------------------

TEST(BatchFrame, KernelsMatchScalarOpForOp)
{
    const std::size_t n = 9;
    sim::Rng rng = sim::Rng::substream(diffSeed, 7);
    BatchPauliFrame batch(n);
    std::vector<PauliFrame> scalars(BatchPauliFrame::lanes,
                                    PauliFrame(n));

    for (int step = 0; step < 500; ++step) {
        const std::size_t q = rng.uniformInt(n);
        switch (rng.uniformInt(6)) {
          case 0: {
            const std::uint64_t mask = rng.next();
            batch.injectX(q, mask);
            for (std::size_t t = 0; t < scalars.size(); ++t)
                if ((mask >> t) & 1u)
                    scalars[t].injectX(q);
            break;
          }
          case 1: {
            const std::uint64_t mask = rng.next();
            batch.injectZ(q, mask);
            for (std::size_t t = 0; t < scalars.size(); ++t)
                if ((mask >> t) & 1u)
                    scalars[t].injectZ(q);
            break;
          }
          case 2:
            batch.h(q);
            for (auto &f : scalars)
                f.h(q);
            break;
          case 3:
            batch.s(q);
            for (auto &f : scalars)
                f.s(q);
            break;
          case 4: {
            const std::size_t r = (q + 1) % n;
            batch.cnot(q, r);
            for (auto &f : scalars)
                f.cnot(q, r);
            break;
          }
          case 5: {
            const std::size_t r = (q + 1) % n;
            batch.cz(q, r);
            for (auto &f : scalars)
                f.cz(q, r);
            break;
          }
        }
    }

    for (std::size_t t = 0; t < scalars.size(); ++t) {
        for (std::size_t q = 0; q < n; ++q) {
            ASSERT_EQ(batch.xError(q, t), scalars[t].xError(q))
                << "lane " << t << " qubit " << q;
            ASSERT_EQ(batch.zError(q, t), scalars[t].zError(q))
                << "lane " << t << " qubit " << q;
            ASSERT_EQ(batch.measureZFlipMask(q) >> t & 1u,
                      std::uint64_t(scalars[t].measureZFlip(q)));
        }
        ASSERT_EQ(batch.laneWeight(t), scalars[t].weight());
        ASSERT_EQ(batch.extractLane(t).toPauliString().weight(),
                  scalars[t].toPauliString().weight());
    }
}

// ---------------------------------------------------------------
// Full memory-experiment equivalence per distance.
// ---------------------------------------------------------------

/**
 * Two batches of a distance-d memory experiment under `rates`: each
 * lane must equal the scalar shot of its trial's substream.
 */
void
expectLanesMatchScalarTrials(std::size_t d, const ErrorRates &rates)
{
    const qecc::MemoryExperiment exp(d);
    BatchPauliFrame frame(exp.lattice().numQubits());
    std::vector<qecc::BatchSyndromeRound> history;

    // Batch b covers trials 64b .. 64b+63; each lane must equal the
    // scalar shot drawn from Rng::substream(diffSeed, trial).
    for (const std::uint64_t b : { 0u, 1u }) {
        exp.sampleBatch(rates, diffSeed, b, frame, history);
        const auto events =
            decode::extractDetectionEventsBatch(history, exp.extractor());
        ASSERT_EQ(events.size(), BatchPauliFrame::lanes);
        ASSERT_EQ(history.size(), exp.rounds() + 1);

        for (std::size_t t = 0; t < BatchPauliFrame::lanes; ++t) {
            sim::Rng rng = sim::Rng::substream(
                diffSeed, b * BatchPauliFrame::lanes + t);
            const auto ref = exp.sampleShot(rates, rng);
            const auto ref_events = decode::extractDetectionEvents(
                ref.history, exp.extractor());

            // Syndrome flips, round by round.
            ASSERT_EQ(history.size(), ref.history.size());
            for (std::size_t r = 0; r < history.size(); ++r) {
                const qecc::SyndromeRound lane = history[r].lane(t);
                EXPECT_EQ(lane.xFlips, ref.history[r].xFlips)
                    << "batch " << b << " lane " << t << " round " << r;
                EXPECT_EQ(lane.zFlips, ref.history[r].zFlips)
                    << "batch " << b << " lane " << t << " round " << r;
            }
            // Residual error frame.
            for (std::size_t q = 0; q < exp.lattice().numQubits(); ++q) {
                ASSERT_EQ(frame.xError(q, t), ref.frame.xError(q))
                    << "batch " << b << " lane " << t << " qubit " << q;
                ASSERT_EQ(frame.zError(q, t), ref.frame.zError(q))
                    << "batch " << b << " lane " << t << " qubit " << q;
            }
            // Detection events, including ordering.
            EXPECT_EQ(events[t].xEvents, ref_events.xEvents)
                << "batch " << b << " lane " << t;
            EXPECT_EQ(events[t].zEvents, ref_events.zEvents)
                << "batch " << b << " lane " << t;
        }
    }
}

class BatchSweepDifferential
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BatchSweepDifferential, LanesMatchScalarTrials)
{
    expectLanesMatchScalarTrials(GetParam(), ErrorRates::uniform(2e-3));
}

INSTANTIATE_TEST_SUITE_P(Distances, BatchSweepDifferential,
                         ::testing::Values(3u, 5u, 7u));

/**
 * The same differential where most lane masks carry hits, with a
 * distinct rate per channel: a swapped channel draw order or a
 * mis-resolved hit lane, which sparse uniform noise rarely exposes,
 * shows up in every batch.
 */
class BatchSweepDifferentialHighRate
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BatchSweepDifferentialHighRate, LanesMatchScalarTrials)
{
    expectLanesMatchScalarTrials(GetParam(),
                                 ErrorRates{.idle = 0.02,
                                            .gate2 = 0.03,
                                            .prep = 0.015,
                                            .meas = 0.025});
}

INSTANTIATE_TEST_SUITE_P(Distances, BatchSweepDifferentialHighRate,
                         ::testing::Values(3u, 5u, 7u));

// ---------------------------------------------------------------
// Thread-count invariance of a batched sweep.
// ---------------------------------------------------------------

/** Order-independent-free digest: per-batch slot, then fold. */
std::vector<std::uint64_t>
runBatchedSweep(std::size_t threads)
{
    const std::uint64_t batches = 4; // 256 trials
    const qecc::MemoryExperiment exp(5);

    sim::ThreadPool pool(threads);
    return sim::parallelMap<std::uint64_t>(
        pool, batches, [&](std::uint64_t b) {
            BatchPauliFrame frame(exp.lattice().numQubits());
            std::vector<qecc::BatchSyndromeRound> history;
            exp.sampleBatch(ErrorRates::uniform(3e-3), diffSeed, b,
                            frame, history);
            std::uint64_t digest = 0xcbf29ce484222325ull;
            auto mix = [&digest](std::uint64_t w) {
                digest = (digest ^ w) * 0x100000001b3ull;
            };
            for (const auto &round : history) {
                for (const std::uint64_t w : round.xFlips)
                    mix(w);
                for (const std::uint64_t w : round.zFlips)
                    mix(w);
            }
            for (std::size_t q = 0; q < exp.lattice().numQubits(); ++q) {
                mix(frame.measureZFlipMask(q));
                mix(frame.measureXFlipMask(q));
            }
            return digest;
        });
}

TEST(BatchFrame, SweepBitIdenticalAcrossThreadCounts)
{
    const auto one = runBatchedSweep(1);
    const auto two = runBatchedSweep(2);
    const auto five = runBatchedSweep(5);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, five);
}

/**
 * clear() zeroes both planes on every qubit and lane, so a reused
 * frame then behaves exactly like a freshly constructed one.
 */
TEST(BatchFrame, ClearZeroesEveryPlaneForReuse)
{
    const std::size_t n = 169; // the d = 7 data + ancilla count
    sim::Rng rng = sim::Rng::substream(diffSeed, 11);
    BatchPauliFrame reused(n);
    for (std::size_t q = 0; q < n; ++q)
        reused.injectMasks(q, rng.next(), rng.next());
    ASSERT_GT(reused.totalErrorBits(), 0u);

    reused.clear();
    EXPECT_EQ(reused.totalErrorBits(), 0u);
    for (std::size_t q = 0; q < n; ++q) {
        ASSERT_EQ(reused.measureZFlipMask(q), 0u) << "qubit " << q;
        ASSERT_EQ(reused.measureXFlipMask(q), 0u) << "qubit " << q;
    }

    BatchPauliFrame fresh(n);
    for (int step = 0; step < 200; ++step) {
        const std::size_t q = rng.uniformInt(n);
        const std::uint64_t mask = rng.next();
        reused.injectY(q, mask);
        fresh.injectY(q, mask);
        const std::size_t r = (q + 1) % n;
        reused.cnot(q, r);
        fresh.cnot(q, r);
    }
    for (std::size_t q = 0; q < n; ++q) {
        ASSERT_EQ(reused.measureZFlipMask(q), fresh.measureZFlipMask(q));
        ASSERT_EQ(reused.measureXFlipMask(q), fresh.measureXFlipMask(q));
    }
}

} // namespace
