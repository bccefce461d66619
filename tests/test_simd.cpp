/**
 * @file
 * Per-target differential tests for the SIMD kernel dispatch
 * (sim/simd.hpp): every backend compiled into this binary must
 * produce bit-identical results — RNG masks and lane-state advance,
 * batched frame sweeps — under each force-selected target,
 * including the portable fallback.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "decode/detection.hpp"
#include "qecc/memory_experiment.hpp"
#include "quantum/batch_pauli_frame.hpp"
#include "quantum/error_model.hpp"
#include "sim/batch_random.hpp"
#include "sim/random.hpp"
#include "sim/simd.hpp"

namespace {

using namespace quest;
using sim::BatchRng;
using sim::Rng;
using sim::SimdTarget;

constexpr std::uint64_t simdSeed = 0x51D3Dull;

/** Targets usable on this host, portable always first. */
std::vector<SimdTarget>
availableTargets()
{
    std::vector<SimdTarget> out;
    for (const SimdTarget t :
         { SimdTarget::Portable, SimdTarget::Avx2, SimdTarget::Avx512,
           SimdTarget::Neon }) {
        if (sim::simdTargetAvailable(t))
            out.push_back(t);
    }
    return out;
}

/** Forces a target for one scope, restoring the previous one. */
class TargetGuard
{
  public:
    explicit TargetGuard(SimdTarget t) : _prev(sim::simdActiveTarget())
    {
        sim::simdForceTarget(t);
    }
    ~TargetGuard() { sim::simdForceTarget(_prev); }
    TargetGuard(const TargetGuard &) = delete;
    TargetGuard &operator=(const TargetGuard &) = delete;

  private:
    SimdTarget _prev;
};

// ---------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------

TEST(SimdDispatch, PortableAlwaysAvailable)
{
    EXPECT_TRUE(sim::simdTargetAvailable(SimdTarget::Portable));
    EXPECT_GE(availableTargets().size(), 1u);
}

TEST(SimdDispatch, ActiveTargetIsAvailable)
{
    const SimdTarget active = sim::simdActiveTarget();
    EXPECT_TRUE(sim::simdTargetAvailable(active));
    EXPECT_STRNE(sim::simdTargetName(active), "unknown");
}

TEST(SimdDispatch, ForceTargetSwitchesKernelTable)
{
    for (const SimdTarget t : availableTargets()) {
        TargetGuard guard(t);
        EXPECT_EQ(sim::simdActiveTarget(), t);
        EXPECT_STREQ(sim::simdKernels().name, sim::simdTargetName(t));
    }
}

// ---------------------------------------------------------------
// BatchRng: masks and lane states identical across targets, and
// lane t still mirrors the scalar substream draw for draw.
// ---------------------------------------------------------------

TEST(SimdRng, ThresholdMaskBitIdenticalAcrossTargets)
{
    const std::vector<double> ps{ 0.5, 2e-3, 0.25, 0.9 };
    std::vector<std::uint64_t> want_masks;
    std::vector<std::uint64_t> want_tail;
    for (const SimdTarget t : availableTargets()) {
        TargetGuard guard(t);
        BatchRng rng(simdSeed, 128);
        std::vector<std::uint64_t> masks;
        for (int rep = 0; rep < 32; ++rep)
            for (const double p : ps)
                masks.push_back(rng.bernoulliMask(p));
        // The lane states advanced identically too: scalar draws
        // after the mask sequence must agree across targets.
        std::vector<std::uint64_t> tail;
        for (std::size_t lane = 0; lane < BatchRng::lanes; ++lane)
            tail.push_back(rng.next(lane));
        if (want_masks.empty()) {
            want_masks = masks;
            want_tail = tail;
        } else {
            EXPECT_EQ(masks, want_masks)
                << sim::simdTargetName(t);
            EXPECT_EQ(tail, want_tail) << sim::simdTargetName(t);
        }
    }
}

TEST(SimdRng, MaskLanesMirrorScalarSubstreams)
{
    for (const SimdTarget t : availableTargets()) {
        TargetGuard guard(t);
        BatchRng batch(simdSeed, 7);
        std::vector<Rng> scalars;
        for (std::size_t lane = 0; lane < BatchRng::lanes; ++lane)
            scalars.push_back(Rng::substream(simdSeed, 7 + lane));
        for (int rep = 0; rep < 16; ++rep) {
            const double p = rep % 2 ? 0.5 : 3e-3;
            const std::uint64_t mask = batch.bernoulliMask(p);
            for (std::size_t lane = 0; lane < BatchRng::lanes;
                 ++lane) {
                ASSERT_EQ((mask >> lane) & 1u,
                          std::uint64_t(scalars[lane].bernoulli(p)))
                    << sim::simdTargetName(t) << " lane " << lane
                    << " rep " << rep;
            }
        }
    }
}

// ---------------------------------------------------------------
// Batched frame sweeps: the full d in {3,5,7} syndrome-extraction
// differential of tests/test_batch_frame.cpp, repeated under each
// force-selected target. The scalar reference never touches the
// dispatched kernels, so every target is held to the same
// target-independent truth: identical syndrome histories, residual
// error frames and detection events (event order included), which
// also pins the BatchErrorChannel draw order lane for lane.
// ---------------------------------------------------------------

struct ScalarTrialRef
{
    qecc::MemoryExperiment::Shot shot;
    decode::DetectionEvents events;
};

void
runSweepDifferential(std::size_t d)
{
    const qecc::MemoryExperiment exp(d);
    const qecc::Lattice &lattice = exp.lattice();
    const qecc::SyndromeExtractor &extractor = exp.extractor();
    const quantum::ErrorRates rates =
        quantum::ErrorRates::uniform(2e-3);
    constexpr std::size_t lanes = quantum::BatchPauliFrame::lanes;

    std::vector<ScalarTrialRef> ref;
    for (std::size_t t = 0; t < lanes; ++t) {
        Rng rng = Rng::substream(simdSeed, t);
        auto shot = exp.sampleShot(rates, rng);
        auto events = decode::extractDetectionEvents(shot.history,
                                                     extractor);
        ref.push_back({ std::move(shot), std::move(events) });
    }

    for (const SimdTarget target : availableTargets()) {
        TargetGuard guard(target);
        quantum::BatchPauliFrame frame(lattice.numQubits());
        std::vector<qecc::BatchSyndromeRound> history;
        exp.sampleBatch(rates, simdSeed, 0, frame, history);
        std::vector<decode::DetectionEvents> events;
        decode::extractDetectionEventsBatchInto(history, extractor,
                                                nullptr, 0, events);

        ASSERT_EQ(events.size(), lanes);
        for (std::size_t t = 0; t < lanes; ++t) {
            ASSERT_EQ(history.size(), ref[t].shot.history.size());
            for (std::size_t r = 0; r < history.size(); ++r) {
                const qecc::SyndromeRound lane = history[r].lane(t);
                ASSERT_EQ(lane.xFlips, ref[t].shot.history[r].xFlips)
                    << sim::simdTargetName(target) << " d=" << d
                    << " lane " << t << " round " << r;
                ASSERT_EQ(lane.zFlips, ref[t].shot.history[r].zFlips)
                    << sim::simdTargetName(target) << " d=" << d
                    << " lane " << t << " round " << r;
            }
            for (std::size_t q = 0; q < lattice.numQubits(); ++q) {
                ASSERT_EQ(frame.xError(q, t), ref[t].shot.frame.xError(q))
                    << sim::simdTargetName(target) << " d=" << d
                    << " lane " << t << " qubit " << q;
                ASSERT_EQ(frame.zError(q, t), ref[t].shot.frame.zError(q))
                    << sim::simdTargetName(target) << " d=" << d
                    << " lane " << t << " qubit " << q;
            }
            ASSERT_EQ(events[t].xEvents, ref[t].events.xEvents)
                << sim::simdTargetName(target) << " d=" << d
                << " lane " << t;
            ASSERT_EQ(events[t].zEvents, ref[t].events.zEvents)
                << sim::simdTargetName(target) << " d=" << d
                << " lane " << t;
        }
    }
}

class SimdSweepDifferential
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SimdSweepDifferential, BatchMatchesScalarUnderEveryTarget)
{
    runSweepDifferential(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Distances, SimdSweepDifferential,
                         ::testing::Values(3u, 5u, 7u));

} // namespace
