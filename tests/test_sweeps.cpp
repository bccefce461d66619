/**
 * @file
 * Parameterized cross-module sweeps: invariants that must hold for
 * every combination of syndrome protocol, technology point, mask
 * layout and microcode design -- the configuration lattice the
 * paper's evaluation spans.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <tuple>

#include "core/mce.hpp"
#include "core/microcode.hpp"
#include "core/system.hpp"
#include "decode/cluster_decoder.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/parallel.hpp"
#include "workloads/estimator.hpp"

namespace {

using namespace quest;
using core::MicrocodeDesign;
using core::MicrocodeModel;
using qecc::Protocol;
using tech::Technology;

// ---------------------------------------------------------------
// Protocol x Technology microcode invariants.
// ---------------------------------------------------------------

class ProtoTechSweep
    : public ::testing::TestWithParam<std::tuple<Protocol, Technology>>
{
};

TEST_P(ProtoTechSweep, ServicedQubitsOrderedByDesign)
{
    const auto [proto, tech] = GetParam();
    const MicrocodeModel model(qecc::protocolSpec(proto), tech);
    const tech::MemoryConfig cfg{4, 1024};
    const std::size_t ram =
        model.servicedQubits(MicrocodeDesign::Ram, cfg);
    const std::size_t fifo =
        model.servicedQubits(MicrocodeDesign::Fifo, cfg);
    const std::size_t cell =
        model.servicedQubits(MicrocodeDesign::UnitCell, cfg);
    EXPECT_LT(ram, fifo);
    EXPECT_LT(fifo, cell);
}

TEST_P(ProtoTechSweep, OptimalConfigIsAtLeastAsGoodAsAnyStandard)
{
    const auto [proto, tech] = GetParam();
    const MicrocodeModel model(qecc::protocolSpec(proto), tech);
    const tech::MemoryConfig best = model.optimalConfig(4096);
    const std::size_t best_q =
        model.servicedQubits(MicrocodeDesign::UnitCell, best);
    const std::size_t program_bits = qecc::protocolSpec(proto)
            .unitCellUops
        * quest::isa::fifoUopBits(qecc::protocolSpec(proto)
                                      .opcodeCount);
    for (const auto &cfg :
         tech::JJMemoryModel::standardConfigs(4096)) {
        if (cfg.bankBits < program_bits)
            continue; // infeasible for independent channel replay
        EXPECT_GE(best_q, model.servicedQubits(
                              MicrocodeDesign::UnitCell, cfg))
            << cfg.toString();
    }
}

TEST_P(ProtoTechSweep, RoundDurationPositiveAndConsistent)
{
    const auto [proto, tech] = GetParam();
    const auto &spec = qecc::protocolSpec(proto);
    const auto lat = tech::gateLatencies(tech);
    EXPECT_GT(spec.roundDuration(lat), 0u);
    // Round duration is bounded below by its longest single step.
    EXPECT_GE(spec.roundDuration(lat), lat.tCnot);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProtoTechSweep,
    ::testing::Combine(::testing::Values(Protocol::Steane,
                                         Protocol::Shor,
                                         Protocol::SC17,
                                         Protocol::SC13),
                       ::testing::Values(Technology::ExperimentalS,
                                         Technology::ProjectedF,
                                         Technology::ProjectedD)));

// ---------------------------------------------------------------
// MCE invariants across protocols and scheduling modes.
// ---------------------------------------------------------------

class MceConfigSweep
    : public ::testing::TestWithParam<
          std::tuple<Protocol, core::SchedulingMode>>
{
  protected:
    core::MceConfig
    makeConfig() const
    {
        core::MceConfig cfg = core::tileConfigForLogicalQubits(3);
        cfg.protocol = std::get<0>(GetParam());
        cfg.scheduling = std::get<1>(GetParam());
        return cfg;
    }
};

TEST_P(MceConfigSweep, NoiselessRoundsStayClean)
{
    core::Mce mce("mce", makeConfig());
    for (int r = 0; r < 5; ++r)
        EXPECT_FALSE(mce.runQeccRound().any());
}

TEST_P(MceConfigSweep, MaskedRegionsSilenceSyndromes)
{
    core::Mce mce("mce", makeConfig());
    mce.defineLogicalQubit(qecc::Coord{2, 2});
    // An error deep inside defect A is invisible.
    mce.frame().injectX(mce.lattice().index(qecc::Coord{3, 3}));
    EXPECT_FALSE(mce.runQeccRound().any());
}

TEST_P(MceConfigSweep, UnmaskedErrorsAreStillCaught)
{
    core::Mce mce("mce", makeConfig());
    mce.defineLogicalQubit(qecc::Coord{2, 2});
    const std::size_t far_col = makeConfig().latticeCols - 2;
    mce.frame().injectX(
        mce.lattice().index(qecc::Coord{3, int(far_col)}));
    EXPECT_TRUE(mce.runQeccRound().any());
}

TEST_P(MceConfigSweep, DefineReleaseRestoresCleanMask)
{
    core::Mce mce("mce", makeConfig());
    const int id = mce.defineLogicalQubit(qecc::Coord{2, 2});
    EXPECT_GT(mce.maskTable().maskedQubitCount(), 0u);
    mce.releaseLogicalQubit(id);
    EXPECT_EQ(mce.maskTable().maskedQubitCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MceConfigSweep,
    ::testing::Combine(::testing::Values(Protocol::Steane,
                                         Protocol::Shor,
                                         Protocol::SC17,
                                         Protocol::SC13),
                       ::testing::Values(
                           core::SchedulingMode::InOrder,
                           core::SchedulingMode::OutOfOrder)));

// ---------------------------------------------------------------
// Estimator invariants across the full configuration matrix.
// ---------------------------------------------------------------

class EstimatorSweep
    : public ::testing::TestWithParam<std::tuple<Protocol, Technology,
                                                 double>>
{
};

TEST_P(EstimatorSweep, SavingsBandsHoldEverywhere)
{
    const auto [proto, tech, p] = GetParam();
    workloads::EstimatorConfig cfg;
    cfg.protocol = proto;
    cfg.technology = tech;
    cfg.physicalErrorRate = p;
    const workloads::ResourceEstimator est(cfg);
    const auto r = est.estimate(workloads::shor(512));

    EXPECT_GE(r.mceSavings(), 1e4);
    EXPECT_GE(r.totalSavings(), r.mceSavings());
    EXPECT_GT(r.qeccRatio(), 1e5);
    EXPECT_GT(r.physicalQubits, r.workload.logicalQubits);
    EXPECT_GT(r.execTimeSeconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EstimatorSweep,
    ::testing::Combine(::testing::Values(Protocol::Steane,
                                         Protocol::Shor),
                       ::testing::Values(Technology::ExperimentalS,
                                         Technology::ProjectedD),
                       ::testing::Values(1e-3, 1e-4, 1e-5)));

// ---------------------------------------------------------------
// Parallel Monte-Carlo determinism: a full decoder sweep must be
// byte-identical for any thread count (the sim/parallel.hpp
// contract, exercised here on the real simulation stack rather
// than synthetic bodies as in test_parallel.cpp).
// ---------------------------------------------------------------

/** Per-trial witness; two uint64 fields, so no padding to memcmp. */
struct SweepOutcome
{
    std::uint64_t weight = 0;
    std::uint64_t flipHash = 0;
    bool operator==(const SweepOutcome &) const = default;
};

std::uint64_t
hashFlips(std::uint64_t h, const std::vector<std::size_t> &flips)
{
    for (std::size_t q : flips)
        h = (h ^ std::uint64_t(q)) * 0x100000001B3ull;
    return h;
}

/** One complete noisy-memory sweep at the given degree of parallelism. */
std::vector<SweepOutcome>
runDecoderSweep(std::size_t threads)
{
    sim::ThreadPool pool(threads);
    const qecc::MemoryExperiment exp(5, Protocol::Steane, 3);
    const decode::MwpmDecoder exact(exp.lattice(), 12);
    // The cluster decoder pairs within clusters through a matcher at
    // the default exact limit.
    const decode::MwpmDecoder matcher(exp.lattice());
    const decode::ClusterDecoder cluster(matcher);

    constexpr std::uint64_t trials = 96;
    return sim::parallelMap<SweepOutcome>(pool, trials,
        [&](std::uint64_t t) {
            sim::Rng rng = sim::Rng::substream(0xBADA55, t);
            const auto events = decode::extractDetectionEvents(
                exp.sampleShot(quantum::ErrorRates{.idle = 2e-3, .meas = 2e-3},
                               rng).history,
                exp.extractor());

            SweepOutcome out;
            const decode::Correction mw = exact.decode(events);
            const decode::Correction cl = cluster.decode(events);
            out.weight = mw.weight() + (cl.weight() << 32);
            out.flipHash = hashFlips(
                hashFlips(hashFlips(hashFlips(0xCBF29CE484222325ull,
                    mw.xFlips), mw.zFlips), cl.xFlips), cl.zFlips);
            return out;
        }, /*chunk=*/5);
}

TEST(ParallelSweep, DecoderSweepByteIdenticalAcrossThreadCounts)
{
    const std::vector<SweepOutcome> base = runDecoderSweep(1);
    ASSERT_EQ(base.size(), 96u);
    for (std::size_t threads : {2, 5}) {
        const std::vector<SweepOutcome> got = runDecoderSweep(threads);
        ASSERT_EQ(got.size(), base.size()) << threads << " threads";
        EXPECT_EQ(got, base) << threads << " threads";
        EXPECT_EQ(0, std::memcmp(got.data(), base.data(),
                                 base.size() * sizeof(SweepOutcome)))
            << threads << " threads";
    }
}

TEST(ParallelSweep, ReducedErrorRateBitIdenticalAcrossThreadCounts)
{
    // The reduction path (floating-point accumulation) must also be
    // association-stable, not just the per-trial map outputs.
    const auto rate = [](std::size_t threads) {
        sim::ThreadPool pool(threads);
        const qecc::MemoryExperiment exp(5, Protocol::Steane, 3);
        const decode::MwpmDecoder greedy(exp.lattice(), 0);
        constexpr std::uint64_t trials = 64;
        const double sum = sim::parallelReduce(pool, trials, 0.0,
            [&](std::uint64_t t) {
                sim::Rng rng = sim::Rng::substream(77, t);
                const auto shot = exp.sampleShot(
                    quantum::ErrorRates{.idle = 3e-3, .meas = 3e-3}, rng);
                const auto corr = greedy.decode(
                    decode::extractDetectionEvents(shot.history,
                                                   exp.extractor()));
                return double(corr.weight()) * 1e-3 + 1e-9;
            },
            [](double a, double b) { return a + b; }, /*chunk=*/3);
        return sum / double(trials);
    };
    const double expected = rate(1);
    for (std::size_t threads : {2, 4})
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rate(threads)),
                  std::bit_cast<std::uint64_t>(expected))
            << threads << " threads";
}

} // namespace
