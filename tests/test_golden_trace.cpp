/**
 * @file
 * Golden-trace regression tests: the observability layer's core
 * promise is that a fixed-seed workload yields a *byte-identical*
 * metrics snapshot and an identical trace-count digest regardless of
 * how many threads executed it and across repeated runs.
 *
 * The workload is the ISSUE-specified reference: a d=5 surface-code
 * tile pair run for 100 QECC rounds under the master controller
 * (single-threaded cycle model), followed by a Monte-Carlo decode
 * sweep fanned out on a ThreadPool — the part whose scheduling
 * genuinely varies with thread count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/master_controller.hpp"
#include "core/system.hpp"
#include "decode/detection.hpp"
#include "decode/mwpm_decoder.hpp"
#include "decode/streaming.hpp"
#include "qecc/extractor.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/thread_pool.hpp"
#include "sim/trace.hpp"

namespace {

using namespace quest;

constexpr std::uint64_t goldenSeed = 0x601Dull;
constexpr std::size_t goldenDistance = 5;
constexpr std::size_t goldenRounds = 100;
constexpr std::uint64_t goldenTrials = 32;
constexpr std::uint64_t goldenBatches = 2;

struct GoldenRun
{
    std::string snapshot;
    std::uint64_t digest = 0;
    /** Uops in the phase-5 out-of-order issue plan (one round). */
    std::uint64_t schedIssued = 0;
};

/** Run the reference workload on `threads` workers. */
GoldenRun
runGolden(std::size_t threads)
{
    auto &tracer = sim::Tracer::instance();
    sim::metrics::Registry::global().reset();
    tracer.clear();
    tracer.setEnabled(true);

    GoldenRun out;
    {
        // Phase 1: cycle-level system, fixed seed, 100 rounds.
        core::MasterConfig cfg;
        cfg.numMces = 2;
        cfg.mce = core::tileConfigForLogicalQubits(goldenDistance);
        cfg.mce.seed = goldenSeed;
        cfg.mce.errorRates =
            quantum::ErrorRates{1e-3, 0, 0, 0, 1e-3};
        core::MasterController master(cfg);
        master.runRounds(goldenRounds);

        // Phase 2: parallel Monte-Carlo decode sweep. Each trial
        // draws from Rng::substream(seed, trial), so the sampled
        // windows — and therefore every counter bump and trace
        // event — are a pure function of the trial index.
        const qecc::Lattice lattice =
            qecc::Lattice::forDistance(goldenDistance);
        const auto schedule = qecc::buildRoundSchedule(
            lattice,
            qecc::protocolSpec(qecc::Protocol::Steane));
        const qecc::SyndromeExtractor extractor(schedule);
        const decode::MwpmDecoder decoder(lattice);
        sim::ThreadPool pool(threads);
        sim::parallelFor(pool, goldenTrials, [&](std::uint64_t i) {
            sim::Rng rng = sim::Rng::substream(goldenSeed, i);
            quantum::ErrorChannel channel(
                quantum::ErrorRates{3e-3, 0, 0, 0, 3e-3}, rng);
            quantum::PauliFrame frame(lattice.numQubits());
            auto history = extractor.runRounds(frame, &channel,
                                               goldenDistance);
            history.push_back(extractor.runRound(frame, nullptr));
            const decode::DetectionEvents events =
                decode::extractDetectionEvents(history, extractor);
            decoder.decode(events);
        });

        // Phase 3: the same sweep through the bit-parallel batch
        // engine — two 64-lane batches fanned out on the pool. The
        // batch counters (qecc.batch.*) and the per-lane decodes
        // must land in the snapshot identically for every thread
        // count: lane t of batch b is trial b*64 + t by
        // construction, so scheduling cannot reorder any draw.
        sim::parallelFor(pool, goldenBatches, [&](std::uint64_t b) {
            quantum::BatchPauliFrame frame(lattice.numQubits());
            quantum::BatchErrorChannel channel(
                quantum::ErrorRates{3e-3, 0, 0, 0, 3e-3},
                goldenSeed,
                b * quantum::BatchPauliFrame::lanes);
            auto history = extractor.runRoundsBatch(
                frame, &channel, goldenDistance);
            history.push_back(
                extractor.runRoundBatch(frame, nullptr));
            const auto events =
                decode::extractDetectionEventsBatch(history,
                                                    extractor);
            for (const auto &lane : events)
                decoder.decode(lane);
        });

        // Phase 4: streaming sliding-window decode sweep on the
        // pool. Each trial owns a StreamingDecoder fed from
        // Rng::substream(seed, trial), so the decode.stream.*
        // counters and the lag histogram are a pure function of the
        // trial set regardless of scheduling.
        const decode::StreamConfig stream_cfg{ 4, 2, {} };
        sim::parallelFor(pool, goldenTrials, [&](std::uint64_t i) {
            sim::Rng rng = sim::Rng::substream(goldenSeed + 1, i);
            quantum::ErrorChannel channel(
                quantum::ErrorRates{3e-3, 0, 0, 0, 3e-3}, rng);
            quantum::PauliFrame frame(lattice.numQubits());
            decode::StreamingDecoder streamer(extractor,
                                              stream_cfg);
            extractor.runRoundsStreaming(
                frame, &channel, goldenDistance,
                [&](const qecc::SyndromeRound &round) {
                    streamer.pushRound(round);
                });
            streamer.pushRound(extractor.runRound(frame, nullptr));
            streamer.finish();
        });

        // Phase 5: out-of-order replay sweep. The dynamic
        // scheduler's issue plan is a pure function of the masked
        // program, so the sched.* counters — planned once, replayed
        // every round — must land in the snapshot identically for
        // every thread count (the cycle model itself is serial).
        core::MceConfig ooo_cfg;
        ooo_cfg.distance = 3;
        ooo_cfg.seed = goldenSeed + 2;
        ooo_cfg.scheduling = core::SchedulingMode::OutOfOrder;
        ooo_cfg.errorRates =
            quantum::ErrorRates{1e-3, 0, 0, 0, 1e-3};
        core::Mce ooo("golden-ooo", ooo_cfg);
        for (std::size_t r = 0; r < goldenDistance; ++r)
            ooo.runQeccRound();
        out.schedIssued = ooo.lastIssuePlan().issued;

        // Snapshot while the master's stat tree is still attached.
        out.snapshot = sim::metricsSnapshot();
        out.digest = tracer.countDigest();
    }
    tracer.setEnabled(false);
    return out;
}

TEST(GoldenTrace, WorkloadProducesObservableActivity)
{
    const GoldenRun r = runGolden(1);
    // The snapshot must actually witness the instrumented
    // components, not vacuously compare empty strings. Replay
    // rounds: 2 master tiles x 100 offline rounds plus the d=3
    // phase-5 out-of-order tile's rounds.
    EXPECT_NE(r.snapshot.find(
                  "mce.replay.rounds "
                  + std::to_string(200 + goldenDistance)),
              std::string::npos)
        << r.snapshot;
    EXPECT_NE(r.snapshot.find("decode.mwpm.decodes"),
              std::string::npos);
    EXPECT_NE(r.snapshot.find("master.bus_bytes_syndrome"),
              std::string::npos);
    // Batched engine accounting: 2 batches x (d noisy + 1 quiet)
    // rounds must be witnessed exactly.
    EXPECT_NE(r.snapshot.find("qecc.batch.rounds 12"),
              std::string::npos)
        << r.snapshot;
    // Streaming sweep accounting: 32 trials x (d noisy + 1 quiet)
    // pushed rounds, and 3 windows per trial (two full 4-round
    // windows plus the flush) must be witnessed exactly.
    EXPECT_NE(r.snapshot.find("decode.stream.rounds 192"),
              std::string::npos)
        << r.snapshot;
    EXPECT_NE(r.snapshot.find("decode.stream.windows 96"),
              std::string::npos)
        << r.snapshot;
    // Out-of-order sweep accounting: one issue plan serves all
    // phase-5 rounds, so sched.issued witnesses exactly one round's
    // uop count (computed at runtime — the program depends on the
    // protocol and lattice) and sched.replay.rounds the replays.
    ASSERT_GT(r.schedIssued, 0u);
    EXPECT_NE(r.snapshot.find("sched.issued "
                              + std::to_string(r.schedIssued)),
              std::string::npos)
        << r.snapshot;
    EXPECT_NE(r.snapshot.find("sched.replay.rounds "
                              + std::to_string(goldenDistance)),
              std::string::npos)
        << r.snapshot;
    if (sim::traceCompiledIn()) {
        EXPECT_NE(r.digest, sim::emptyTraceDigest);
    }
}

TEST(GoldenTrace, ByteIdenticalAcrossThreadCounts)
{
    const GoldenRun one = runGolden(1);
    const GoldenRun two = runGolden(2);
    const GoldenRun five = runGolden(5);

    EXPECT_EQ(one.snapshot, two.snapshot);
    EXPECT_EQ(one.snapshot, five.snapshot);
    EXPECT_EQ(one.digest, two.digest);
    EXPECT_EQ(one.digest, five.digest);
}

TEST(GoldenTrace, ByteIdenticalAcrossRepeatedRuns)
{
    const GoldenRun first = runGolden(2);
    const GoldenRun second = runGolden(2);
    EXPECT_EQ(first.snapshot, second.snapshot);
    EXPECT_EQ(first.digest, second.digest);
}

// ---------------------------------------------------------------------------
// Pinned modelled ledger
//
// The expected strings were recorded from the per-slot replay loop and
// the unmemoized arbiter. Replay and arbitration are timing models, so
// a performance change must leave every line as it is; a change to the
// model itself re-records them and says why.
// ---------------------------------------------------------------------------

/**
 * The replay and arbitration ledger of one run, one "name value" line
 * per metric: the execution-unit scalars summed over tiles, then the
 * mce.replay.* and sched.* registry rows.
 */
std::string
modelledLedger(core::MasterController &master)
{
    std::string out;
    for (const char *stat : {"exec_unit.latches",
                             "exec_unit.master_clocks",
                             "exec_unit.fired_instructions"}) {
        double sum = 0.0;
        for (std::size_t i = 0; i < master.numMces(); ++i)
            master.mce(i).stats().visitValues(
                [&](const std::string &name, double v) {
                    if (name == stat)
                        sum += v;
                });
        out += std::string(stat) + " "
            + std::to_string(std::uint64_t(sum)) + "\n";
    }
    const std::string snapshot = sim::metricsSnapshot();
    std::size_t pos = 0;
    while (pos < snapshot.size()) {
        std::size_t end = snapshot.find('\n', pos);
        if (end == std::string::npos)
            end = snapshot.size();
        const std::string line = snapshot.substr(pos, end - pos);
        if (line.rfind("mce.replay.", 0) == 0
            || line.rfind("sched.", 0) == 0)
            out += line + "\n";
        pos = end + 1;
    }
    return out;
}

core::MasterConfig
ledgerConfig(core::SchedulingMode mode)
{
    core::MasterConfig cfg;
    cfg.numMces = 3;
    cfg.mce = core::tileConfigForLogicalQubits(3);
    cfg.mce.seed = goldenSeed;
    cfg.mce.errorRates = quantum::ErrorRates{1e-3, 0, 0, 0, 1e-3};
    cfg.mce.scheduling = mode;
    return cfg;
}

TEST(GoldenLedger, InOrderReplayIsPinned)
{
    sim::metrics::Registry::global().reset();
    core::MasterConfig cfg =
        ledgerConfig(core::SchedulingMode::InOrder);
    cfg.sharedFetchBandwidth = 8;
    core::MasterController master(cfg);
    master.runRounds(4);
    const int id = master.mce(1).defineLogicalQubit(qecc::Coord{2, 2});
    master.runRounds(3);
    master.mce(1).executeLogical({isa::LogicalOpcode::Hadamard,
                                  std::uint16_t(id)});
    master.mce(1).executeLogical({isa::LogicalOpcode::MaskExpand,
                                  std::uint16_t(id)});
    master.runRounds(3);

    EXPECT_EQ(modelledLedger(master),
              "exec_unit.latches 28570\n"
              "exec_unit.master_clocks 210\n"
              "exec_unit.fired_instructions 10428\n"
              "mce.replay.hung_rounds 0\n"
              "mce.replay.microcode_bits 114240\n"
              "mce.replay.rounds 30\n"
              "mce.replay.seu_uop_errors 0\n"
              "mce.replay.uops 10428\n"
              "sched.cycles 10730\n"
              "sched.issued 10428\n"
              "sched.plans 30\n"
              "sched.queue_occupancy.count 30\n"
              "sched.queue_occupancy.max 0\n"
              "sched.queue_occupancy.mean 0\n"
              "sched.queue_occupancy.min 0\n"
              "sched.queue_occupancy.p50 0\n"
              "sched.queue_occupancy.p99 0\n"
              "sched.queue_occupancy.sum 0\n"
              "sched.replay.cycles 0\n"
              "sched.replay.rounds 0\n"
              "sched.stall.bandwidth 3560\n"
              "sched.stall.data 0\n"
              "sched.stall.fetch 0\n"
              "sched.stall.queue_full 0\n"
              "sched.tile0.bw_wait_cycles 1190\n"
              "sched.tile0.slack 5.9716775599128527\n"
              "sched.tile1.bw_wait_cycles 1180\n"
              "sched.tile1.slack 5.9716775599128527\n"
              "sched.tile2.bw_wait_cycles 1190\n"
              "sched.tile2.slack 5.9716775599128527\n");
}

TEST(GoldenLedger, ArbitratedOutOfOrderReplayIsPinned)
{
    sim::metrics::Registry::global().reset();
    core::MasterConfig cfg =
        ledgerConfig(core::SchedulingMode::OutOfOrder);
    cfg.sharedFetchBandwidth = 8;
    core::MasterController master(cfg);
    master.runRounds(3);
    const int id = master.mce(0).defineLogicalQubit(qecc::Coord{2, 2});
    master.runRounds(2);
    master.mce(0).executeLogical({isa::LogicalOpcode::MaskExpand,
                                  std::uint16_t(id)});
    master.mce(2).wedge();
    master.runRounds(3);
    master.mce(0).executeLogical({isa::LogicalOpcode::MaskMove,
                                  std::uint16_t(id)});
    master.mce(2).recover();
    master.runRounds(3);
    master.mce(0).releaseLogicalQubit(id);
    master.runRounds(2);

    EXPECT_EQ(modelledLedger(master),
              "exec_unit.latches 12231\n"
              "exec_unit.master_clocks 6426\n"
              "exec_unit.fired_instructions 12231\n"
              "mce.replay.hung_rounds 3\n"
              "mce.replay.microcode_bits 137088\n"
              "mce.replay.rounds 36\n"
              "mce.replay.seu_uop_errors 0\n"
              "mce.replay.uops 12231\n"
              "sched.cycles 13837\n"
              "sched.issued 14345\n"
              "sched.plans 46\n"
              "sched.queue_occupancy.count 43\n"
              "sched.queue_occupancy.max 1\n"
              "sched.queue_occupancy.mean 0.76744186046511631\n"
              "sched.queue_occupancy.min 0\n"
              "sched.queue_occupancy.p50 1\n"
              "sched.queue_occupancy.p99 1\n"
              "sched.queue_occupancy.sum 33\n"
              "sched.replay.cycles 8604\n"
              "sched.replay.rounds 36\n"
              "sched.stall.bandwidth 3560\n"
              "sched.stall.data 3153\n"
              "sched.stall.fetch 2322\n"
              "sched.stall.queue_full 0\n"
              "sched.tile0.bw_wait_cycles 1190\n"
              "sched.tile0.slack 5.9716775599128527\n"
              "sched.tile1.bw_wait_cycles 1180\n"
              "sched.tile1.slack 5.9716775599128527\n"
              "sched.tile2.bw_wait_cycles 1190\n"
              "sched.tile2.slack 5.9716775599128527\n");
}

} // namespace
