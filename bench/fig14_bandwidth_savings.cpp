/**
 * @file
 * Figure 14: global bandwidth savings with QuEST. Hardware-managed
 * QECC in the MCEs buys at least five orders of magnitude; adding
 * the software-managed logical instruction cache for distillation
 * streams buys roughly three more, for ~eight orders total.
 */

#include <cmath>

#include "bench_util.hpp"
#include "workloads/estimator.hpp"

namespace {

using namespace quest;
using workloads::ResourceEstimator;

void
printFigure()
{
    sim::Table table("Figure 14: global bandwidth savings with "
                     "QuEST (ProjectedD, Steane)");
    table.header({ "workload", "baseline BW", "MCE-only savings",
                   "+icache savings", "total log10" });

    const ResourceEstimator est;
    auto &registry = sim::metrics::Registry::global();
    double geometric = 0.0;
    const auto suite = workloads::workloadSuite();
    for (const auto &w : suite) {
        const auto r = est.estimate(w);
        geometric += std::log10(r.totalSavings());
        table.row({
            w.name,
            sim::formatRate(r.baselineBandwidth),
            sim::formatCount(r.mceSavings()),
            sim::formatCount(r.totalSavings()),
            sim::formatCount(std::log10(r.totalSavings())),
        });
        // Bandwidth breakdown for the BENCH JSON: the plotted
        // series plus each tier's absolute bandwidth demand.
        const std::string prefix = "fig14." + w.name + ".";
        registry.gauge(prefix + "baseline_bw",
                       "baseline instr bandwidth (B/s)")
            .set(r.baselineBandwidth);
        registry.gauge(prefix + "mce_bw",
                       "MCE-only instr bandwidth (B/s)")
            .set(r.mceBandwidth);
        registry.gauge(prefix + "cached_bw",
                       "MCE+icache instr bandwidth (B/s)")
            .set(r.cachedBandwidth);
        registry.gauge(prefix + "mce_savings",
                       "baseline / MCE-only bandwidth")
            .set(r.mceSavings());
        registry.gauge(prefix + "total_savings",
                       "baseline / MCE+icache bandwidth")
            .set(r.totalSavings());
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "geometric-mean total savings: 10^%.2f",
                  geometric / double(suite.size()));
    table.caption(buf);
    table.caption("paper: >=5 orders from MCEs alone, ~8 orders "
                  "with logical instruction caching");
    registry.gauge("fig14.geomean_savings_log10",
                   "geometric-mean total savings (log10)")
        .set(geometric / double(suite.size()));
    quest::bench::emit(table);
    quest::bench::writeMetricsJson(
        "fig14_bandwidth_savings",
        "BENCH_fig14_bandwidth_savings.json");
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
