/**
 * @file
 * Figure 13: ratio of T-factory (magic-state distillation)
 * instructions to total application logical instructions. T gates
 * are 25-30% of the stream and each consumes a distilled magic
 * state, so a continuously-running factory plant dominates the
 * logical bandwidth.
 */

#include "bench_util.hpp"
#include "workloads/estimator.hpp"

namespace {

using namespace quest;
using workloads::ResourceEstimator;

void
printFigure()
{
    sim::Table table("Figure 13: T-factory instruction overhead");
    table.header({ "workload", "T fraction", "distill levels",
                   "factories", "T-factory:app ratio" });

    const ResourceEstimator est;
    for (const auto &w : workloads::workloadSuite()) {
        const auto r = est.estimate(w);
        char tf[16];
        std::snprintf(tf, sizeof(tf), "%.0f%%", w.tFraction * 100);
        table.row({
            w.name,
            tf,
            std::to_string(r.tPlan.levels),
            std::to_string(r.tPlan.factories),
            sim::formatCount(r.tFactoryRatio()),
        });
    }
    table.caption("paper: distillation instructions exceed "
                  "application instructions by ~1-3 orders of "
                  "magnitude; caching them recovers this factor");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
