/**
 * @file
 * Figure 6: ratio of QECC instructions to regular (application)
 * instructions across the workload suite -- "QECC requires an
 * instruction overhead of 4 to 9 orders of magnitude" and 99.999%+
 * of the stream is error correction.
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
    sim::Table table(
        "Figure 6: QECC instructions per regular instruction");
    table.header({ "workload", "QECC:regular ratio", "log10",
                   "QECC share of stream" });

    const ResourceEstimator est;
    for (const auto &w : workloads::workloadSuite()) {
        const auto r = est.estimate(w);
        const double share = r.qeccInstructions
            / (r.qeccInstructions + r.appInstructions
               + r.distillInstructions);
        char share_buf[32];
        std::snprintf(share_buf, sizeof(share_buf), "%.6f%%",
                      share * 100.0);
        table.row({
            w.name,
            sim::formatCount(r.qeccRatio()),
            sim::formatCount(std::log10(r.qeccRatio())),
            share_buf,
        });
    }
    table.caption("paper: 4 to 9 orders of magnitude; ~99.999% of "
                  "all instructions are QECC");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
