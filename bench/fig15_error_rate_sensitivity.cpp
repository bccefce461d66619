/**
 * @file
 * Figure 15: sensitivity of the global bandwidth savings to the
 * physical qubit error rate. Lower error rates shrink the code
 * distance and hence the QECC bloat (smaller MCE savings), while
 * the magic-state distillation overhead barely moves because the
 * factory count scales as C^log|log(e_r)|.
 */

#include <vector>

#include "bench_util.hpp"
#include "sim/parallel.hpp"
#include "workloads/estimator.hpp"

namespace {

using namespace quest;
using workloads::EstimatorConfig;
using workloads::ResourceEstimator;

void
printFigure()
{
    sim::Table table(
        "Figure 15: savings sensitivity to qubit error rate (SHOR-512)");
    table.header({ "error rate", "code distance", "physical qubits",
                   "MCE-only savings", "total savings",
                   "T-factory ratio" });

    // The three sweep points are independent estimator runs; one
    // point per parallel index, rows emitted in sweep order below.
    const std::vector<double> rates{ 1e-3, 1e-4, 1e-5 };
    const auto results = sim::parallelMap<workloads::ResourceEstimate>(
        rates.size(),
        [&](std::uint64_t i) {
            EstimatorConfig cfg;
            cfg.physicalErrorRate = rates[i];
            return ResourceEstimator(cfg).estimate(
                workloads::shor(512));
        },
        /*chunk=*/1);

    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &r = results[i];
        table.row({
            sim::formatCount(rates[i]),
            std::to_string(r.codeDistance),
            sim::formatCount(r.physicalQubits),
            sim::formatCount(r.mceSavings()),
            sim::formatCount(r.totalSavings()),
            sim::formatCount(r.tFactoryRatio()),
        });
    }
    table.caption("paper: lower error rate -> fewer physical qubits "
                  "-> smaller QECC bloat; distillation overhead "
                  "stays roughly constant");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
