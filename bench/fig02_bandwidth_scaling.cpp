/**
 * @file
 * Figure 2: instruction bandwidth of a superconducting quantum
 * computer as Shor's algorithm scales from 128-bit to 1024-bit
 * moduli. The paper's headline: ~100 TB/s at 1024 bits because the
 * machine needs millions of physical qubits, each consuming
 * byte-sized QECC instructions at its operating rate.
 */

#include "bench_util.hpp"
#include "sim/types.hpp"
#include "workloads/estimator.hpp"

namespace {

using namespace quest;
using workloads::ResourceEstimator;

void
printFigure()
{
    sim::Table table(
        "Figure 2: instruction bandwidth vs machine scale (Shor)");
    table.header({ "modulus bits", "logical qubits", "code distance",
                   "physical qubits", "instr bandwidth" });

    const ResourceEstimator est;
    for (std::size_t bits : { 128u, 256u, 512u, 1024u }) {
        const auto r = est.estimate(workloads::shor(bits));
        table.row({
            std::to_string(bits),
            sim::formatCount(r.workload.logicalQubits),
            std::to_string(r.codeDistance),
            sim::formatCount(r.physicalQubits),
            sim::formatRate(r.baselineBandwidth),
        });
    }
    table.caption("paper: linear growth reaching ~100 TB/s at 1024 "
                  "bits with millions of physical qubits");
    table.caption("config: surface code, p=1e-4, ProjectedD, "
                  "Steane-style syndrome (QuRE patch model)");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
