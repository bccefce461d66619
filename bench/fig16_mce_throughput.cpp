/**
 * @file
 * Figure 16: MCE throughput (qubits serviced per MCE) for the four
 * syndrome designs across the three technology points, using each
 * design's optimal 4 Kb microcode configuration. Slower gate
 * technologies leave more streaming time per round, so
 * ExperimentalS services the most qubits; the compact SC codes beat
 * the deeper Shor-style extraction.
 */

#include "bench_util.hpp"
#include "core/microcode.hpp"
#include "tech/parameters.hpp"

namespace {

using namespace quest;
using core::MicrocodeDesign;
using core::MicrocodeModel;

void
printFigure()
{
    sim::Table table("Figure 16: qubits serviced per MCE "
                     "(unit-cell ucode, optimal 4Kb config)");
    table.header({ "syndrome", "ExperimentalS", "ProjectedF",
                   "ProjectedD" });

    auto &registry = sim::metrics::Registry::global();
    for (qecc::Protocol proto : qecc::allProtocols) {
        std::vector<std::string> row{ qecc::protocolName(proto) };
        const auto &spec = qecc::protocolSpec(proto);
        for (tech::Technology t : tech::allTechnologies) {
            const MicrocodeModel model(spec, t);
            const tech::MemoryConfig cfg = model.optimalConfig(4096);
            const std::size_t qubits =
                model.servicedQubits(MicrocodeDesign::UnitCell, cfg);
            row.push_back(std::to_string(qubits));
            // Cycle breakdown behind the plotted point: the round
            // budget in ticks and the per-qubit uop demand that
            // divides it.
            const std::string prefix = "fig16."
                + qecc::protocolName(proto) + "."
                + tech::technologyName(t) + ".";
            registry.gauge(prefix + "qubits_per_mce",
                           "qubits serviced per MCE")
                .set(double(qubits));
            registry.gauge(prefix + "round_ticks",
                           "QECC round duration (ticks)")
                .set(double(spec.roundDuration(
                    tech::gateLatencies(t))));
            registry.gauge(prefix + "uops_per_qubit",
                           "uops streamed per qubit per round")
                .set(double(spec.uopsPerQubit));
        }
        table.row(std::move(row));
    }
    table.caption("paper: throughput set by round duration / "
                  "per-round uop demand x memory bandwidth");
    quest::bench::emit(table);
    quest::bench::writeMetricsJson("fig16_mce_throughput",
                                   "BENCH_fig16_mce_throughput.json");
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
