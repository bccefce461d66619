/**
 * @file
 * Figure 11: number of qubits serviced per MCE for the three
 * microcode designs with a fixed 4 Kb microcode memory across
 * 1-, 2- and 4-channel configurations. The capacity-bound RAM/FIFO
 * designs are flat (~48 and ~120 qubits); the unit-cell design is
 * bandwidth-bound and scales super-linearly with channels (6x from
 * 1 to 4 channels).
 */

#include "bench_util.hpp"
#include "core/microcode.hpp"

namespace {

using namespace quest;
using core::MicrocodeDesign;
using core::MicrocodeModel;
using tech::MemoryConfig;

void
printFigure()
{
    sim::Table table("Figure 11: qubits serviced per MCE @ 4Kb "
                     "(Steane, ProjectedD)");
    table.header({ "configuration", "RAM", "FIFO", "Unit-cell" });

    const MicrocodeModel model(
        qecc::protocolSpec(qecc::Protocol::Steane),
        tech::Technology::ProjectedD);
    for (const MemoryConfig cfg :
         { MemoryConfig{1, 4096}, MemoryConfig{2, 2048},
           MemoryConfig{4, 1024} }) {
        table.row({
            cfg.toString(),
            std::to_string(
                model.servicedQubits(MicrocodeDesign::Ram, cfg)),
            std::to_string(
                model.servicedQubits(MicrocodeDesign::Fifo, cfg)),
            std::to_string(model.servicedQubits(
                MicrocodeDesign::UnitCell, cfg)),
        });
    }
    table.caption("paper: RAM ~48 and FIFO ~120 regardless of "
                  "channels; unit-cell grows super-linearly "
                  "(6x bandwidth at 4 channels)");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
