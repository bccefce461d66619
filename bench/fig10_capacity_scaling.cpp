/**
 * @file
 * Figure 10: trends in required microcode memory capacity vs number
 * of qubits serviced, for the RAM (opcode+address), FIFO
 * (opcode-only) and unit-cell microcode designs -- O(N log2 N),
 * O(N) and O(1) respectively.
 */

#include "bench_util.hpp"
#include "core/microcode.hpp"

namespace {

using namespace quest;
using core::MicrocodeDesign;
using core::MicrocodeModel;

void
printFigure()
{
    sim::Table table(
        "Figure 10: microcode capacity vs serviced qubits (Steane)");
    table.header({ "qubits", "RAM bits", "FIFO bits",
                   "unit-cell bits" });

    const MicrocodeModel model(
        qecc::protocolSpec(qecc::Protocol::Steane),
        tech::Technology::ProjectedD);
    for (std::size_t n : { 16u, 32u, 64u, 128u, 256u, 512u, 1024u,
                           4096u }) {
        table.row({
            std::to_string(n),
            std::to_string(model.capacityBits(MicrocodeDesign::Ram,
                                              n)),
            std::to_string(model.capacityBits(MicrocodeDesign::Fifo,
                                              n)),
            std::to_string(model.capacityBits(
                MicrocodeDesign::UnitCell, n)),
        });
    }
    table.caption("paper: RAM grows O(N log2 N), FIFO O(N) "
                  "(3-4x better), unit-cell is flat O(1)");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
