/**
 * @file
 * Table 2: QECC microcode design. For each syndrome protocol, the
 * optimal fixed-4Kb channel configuration (every bank holds a full
 * copy of the unit-cell program so channels replay independently),
 * the resulting JJ count and the streaming power.
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
    sim::Table table("Table 2: QECC microcode design");
    table.header({ "syndrome", "unit-cell instrs",
                   "optimal uCode configuration", "JJ count",
                   "power" });

    const tech::JJMemoryModel mem;
    for (qecc::Protocol proto : qecc::allProtocols) {
        const auto &spec = qecc::protocolSpec(proto);
        const MicrocodeModel model(spec,
                                   tech::Technology::ProjectedD);
        const tech::MemoryConfig best = model.optimalConfig(4096);
        char power[32];
        std::snprintf(power, sizeof(power), "%.1f uW",
                      mem.powerUw(best));
        table.row({
            spec.name,
            std::to_string(spec.unitCellUops),
            best.toString(),
            std::to_string(mem.jjCount(best)),
            power,
        });
    }
    table.caption("paper: Steane 148/4ch/170048/2.1uW, "
                  "Shor 300/2ch/168264/1.1uW, "
                  "SC-17 136/8ch/163472/5.6uW, "
                  "SC-13 147/4ch/170048/2.1uW");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
