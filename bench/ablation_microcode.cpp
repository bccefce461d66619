/**
 * @file
 * Ablation: which optimization buys what? Isolates the three design
 * levers DESIGN.md calls out -- FIFO addressing (drop address
 * bits), unit-cell replay (drop per-qubit storage) and channel
 * count -- plus the coalesced mask table, quantifying each step's
 * contribution to qubits-per-MCE and mask capacity.
 */

#include "bench_util.hpp"
#include "core/mask_table.hpp"
#include "core/microcode.hpp"
#include "qecc/concatenation.hpp"

namespace {

using namespace quest;
using core::MicrocodeDesign;
using core::MicrocodeModel;
using tech::MemoryConfig;

void
printFigure()
{
    const MicrocodeModel model(
        qecc::protocolSpec(qecc::Protocol::Steane),
        tech::Technology::ProjectedD);

    sim::Table table("Ablation: microcode optimizations (4Kb, "
                     "Steane, ProjectedD)");
    table.header({ "design step", "qubits/MCE", "gain vs previous" });

    struct Step
    {
        const char *name;
        MicrocodeDesign design;
        MemoryConfig cfg;
    };
    const Step steps[] = {
        { "RAM, 1 channel (baseline)", MicrocodeDesign::Ram,
          MemoryConfig{1, 4096} },
        { "+ FIFO addressing", MicrocodeDesign::Fifo,
          MemoryConfig{1, 4096} },
        { "+ unit-cell replay", MicrocodeDesign::UnitCell,
          MemoryConfig{1, 4096} },
        { "+ 4 memory channels", MicrocodeDesign::UnitCell,
          MemoryConfig{4, 1024} },
    };

    double prev = 0.0;
    for (const Step &s : steps) {
        const double q =
            double(model.servicedQubits(s.design, s.cfg));
        char gain[32];
        if (prev > 0.0)
            std::snprintf(gain, sizeof(gain), "%.1fx", q / prev);
        else
            std::snprintf(gain, sizeof(gain), "-");
        table.row({ s.name, sim::formatCount(q), gain });
        prev = q;
    }
    table.caption("paper: FIFO alone is 3-4x; unit-cell + channels "
                  "reach ~90x the unoptimized design");
    quest::bench::emit(table);

    // Mask-table ablation.
    sim::Table mask("Ablation: mask table capacity (per MCE tile)");
    mask.header({ "code distance", "full mask bits",
                  "coalesced bits", "reduction" });
    quest::sim::StatGroup stats("bench");
    for (std::size_t d : { 3u, 5u, 7u, 11u }) {
        const qecc::Lattice lattice(2 * d - 1, 8 * d);
        const core::MaskTable full(lattice, core::MaskLayout::Full,
                                   d, stats);
        const core::MaskTable coalesced(
            lattice, core::MaskLayout::Coalesced, d, stats);
        char red[32];
        std::snprintf(red, sizeof(red), "%.1fx",
                      double(full.capacityBits())
                          / double(coalesced.capacityBits()));
        mask.row({
            std::to_string(d),
            std::to_string(full.capacityBits()),
            std::to_string(coalesced.capacityBits()),
            red,
        });
    }
    mask.caption("paper: logical operations act at d^2 granularity, "
                 "so N/d^2 mask bits suffice");
    quest::bench::emit(mask);

    // Section 9 extension: concatenated [[7,1,3]] with the inner
    // level(s) absorbed into microcode.
    sim::Table concat("Extension (Section 9): concatenated [[7,1,3]] "
                      "with hardware-managed inner levels (p=1e-5)");
    concat.header({ "target logical error", "levels",
                    "phys qubits/logical", "software EC instr/cycle",
                    "hybrid EC instr/cycle", "savings" });
    const qecc::ConcatenationModel cmodel;
    for (double target : { 1e-8, 1e-12, 1e-20 }) {
        const auto plan = cmodel.plan(1e-5, target, 1);
        char sav[32];
        std::snprintf(sav, sizeof(sav), "%.0fx", plan.savings());
        concat.row({
            sim::formatCount(target),
            std::to_string(plan.levels),
            sim::formatCount(plan.physicalQubitsPerLogical),
            sim::formatCount(plan.softwareInstrPerCycle),
            sim::formatCount(plan.hybridInstrPerCycle),
            sav,
        });
    }
    concat.caption("microcoding the inner level removes the "
                   "fastest, widest EC tier from the software "
                   "stream (~blockSize x slowdown per level)");
    quest::bench::emit(concat);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
