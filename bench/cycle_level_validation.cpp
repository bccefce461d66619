/**
 * @file
 * Cycle-level validation bench: drives the full QuestSystem (master
 * controller, MCEs, microcode replay, noise, two-level decoding and
 * the logical icache) on a small tile array and prints the measured
 * bus ledger -- the Figure-14 story reproduced by simulation rather
 * than by the analytical model. Absolute savings are bounded by the
 * tiny tile, but the decomposition (QECC stays local; logical,
 * sync, syndrome and cache-fill traffic cross the bus) is the
 * paper's architecture in action.
 */

#include "bench_util.hpp"
#include "core/system.hpp"
#include "isa/trace.hpp"

namespace {

using namespace quest;
using core::MasterConfig;
using core::QuestSystem;
using core::SystemReport;

MasterConfig
makeConfig(std::size_t icache_capacity)
{
    MasterConfig cfg;
    cfg.numMces = 4;
    cfg.mce = core::tileConfigForLogicalQubits(3);
    cfg.mce.errorRates = quantum::ErrorRates{1e-4, 0, 0, 0, 1e-4};
    cfg.mce.icacheCapacity = icache_capacity;
    cfg.mce.seed = 1;
    return cfg;
}

SystemReport
runSystem(std::size_t icache_capacity, std::size_t rounds)
{
    QuestSystem sys(makeConfig(icache_capacity));
    sys.placeLogicalQubits();

    isa::TraceGenConfig tg;
    tg.numInstructions = rounds;
    tg.logicalQubits = 4;
    tg.maskFraction = 0.0;
    sys.runMixedWorkload(isa::generateApplicationTrace(tg),
                         isa::generateDistillationRound(0), rounds);
    return sys.report();
}

void
printFigure()
{
    const std::size_t rounds = 2048;
    const SystemReport cached = runSystem(1024, rounds);
    const SystemReport uncached = runSystem(0, rounds);

    sim::Table table("Cycle-level validation: measured bus ledger "
                     "(4 MCEs, d=3 tiles, p=1e-4, 2048 rounds)");
    table.header({ "quantity", "QuEST + icache", "QuEST no icache" });
    auto row = [&](const char *name, double a, double b) {
        table.row({ name, sim::formatBytes(a), sim::formatBytes(b) });
    };
    row("baseline-equivalent stream", cached.baselineBytes,
        uncached.baselineBytes);
    row("logical instruction packets", cached.bytesLogical,
        uncached.bytesLogical);
    row("sync tokens", cached.bytesSync, uncached.bytesSync);
    row("syndrome uploads", cached.bytesSyndrome,
        uncached.bytesSyndrome);
    row("correction downloads", cached.bytesCorrections,
        uncached.bytesCorrections);
    row("distillation fills/tokens", cached.bytesCache,
        uncached.bytesCache);
    row("total bus traffic", cached.questBusBytes,
        uncached.questBusBytes);
    table.row({ "measured savings",
                sim::formatCount(cached.savings()),
                sim::formatCount(uncached.savings()) });
    table.caption("QECC never crosses the global bus: it is "
                  "replayed from each MCE's microcode memory");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
