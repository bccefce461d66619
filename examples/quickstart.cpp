/**
 * @file
 * Quickstart: the QuEST library in ~100 lines.
 *
 * Builds a small control processor (a master controller with four
 * microcoded control engines), places a logical qubit on every MCE
 * tile, runs noisy QECC rounds with hardware-managed error
 * correction, dispatches a few logical instructions and a cached
 * distillation block, and prints the global-bus ledger that is the
 * paper's central claim: error correction never leaves the MCE.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/system.hpp"
#include "isa/trace.hpp"
#include "sim/types.hpp"

int
main()
{
    using namespace quest;

    // --- 1. Configure the control processor ----------------------
    core::MasterConfig cfg;
    cfg.numMces = 4;
    cfg.mce = core::tileConfigForLogicalQubits(/*distance=*/3);
    cfg.mce.protocol = qecc::Protocol::Steane;
    cfg.mce.technology = tech::Technology::ProjectedD;
    cfg.mce.microcodeDesign = core::MicrocodeDesign::UnitCell;
    // Phenomenological noise (idle decoherence + readout flips),
    // the regime the bundled Manhattan-metric MWPM decoder is
    // calibrated for; see DESIGN.md for the circuit-level caveat.
    cfg.mce.errorRates = quantum::ErrorRates{.idle = 1e-4, .meas = 1e-4};
    cfg.mce.icacheCapacity = 1024; // logical instructions

    core::QuestSystem system(cfg);

    // --- 2. Create logical qubits (mask instructions) ------------
    system.placeLogicalQubits();
    std::printf("placed 1 double-defect logical qubit on each of %zu "
                "MCE tiles (%zux%zu sites each)\n",
                system.master().numMces(),
                system.master().mce(0).lattice().rows(),
                system.master().mce(0).lattice().cols());

    // --- 3. Run a mixed workload ---------------------------------
    // A synthetic application trace (T-gate rich, Section 5.2) and
    // the deterministic 15-to-1 distillation block that the
    // instruction cache will replay.
    isa::TraceGenConfig trace_cfg;
    trace_cfg.numInstructions = 256;
    trace_cfg.logicalQubits = cfg.numMces;
    trace_cfg.maskFraction = 0.0;
    const isa::LogicalTrace app =
        isa::generateApplicationTrace(trace_cfg);
    const isa::LogicalTrace distill =
        isa::generateDistillationRound(0);

    system.runMixedWorkload(app, distill, /*rounds=*/1024);

    // --- 4. Read the ledger --------------------------------------
    const core::SystemReport report = system.report();
    std::printf("\nafter %zu QECC rounds:\n", report.rounds);
    std::printf("  baseline (software QECC) stream : %s\n",
                sim::formatBytes(report.baselineBytes).c_str());
    std::printf("  QuEST global bus traffic        : %s\n",
                sim::formatBytes(report.questBusBytes).c_str());
    std::printf("    logical instructions          : %s\n",
                sim::formatBytes(report.bytesLogical).c_str());
    std::printf("    sync tokens                   : %s\n",
                sim::formatBytes(report.bytesSync).c_str());
    std::printf("    syndrome uploads              : %s\n",
                sim::formatBytes(report.bytesSyndrome).c_str());
    std::printf("    correction downloads          : %s\n",
                sim::formatBytes(report.bytesCorrections).c_str());
    std::printf("    distillation fills + tokens   : %s\n",
                sim::formatBytes(report.bytesCache).c_str());
    std::printf("  measured bandwidth savings      : %.0fx\n",
                report.savings());

    // --- 5. Check error correction actually worked ---------------
    std::size_t residual = 0;
    for (std::size_t i = 0; i < system.master().numMces(); ++i)
        residual += system.master().mce(i).residualErrorWeight();
    std::printf("  residual undecoded error weight : %zu "
                "(small, bounded: a distance-3 memory is not "
                "error-free)\n", residual);

    // A healthy run keeps the residual bounded (no runaway
    // accumulation); distance-3 defect tiles do mis-decode the odd
    // boundary-adjacent chain.
    return residual <= 12 ? 0 : 1;
}
