/**
 * @file
 * Logical operations on defect qubits, step by step.
 *
 * Shows the Section-5 machinery at mask granularity: creating
 * double-defect logical qubits, transverse instructions, mask
 * instructions that reshape boundaries, and the braided logical
 * CNOT -- with the MCE's accounting printed after each phase so the
 * hardware activity is visible.
 *
 * Run: ./build/examples/logical_operations
 */

#include <cstdio>

#include "core/mce.hpp"

namespace {

void
status(const quest::core::Mce &mce, const char *phase)
{
    std::printf("%-28s rounds=%-6zu masked=%-4zu logical_uops=%-8.0f "
                "ucode=%s\n",
                phase, mce.roundsRun(),
                mce.maskTable().maskedQubitCount(),
                mce.logicalUopsIssued(),
                quest::sim::formatBytes(
                    mce.microcodeBitsStreamed() / 8.0).c_str());
}

} // namespace

int
main()
{
    using namespace quest;
    using core::Mce;
    using core::MceConfig;
    using isa::LogicalInstr;
    using isa::LogicalOpcode;

    // A tile tall enough for two stacked logical qubits and a braid
    // loop between them.
    MceConfig cfg;
    cfg.distance = 3;
    cfg.latticeRows = 17;
    cfg.latticeCols = 15;
    cfg.errorRates = quantum::ErrorRates{.idle = 1e-4, .meas = 1e-4};

    Mce mce("mce0", cfg);
    std::printf("tile: %zux%zu = %zu physical qubits, protocol %s\n\n",
                mce.lattice().rows(), mce.lattice().cols(),
                mce.lattice().numQubits(),
                qecc::protocolName(cfg.protocol).c_str());
    status(mce, "initial");

    // --- Create two logical qubits (mask writes) ------------------
    const int control = mce.defineLogicalQubit(qecc::Coord{2, 6});
    const int target = mce.defineLogicalQubit(qecc::Coord{10, 6});
    status(mce, "after 2x define");

    // --- Keep QECC running under everything -----------------------
    for (int r = 0; r < 50; ++r)
        mce.runQeccRound();
    status(mce, "after 50 QECC rounds");

    // --- Transverse instructions ----------------------------------
    mce.executeLogical(LogicalInstr{LogicalOpcode::PrepZ,
                                    std::uint16_t(control)});
    mce.executeLogical(LogicalInstr{LogicalOpcode::Hadamard,
                                    std::uint16_t(control)});
    status(mce, "after PrepZ+H (transverse)");

    // --- Mask instructions -----------------------------------------
    mce.executeLogical(LogicalInstr{LogicalOpcode::MaskExpand,
                                    std::uint16_t(control)});
    status(mce, "after MaskExpand");
    mce.executeLogical(LogicalInstr{LogicalOpcode::MaskContract,
                                    std::uint16_t(control)});
    status(mce, "after MaskContract");

    // --- The braided CNOT ------------------------------------------
    const std::size_t steps = mce.braidCnot(control, target);
    std::printf("\nbraid CNOT: %zu defect moves, %zu QECC rounds "
                "spent keeping the code protected in flight\n",
                steps, steps * cfg.distance);
    status(mce, "after braid CNOT");

    // --- Decode whatever the noise left behind --------------------
    const auto residual_events = mce.collectResidualEvents();
    std::printf("\nresidual events for the global decoder: %zu "
                "(LUT resolved %.0f locally)\n",
                residual_events.total(),
                mce.eventsResolvedLocally());
    std::printf("undecoded error weight on protected qubits: %zu\n",
                mce.residualErrorWeight());
    return 0;
}
