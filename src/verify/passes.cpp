/**
 * @file
 * The standard verification passes (see verifier.hpp for the
 * catalogue and diagnostics.hpp for the code registry).
 */

#include <algorithm>
#include <cstdio>

#include "dependency.hpp"
#include "isa/rotations.hpp"
#include "sim/metrics.hpp"
#include "verifier.hpp"

namespace quest::verify {

using isa::PhysOpcode;
using qecc::Coord;
using qecc::Lattice;

namespace {

std::string
opcodePair(PhysOpcode expected, PhysOpcode got)
{
    return "expected " + isa::physOpcodeName(expected) + ", stored "
        + isa::physOpcodeName(got);
}

/**
 * Equivalence: symbolically replay the FIFO and unit-cell images
 * and prove them address-for-address equal to the RAM baseline
 * expansion.
 */
class EquivalencePass final : public Pass
{
  public:
    std::string name() const override { return "equivalence"; }

    void
    run(const TileArtifacts &a, Report &report) const override
    {
        const ExpandedStream baseline = expandRam(a.ram, &report);

        // FIFO: lockstep replay must land every opcode on the slot
        // the RAM program addressed explicitly.
        const ExpandedStream fifo = expandFifo(a.fifo, &report);
        compare(baseline, fifo, "fifo-program", codes::fifoUop,
                report);

        // Unit cell: tiled, boundary-squashed replay over the tile's
        // lattice must reproduce the same stream.
        if (a.lattice != nullptr) {
            const ExpandedStream cell =
                expandUnitCell(a.cell, *a.lattice);
            compare(baseline, cell, "unit-cell-program",
                    codes::cellUop, report);
        }
        report.notePass(name());
    }

  private:
    static void
    compare(const ExpandedStream &baseline,
            const ExpandedStream &got, const char *artifact,
            const char *code, Report &report)
    {
        if (baseline.qubits != got.qubits
            || baseline.depth() != got.depth()) {
            report.error(
                code, Site{artifact, -1, -1, -1},
                "expansion shape " + std::to_string(got.depth())
                    + "x" + std::to_string(got.qubits)
                    + " differs from the RAM baseline "
                    + std::to_string(baseline.depth()) + "x"
                    + std::to_string(baseline.qubits));
        }
        const std::size_t depth =
            std::min(baseline.depth(), got.depth());
        for (std::size_t s = 0; s < depth; ++s) {
            const std::size_t qubits =
                std::min(baseline.subCycles[s].size(),
                         got.subCycles[s].size());
            for (std::size_t q = 0; q < qubits; ++q) {
                if (baseline.subCycles[s][q] == got.subCycles[s][q])
                    continue;
                report.error(
                    code,
                    Site{artifact, std::ptrdiff_t(s),
                         std::ptrdiff_t(q), -1},
                    "replay diverges from the RAM baseline: "
                        + opcodePair(baseline.subCycles[s][q],
                                     got.subCycles[s][q]));
            }
        }
    }
};

/**
 * Budget: the configured design's stored image must fit the JJ
 * memory (the unit cell per bank: channels replay independent full
 * copies), and the memory's read bandwidth must stream one round of
 * uops within the round's duration. Slack is reported either way.
 */
class BudgetPass final : public Pass
{
  public:
    std::string name() const override { return "budget"; }

    void
    run(const TileArtifacts &a, Report &report) const override
    {
        if (a.spec == nullptr || a.lattice == nullptr) {
            report.notePass(name());
            return;
        }
        const std::size_t opcodes = a.spec->opcodeCount;
        const tech::JJMemoryModel mem;

        // --- Capacity -------------------------------------------------
        std::size_t stored_bits = 0;
        std::size_t budget_bits = a.memory.totalBits();
        std::string store_desc = a.memory.toString();
        switch (a.design) {
          case core::MicrocodeDesign::Ram:
            stored_bits = a.ram.storedBits(opcodes);
            break;
          case core::MicrocodeDesign::Fifo:
            stored_bits = a.fifo.storedBits(opcodes);
            break;
          case core::MicrocodeDesign::UnitCell:
            // Every channel holds a full copy and replays at its own
            // phase, so the binding capacity is one bank.
            stored_bits = a.cell.storedBits(opcodes);
            budget_bits = a.memory.bankBits;
            store_desc += " (per-bank copy)";
            break;
        }
        auto &capacity_slack =
            sim::metrics::Registry::global().gauge(
                "verify.capacity_slack",
                "free fraction of the microcode store at the last "
                "verify run");
        const double cap_slack = stored_bits == 0
            ? 1.0
            : 1.0 - double(stored_bits) / double(budget_bits);
        capacity_slack.set(cap_slack);
        if (stored_bits > budget_bits) {
            report.error(
                codes::capacity,
                Site{"microcode-store", -1, -1, -1},
                core::microcodeDesignName(a.design) + " image is "
                    + std::to_string(stored_bits)
                    + " bits; the " + store_desc + " store holds "
                    + std::to_string(budget_bits) + " bits");
        }

        // --- Bandwidth ------------------------------------------------
        const std::size_t uop_bits =
            core::MicrocodeModel(*a.spec, a.technology)
                .uopBits(a.design, a.lattice->numQubits());
        const double round_seconds = sim::ticksToSeconds(
            a.spec->roundDuration(tech::gateLatencies(a.technology)));
        const double required_uops =
            double(a.lattice->numQubits())
            * double(a.spec->uopsPerQubit);
        const double available_uops =
            mem.uopsPerSecond(a.memory, uop_bits) * round_seconds;
        auto &bandwidth_slack =
            sim::metrics::Registry::global().gauge(
                "verify.bandwidth_slack",
                "replay bandwidth headroom (available/required - 1) "
                "at the last verify run");
        bandwidth_slack.set(required_uops > 0
                                ? available_uops / required_uops - 1.0
                                : 0.0);
        if (required_uops > available_uops) {
            char msg[192];
            std::snprintf(
                msg, sizeof(msg),
                "round needs %.0f uops in %.3g s but the %s "
                "configuration streams only %.0f (deficit %.1f%%)",
                required_uops, round_seconds,
                a.memory.toString().c_str(), available_uops,
                100.0 * (1.0 - available_uops / required_uops));
            report.error(codes::bandwidth,
                         Site{"microcode-store", -1, -1, -1}, msg);
        }
        report.notePass(name());
    }
};

/**
 * Hazards on the expanded uop stream: per-sub-cycle two-qubit
 * address aliasing and off-lattice partners, and per-ancilla
 * ordering (reset before measurement, no interaction after
 * measurement). The analysis itself lives in DependencyOracle — the
 * same scan the dynamic scheduler consumes for its producer edges —
 * so the static findings and the runtime dependency graph can never
 * drift apart. This pass only wraps the oracle's records in report
 * diagnostics.
 */
class HazardPass final : public Pass
{
  public:
    std::string name() const override { return "hazard"; }

    void
    run(const TileArtifacts &a, Report &report) const override
    {
        if (a.lattice == nullptr) {
            report.notePass(name());
            return;
        }
        const ExpandedStream stream = expandRam(a.ram);
        const DependencyOracle oracle(*a.lattice, stream.qubits,
                                      stream.subCycles);
        for (const HazardRecord &h : oracle.hazards())
            report.error(h.code,
                         Site{"uop-stream", h.subCycle, h.qubit, -1},
                         h.message);
        report.notePass(name());
    }
};

/** Mask-table rows: on-lattice and mutually disjoint. */
class MaskPass final : public Pass
{
  public:
    std::string name() const override { return "mask"; }

    void
    run(const TileArtifacts &a, Report &report) const override
    {
        if (a.lattice == nullptr) {
            report.notePass(name());
            return;
        }
        const Lattice &lattice = *a.lattice;

        const auto on_lattice = [&](const qecc::MaskSquare &s) {
            return s.topLeft.row >= 0 && s.topLeft.col >= 0
                && s.topLeft.row + int(s.size) <= int(lattice.rows())
                && s.topLeft.col + int(s.size)
                    <= int(lattice.cols());
        };
        const auto overlap = [](const qecc::MaskSquare &x,
                                const qecc::MaskSquare &y) {
            return x.topLeft.row < y.topLeft.row + int(y.size)
                && y.topLeft.row < x.topLeft.row + int(x.size)
                && x.topLeft.col < y.topLeft.col + int(y.size)
                && y.topLeft.col < x.topLeft.col + int(x.size);
        };

        for (std::size_t i = 0; i < a.maskRows.size(); ++i) {
            const MaskRow &row = a.maskRows[i];
            for (const qecc::MaskSquare *sq : {&row.a, &row.b}) {
                if (!on_lattice(*sq)) {
                    report.error(
                        codes::maskOutOfLattice,
                        Site{"mask-table", -1, -1,
                             std::ptrdiff_t(i)},
                        "row L" + std::to_string(row.id)
                            + " defect at ("
                            + std::to_string(sq->topLeft.row) + ","
                            + std::to_string(sq->topLeft.col)
                            + ") size " + std::to_string(sq->size)
                            + " references qubits outside the "
                            + std::to_string(lattice.rows()) + "x"
                            + std::to_string(lattice.cols())
                            + " lattice");
                }
            }
            for (std::size_t j = i + 1; j < a.maskRows.size();
                 ++j) {
                const MaskRow &other = a.maskRows[j];
                for (const qecc::MaskSquare *x : {&row.a, &row.b})
                    for (const qecc::MaskSquare *y :
                         {&other.a, &other.b})
                        if (overlap(*x, *y)) {
                            report.error(
                                codes::maskOverlap,
                                Site{"mask-table", -1, -1,
                                     std::ptrdiff_t(j)},
                                "rows L" + std::to_string(row.id)
                                    + " and L"
                                    + std::to_string(other.id)
                                    + " overlap; their masks would "
                                      "silently merge");
                        }
            }
        }
        report.notePass(name());
    }
};

/** Logical instruction traces and the rotation/icache budget. */
class IsaPass final : public Pass
{
  public:
    std::string name() const override { return "isa"; }

    void
    run(const TileArtifacts &a, Report &report) const override
    {
        if (a.trace) {
            for (std::size_t i = 0; i < a.trace->size(); ++i) {
                const isa::LogicalInstr &instr = a.trace->at(i);
                const auto op =
                    static_cast<std::size_t>(instr.opcode);
                if (op >= isa::logicalOpcodeCount) {
                    report.error(
                        codes::unknownOpcode,
                        Site{"logical-trace", -1, -1,
                             std::ptrdiff_t(i)},
                        "opcode byte " + std::to_string(op)
                            + " is outside the "
                            + std::to_string(isa::logicalOpcodeCount)
                            + "-entry ISA");
                }
                if (instr.operand > isa::maxLogicalOperand) {
                    report.error(
                        codes::operandRange,
                        Site{"logical-trace", -1, -1,
                             std::ptrdiff_t(i)},
                        "operand " + std::to_string(instr.operand)
                            + " does not fit the 12-bit wire "
                              "field");
                }
            }
        }
        if (a.icacheCapacity > 0 && a.rotationEpsilon > 0.0) {
            const double instrs =
                isa::rotationInstructionCount(a.rotationEpsilon);
            if (instrs > double(a.icacheCapacity)) {
                char msg[160];
                std::snprintf(
                    msg, sizeof(msg),
                    "one Rz at precision %.3g decomposes to %.0f "
                    "Clifford+T instructions; the icache line "
                    "budget is %zu",
                    a.rotationEpsilon, instrs, a.icacheCapacity);
                report.error(codes::rotationBudget,
                             Site{"rotation-synthesis", -1, -1, -1},
                             msg);
            }
        }
        report.notePass(name());
    }
};

} // namespace

std::unique_ptr<Pass>
makeEquivalencePass()
{
    return std::make_unique<EquivalencePass>();
}

std::unique_ptr<Pass>
makeBudgetPass()
{
    return std::make_unique<BudgetPass>();
}

std::unique_ptr<Pass>
makeHazardPass()
{
    return std::make_unique<HazardPass>();
}

std::unique_ptr<Pass>
makeMaskPass()
{
    return std::make_unique<MaskPass>();
}

std::unique_ptr<Pass>
makeIsaPass()
{
    return std::make_unique<IsaPass>();
}

} // namespace quest::verify
