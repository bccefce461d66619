/**
 * @file
 * Qubit-level dependency oracle over an expanded uop stream.
 *
 * The PR-5 hazard pass and the PR-8 dynamic scheduler need the same
 * analysis: walk the (sub-cycle, qubit) uop stream in program order,
 * resolve every two-qubit uop's partner on the lattice, and track
 * which uop last touched each operand qubit. The static pass turns
 * ordering violations into diagnostics; the runtime scheduler turns
 * the per-qubit touch chains into scoreboard producer edges. This
 * class computes both from one scan so the two consumers can never
 * drift: the scheduler's dependency graph *is* the hazard pass's
 * ordering analysis.
 *
 * The oracle lives in its own small library (quest_verify_oracle,
 * depending only on qecc + isa) so that quest_core can consume it at
 * runtime without creating a cycle with quest_verify, which links
 * quest_core for the artifact bundle types.
 */

#ifndef QUEST_VERIFY_DEPENDENCY_HPP
#define QUEST_VERIFY_DEPENDENCY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "isa/opcodes.hpp"
#include "qecc/schedule.hpp"

namespace quest::verify {

/** One non-NOP micro-op of the round, with resolved operands. */
struct MicroOp
{
    std::uint32_t seq = 0;      ///< program order: (sub-cycle, qubit)
    std::uint32_t subCycle = 0;
    std::uint32_t qubit = 0;    ///< addressed qubit (the latch slot)
    /** Data-qubit partner of a two-qubit uop; -1 for single-qubit
     *  uops and for two-qubit uops whose partner is off the lattice
     *  (those also raise a hazard.partner finding). */
    std::int32_t partner = -1;
    /** seq of the previous uop touching `qubit`, -1 if first. */
    std::int32_t prevOnQubit = -1;
    /** seq of the previous uop touching `partner`, -1 if first or
     *  no partner. */
    std::int32_t prevOnPartner = -1;
    isa::PhysOpcode op = isa::PhysOpcode::Nop;

    bool hasPartner() const { return partner >= 0; }

    bool operator==(const MicroOp &) const = default;
};

/**
 * One ordering/aliasing finding, mirroring the hazard pass. `code`
 * is a verify::codes constant (hazard.*); the pass wraps these in
 * Report diagnostics verbatim, so code, site and message stay
 * byte-identical to the pre-refactor HazardPass output.
 */
struct HazardRecord
{
    const char *code = nullptr;
    std::ptrdiff_t subCycle = -1;
    std::ptrdiff_t qubit = -1;
    std::string message;
};

/** Dependency + hazard analysis of one expanded round program. */
class DependencyOracle
{
  public:
    /**
     * Analyze a (sub-cycle, qubit) -> opcode stream against a
     * lattice. Every row of `sub_cycles` must have `qubits` slots.
     */
    DependencyOracle(
        const qecc::Lattice &lattice, std::size_t qubits,
        const std::vector<std::vector<isa::PhysOpcode>> &sub_cycles);

    /** Analyze a canonical (or mask-filtered) round schedule. */
    static DependencyOracle fromSchedule(
        const qecc::RoundSchedule &schedule);

    std::size_t numQubits() const { return _qubits; }
    std::size_t depth() const { return _depth; }

    /** The non-NOP uops in program order (seq == vector index). */
    const std::vector<MicroOp> &uops() const { return _uops; }

    /**
     * Producer edges of uop `seq`: the seqs of the latest earlier
     * uops touching each of its operand qubits (0, 1 or 2 entries,
     * deduplicated). A scheduler must not issue a uop before all of
     * its producers have completed.
     */
    std::vector<std::uint32_t> producers(std::uint32_t seq) const;

    /** seq of the first/last uop touching qubit q, or -1 if none.
     *  Cross-round stitching: round r+1's first toucher of q
     *  depends on round r's last toucher of q. */
    std::ptrdiff_t firstTouch(std::size_t q) const
    {
        return _firstTouch.at(q);
    }
    std::ptrdiff_t lastTouch(std::size_t q) const
    {
        return _lastTouch.at(q);
    }

    /** Hazard findings, in the exact order the static pass emits
     *  them (stream-order partner/aliasing, then per-qubit ordering
     *  checks). */
    const std::vector<HazardRecord> &hazards() const
    {
        return _hazards;
    }

    /** True when the program carries no hazard findings — the
     *  precondition for out-of-order issue. */
    bool clean() const { return _hazards.empty(); }

  private:
    std::size_t _qubits = 0;
    std::size_t _depth = 0;
    std::vector<MicroOp> _uops;
    std::vector<std::ptrdiff_t> _firstTouch;
    std::vector<std::ptrdiff_t> _lastTouch;
    std::vector<HazardRecord> _hazards;
};

} // namespace quest::verify

#endif // QUEST_VERIFY_DEPENDENCY_HPP
