/**
 * @file
 * Lockstep micro-op schedules for syndrome extraction.
 *
 * A RoundSchedule is the VLIW-style program the microcode pipeline
 * replays: for every sub-cycle of the QECC round it assigns one
 * micro-op to every qubit of the lattice (Section 4.3: "the physical
 * instruction is designed similar to a very long instruction word
 * and composed of a uop per qubit ... executed in lockstep").
 *
 * Convention on stabilizer types: an X ancilla measures an X-type
 * stabilizer (product of X on its data neighbours) and therefore
 * detects phase-flip (Z) errors; a Z ancilla measures the Z-type
 * stabilizer and detects bit-flip (X) errors.
 */

#ifndef QUEST_QECC_SCHEDULE_HPP
#define QUEST_QECC_SCHEDULE_HPP

#include <vector>

#include "isa/opcodes.hpp"
#include "lattice.hpp"
#include "protocol.hpp"

namespace quest::qecc {

/** One lockstep sub-cycle: a micro-op per qubit. */
struct SubCycle
{
    StepClass stepClass;
    std::vector<isa::PhysOpcode> uops; ///< indexed by linear qubit index
};

/** The per-round micro-op program for one lattice. */
class RoundSchedule
{
  public:
    RoundSchedule(const Lattice &lattice, const ProtocolSpec &spec)
        : _lattice(&lattice), _spec(&spec)
    {}

    const Lattice &lattice() const { return *_lattice; }
    const ProtocolSpec &spec() const { return *_spec; }

    std::size_t depth() const { return _subCycles.size(); }
    const SubCycle &subCycle(std::size_t i) const
    {
        return _subCycles.at(i);
    }

    void addSubCycle(SubCycle sc) { _subCycles.push_back(std::move(sc)); }

    /** Total non-NOP micro-ops across the round. */
    std::size_t activeUopCount() const;

    /** Total micro-op slots (qubits x depth). */
    std::size_t
    totalUopSlots() const
    {
        return depth() * _lattice->numQubits();
    }

  private:
    const Lattice *_lattice;
    const ProtocolSpec *_spec;
    std::vector<SubCycle> _subCycles;
};

/**
 * Build the canonical syndrome-extraction schedule for a lattice:
 * ancilla preparation, four direction-interleaved CNOT sub-cycles
 * (order N, W, E, S; X and Z ancillas never contend for a data qubit
 * within a sub-cycle) and ancilla measurement, padded with the
 * protocol's extra verification/idle steps.
 */
RoundSchedule buildRoundSchedule(const Lattice &lattice,
                                 const ProtocolSpec &spec);

/**
 * Verify the lockstep contract: within each sub-cycle every qubit is
 * touched at most once -- by its own non-NOP micro-op or as the data
 * partner of a CNOT, never both -- every two-qubit micro-op has an
 * on-lattice data partner, and preparations, CNOTs and measurements
 * do not share a sub-cycle (timing-only slots may join any of them).
 * SyndromeExtractor relies on it to run a sub-cycle as disjoint
 * word-wide steps followed by one kind of noise site.
 * @return true when the schedule is well formed.
 */
bool validateSchedule(const RoundSchedule &schedule);

/** Direction of a directional CNOT micro-op. */
Direction cnotDirection(isa::PhysOpcode op);

/** The control-side CNOT opcode for a direction. */
isa::PhysOpcode cnotOpcode(Direction dir);

/** The target-side CNOT opcode for a direction. */
isa::PhysOpcode cnotTargetOpcode(Direction dir);

} // namespace quest::qecc

#endif // QUEST_QECC_SCHEDULE_HPP
