/**
 * @file
 * Microcode memory designs (paper Sections 4.4-4.5, Figures 8-11).
 *
 * The microcode pipeline must hand every serviced qubit one micro-op
 * per QECC sub-cycle out of a JJ memory whose capacity and bandwidth
 * are both scarce. Three designs are modelled:
 *
 *  - RAM (baseline): software-buffered stream with conventional
 *    opcode + address encoding. Capacity O(N log2 N); the 4 Kb
 *    budget caps the design at a few dozen qubits.
 *  - FIFO: lockstep execution visits every qubit every sub-cycle in
 *    a fixed order, so address bits are redundant. Capacity O(N).
 *  - Unit cell: the surface-code instruction stream repeats
 *    spatially with a small unit cell; storing only the unit-cell
 *    program makes capacity O(1) and leaves the serviced-qubit count
 *    limited purely by memory *bandwidth* -- which improves
 *    super-linearly with channel count because smaller banks are
 *    also faster.
 *
 * Bandwidth model: a round of the protocol delivers uopsPerQubit
 * micro-ops to each qubit within the round duration; the switch
 * array double-buffers (Section 4.3: next instructions latch while
 * the current waveform plays), so the budget is the full round.
 */

#ifndef QUEST_CORE_MICROCODE_HPP
#define QUEST_CORE_MICROCODE_HPP

#include <string>

#include "isa/instructions.hpp"
#include "qecc/protocol.hpp"
#include "tech/jj_memory.hpp"
#include "tech/parameters.hpp"

namespace quest::core {

/** The three QECC microcode storage designs of Figure 10/11. */
enum class MicrocodeDesign
{
    Ram,      ///< opcode + address per uop (baseline)
    Fifo,     ///< opcode only, implicit addressing
    UnitCell, ///< unit-cell program replayed by a state machine
};

inline constexpr MicrocodeDesign allMicrocodeDesigns[] = {
    MicrocodeDesign::Ram, MicrocodeDesign::Fifo,
    MicrocodeDesign::UnitCell,
};

/** Display name: "RAM" / "FIFO" / "Unit-cell". */
std::string microcodeDesignName(MicrocodeDesign design);

/** Capacity/bandwidth calculator for the microcode designs. */
class MicrocodeModel
{
  public:
    MicrocodeModel(const qecc::ProtocolSpec &spec,
                   tech::Technology technology)
        : _spec(&spec), _technology(technology)
    {}

    const qecc::ProtocolSpec &protocol() const { return *_spec; }

    /** Width of one stored uop under the design, for N qubits. */
    std::size_t uopBits(MicrocodeDesign design, std::size_t qubits) const;

    /**
     * Microcode bits required to service N qubits (Figure 10).
     */
    std::size_t capacityBits(MicrocodeDesign design,
                             std::size_t qubits) const;

    /**
     * Largest qubit count whose QECC program fits the given total
     * capacity (the capacity-limited bound; infinite for the unit
     * cell design once the unit-cell program fits).
     */
    std::size_t capacityLimitedQubits(MicrocodeDesign design,
                                      std::size_t total_bits) const;

    /**
     * Largest qubit count the memory's read bandwidth can feed:
     * the configuration streams uops for a whole round within the
     * round's duration.
     */
    std::size_t bandwidthLimitedQubits(
        const tech::MemoryConfig &cfg) const;

    /**
     * Qubits serviced per MCE (Figure 11): the binding minimum of
     * the capacity and bandwidth limits.
     */
    std::size_t servicedQubits(MicrocodeDesign design,
                               const tech::MemoryConfig &cfg) const;

    /** Bits of one copy of the unit-cell program. */
    std::size_t unitCellProgramBits() const;

    /**
     * Pick the best standard channel configuration for a fixed
     * total capacity (Table 2): maximize serviced qubits under the
     * constraint that every bank holds a full copy of the unit-cell
     * program (channels replay independently at offset phases);
     * break ties towards lower power. For the unit-cell design,
     * total_bits must be at least unitCellProgramBits().
     */
    tech::MemoryConfig optimalConfig(
        std::size_t total_bits = 4096,
        MicrocodeDesign design = MicrocodeDesign::UnitCell) const;

  private:
    const qecc::ProtocolSpec *_spec;
    tech::Technology _technology;
    tech::JJMemoryModel _mem;
};

} // namespace quest::core

#endif // QUEST_CORE_MICROCODE_HPP
