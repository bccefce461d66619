/**
 * @file
 * Hardware mask table (Sections 4.4-4.5, 5.1; Figure 8c).
 *
 * The mask table decides, per qubit, whether the micro-op latched
 * into the execution unit comes from the QECC-uop memory (error
 * correction running) or the logical-uop memory (a logical qubit
 * occupies the site, so syndrome generation is suppressed there).
 *
 * Every tile stores one mask bit per qubit: capacity N bits.
 * Section 4.5's coalesced layout (one bit per d x d block, since
 * logical operations act at d x d granularity) is modelled only as
 * a capacity, coalescedMaskBits(), which the microcode ablation
 * reports next to the full table.
 */

#ifndef QUEST_CORE_MASK_TABLE_HPP
#define QUEST_CORE_MASK_TABLE_HPP

#include <cstdint>
#include <vector>

#include "qecc/logical_mask.hpp"
#include "sim/metrics.hpp"

namespace quest::core {

/** The per-MCE mask table: one bit per qubit. */
class MaskTable
{
  public:
    /** @param lattice Tile geometry. */
    explicit MaskTable(const qecc::Lattice &lattice);

    /** Mask-table capacity in bits (N, one per qubit). */
    std::size_t capacityBits() const { return _bits.size(); }

    /** @return true when QECC uops are suppressed for this qubit. */
    bool masked(std::size_t q) const { return _bits.at(q) != 0; }

    /** Mask/unmask the footprint of a logical qubit. */
    void apply(const qecc::LogicalQubit &lq, bool masked_value);

    /** Unmask everything (used when recomputing from scratch). */
    void clear();

    /** Number of masked qubits on the tile. */
    std::size_t maskedQubitCount() const;

    std::uint64_t writeCount() const { return _writes.value(); }

  private:
    std::vector<std::uint8_t> _bits;

    sim::metrics::Tally _writes;
};

/**
 * Capacity of Section 4.5's coalesced mask table on `lattice`: one
 * bit per d x d block, ceil(rows/d) * ceil(cols/d) bits, about N/d^2.
 */
std::size_t coalescedMaskBits(const qecc::Lattice &lattice,
                              std::size_t d);

} // namespace quest::core

#endif // QUEST_CORE_MASK_TABLE_HPP
