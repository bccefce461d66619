/**
 * @file
 * Hardware mask table (Sections 4.4-4.5, 5.1; Figure 8c).
 *
 * The mask table decides, per qubit, whether the micro-op latched
 * into the execution unit comes from the QECC-uop memory (error
 * correction running) or the logical-uop memory (a logical qubit
 * occupies the site, so syndrome generation is suppressed there).
 *
 * Two storage layouts are modelled:
 *  - Full: one mask bit per qubit, capacity N bits.
 *  - Coalesced: because logical operations act at d x d granularity,
 *    one bit per tile suffices -- capacity N / d^2 bits
 *    (Section 4.5).
 */

#ifndef QUEST_CORE_MASK_TABLE_HPP
#define QUEST_CORE_MASK_TABLE_HPP

#include <memory>

#include "qecc/logical_mask.hpp"
#include "sim/metrics.hpp"

namespace quest::core {

/** Mask storage layout. */
enum class MaskLayout
{
    Full,      ///< one bit per qubit
    Coalesced, ///< one bit per d x d tile
};

/** The per-MCE mask table. */
class MaskTable
{
  public:
    /**
     * @param lattice Tile geometry (must outlive the table).
     * @param layout Storage layout.
     * @param d Code distance (tile edge for the coalesced layout).
     */
    MaskTable(const qecc::Lattice &lattice, MaskLayout layout,
              std::size_t d);

    MaskLayout layout() const { return _layout; }

    /** Mask-table capacity in bits (N or N/d^2). */
    std::size_t capacityBits() const;

    /** @return true when QECC uops are suppressed for this qubit. */
    bool masked(std::size_t q) const;

    /** Mask/unmask the footprint of a logical qubit. */
    void apply(const qecc::LogicalQubit &lq, bool masked_value);

    /** Unmask everything (used when recomputing from scratch). */
    void clear();

    /** Number of masked qubits on the tile. */
    std::size_t maskedQubitCount() const;

    std::uint64_t writeCount() const { return _writes.value(); }

  private:
    const qecc::Lattice *_lattice;
    MaskLayout _layout;
    qecc::FullMask _full;
    qecc::CoalescedMask _coalesced;

    sim::metrics::Tally _writes;
};

} // namespace quest::core

#endif // QUEST_CORE_MASK_TABLE_HPP
