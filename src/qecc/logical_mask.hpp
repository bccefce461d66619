/**
 * @file
 * Logical qubit masks (paper Section 5.1, Figure 12).
 *
 * A defect-based logical qubit is created by *masking* (disabling)
 * syndrome generation for the ancillas inside and on the perimeter
 * of two square regions of the lattice. Mask instructions move,
 * expand and contract these boundaries; braiding a boundary around
 * another implements a logical CNOT.
 *
 * This file holds only that geometry (MaskSquare, LogicalQubit);
 * the hardware mask table that gates micro-op selection per qubit
 * is core::MaskTable.
 */

#ifndef QUEST_QECC_LOGICAL_MASK_HPP
#define QUEST_QECC_LOGICAL_MASK_HPP

#include <cstddef>
#include <vector>

#include "lattice.hpp"

namespace quest::qecc {

/** A rectangular masked region (half of a double-defect qubit). */
struct MaskSquare
{
    Coord topLeft;
    std::size_t size = 0; ///< side length in lattice sites

    bool
    contains(Coord c) const
    {
        return c.row >= topLeft.row && c.col >= topLeft.col
            && c.row < topLeft.row + int(size)
            && c.col < topLeft.col + int(size);
    }
};

/** A double-defect logical qubit: two masked squares. */
class LogicalQubit
{
  public:
    /**
     * Place a logical qubit of code distance d with its first
     * defect's top-left corner at `anchor`. The two defects are
     * separated by d data-qubit columns, per Section 5.1.
     */
    LogicalQubit(const Lattice &lattice, Coord anchor, std::size_t d);

    std::size_t distance() const { return _d; }
    const MaskSquare &defectA() const { return _a; }
    const MaskSquare &defectB() const { return _b; }

    /** @return true when the whole footprint lies on the lattice. */
    bool fits() const;

    /**
     * Ancilla qubit indices whose syndrome generation must be
     * disabled (interior and perimeter of both squares).
     */
    std::vector<std::size_t> maskedAncillas() const;

    /** All lattice indices covered by the two defects. */
    std::vector<std::size_t> footprint() const;

    /** Move both defects by (d_row, d_col) lattice sites. */
    void move(int d_row, int d_col);

    /** Grow defect A by `amount` sites on each side (braiding step). */
    void expandA(std::size_t amount);

    /** Shrink defect A by `amount` sites on each side. */
    void contractA(std::size_t amount);

    /**
     * Replace defect A wholesale (used by the braid executor to
     * drag the defect along a planned path).
     */
    void
    setDefectA(const MaskSquare &square)
    {
        _a = square;
    }

  private:
    const Lattice *_lattice;
    std::size_t _d;
    MaskSquare _a;
    MaskSquare _b;
};

} // namespace quest::qecc

#endif // QUEST_QECC_LOGICAL_MASK_HPP
