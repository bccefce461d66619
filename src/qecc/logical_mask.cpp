#include "logical_mask.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace quest::qecc {

LogicalQubit::LogicalQubit(const Lattice &lattice, Coord anchor,
                           std::size_t d)
    : _lattice(&lattice), _d(d)
{
    QUEST_ASSERT(d >= 2, "logical qubit distance must be >= 2");
    // Each defect square spans d lattice sites; the squares are
    // separated horizontally by d data qubits (2d sites).
    _a = MaskSquare{anchor, d};
    _b = MaskSquare{Coord{anchor.row, anchor.col + int(2 * d)}, d};
}

bool
LogicalQubit::fits() const
{
    const auto fits_square = [&](const MaskSquare &s) {
        return _lattice->contains(s.topLeft)
            && _lattice->contains(Coord{s.topLeft.row + int(s.size) - 1,
                                        s.topLeft.col + int(s.size) - 1});
    };
    return fits_square(_a) && fits_square(_b);
}

namespace {

/** Collect ancilla indices in and on the perimeter of a square. */
void
collectMaskedAncillas(const Lattice &lattice, const MaskSquare &square,
                      std::vector<std::size_t> &out)
{
    // The masked area includes a one-site perimeter ring around the
    // square (Section 5.1: "inside the area and on the perimeter").
    for (int r = square.topLeft.row - 1;
         r <= square.topLeft.row + int(square.size); ++r) {
        for (int c = square.topLeft.col - 1;
             c <= square.topLeft.col + int(square.size); ++c) {
            const Coord coord{r, c};
            if (!lattice.contains(coord))
                continue;
            if (lattice.isAncilla(coord))
                out.push_back(lattice.index(coord));
        }
    }
}

} // namespace

std::vector<std::size_t>
LogicalQubit::maskedAncillas() const
{
    std::vector<std::size_t> out;
    collectMaskedAncillas(*_lattice, _a, out);
    collectMaskedAncillas(*_lattice, _b, out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<std::size_t>
LogicalQubit::footprint() const
{
    std::vector<std::size_t> out;
    const auto collect = [&](const MaskSquare &s) {
        for (int r = s.topLeft.row; r < s.topLeft.row + int(s.size); ++r) {
            for (int c = s.topLeft.col; c < s.topLeft.col + int(s.size);
                 ++c) {
                const Coord coord{r, c};
                if (_lattice->contains(coord))
                    out.push_back(_lattice->index(coord));
            }
        }
    };
    collect(_a);
    collect(_b);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
LogicalQubit::move(int d_row, int d_col)
{
    _a.topLeft.row += d_row;
    _a.topLeft.col += d_col;
    _b.topLeft.row += d_row;
    _b.topLeft.col += d_col;
}

void
LogicalQubit::expandA(std::size_t amount)
{
    _a.topLeft.row -= int(amount);
    _a.topLeft.col -= int(amount);
    _a.size += 2 * amount;
}

void
LogicalQubit::contractA(std::size_t amount)
{
    QUEST_ASSERT(_a.size > 2 * amount,
                 "contraction would eliminate defect A (size %zu)",
                 _a.size);
    _a.topLeft.row += int(amount);
    _a.topLeft.col += int(amount);
    _a.size -= 2 * amount;
}

} // namespace quest::qecc
