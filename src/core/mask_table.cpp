#include "mask_table.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace quest::core {

MaskTable::MaskTable(const qecc::Lattice &lattice)
    : _bits(lattice.numQubits(), 0),
      _writes("mask_table.writes", "mask table write operations")
{}

void
MaskTable::apply(const qecc::LogicalQubit &lq, bool masked_value)
{
    for (std::size_t q : lq.maskedAncillas())
        _bits.at(q) = masked_value ? 1 : 0;
    ++_writes;
}

void
MaskTable::clear()
{
    std::fill(_bits.begin(), _bits.end(), 0);
    ++_writes;
}

std::size_t
MaskTable::maskedQubitCount() const
{
    return std::size_t(std::count(_bits.begin(), _bits.end(), 1));
}

std::size_t
coalescedMaskBits(const qecc::Lattice &lattice, std::size_t d)
{
    QUEST_ASSERT(d >= 1, "tile size must be positive");
    return ((lattice.rows() + d - 1) / d)
        * ((lattice.cols() + d - 1) / d);
}

} // namespace quest::core
