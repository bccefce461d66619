#include "mask_table.hpp"

namespace quest::core {

MaskTable::MaskTable(const qecc::Lattice &lattice, MaskLayout layout,
                     std::size_t d)
    : _lattice(&lattice), _layout(layout), _full(lattice),
      _coalesced(lattice, d),
      _writes("mask_table.writes", "mask table write operations")
{}

std::size_t
MaskTable::capacityBits() const
{
    return _layout == MaskLayout::Full ? _full.sizeBits()
                                       : _coalesced.sizeBits();
}

bool
MaskTable::masked(std::size_t q) const
{
    return _layout == MaskLayout::Full ? _full.masked(q)
                                       : _coalesced.masked(q);
}

void
MaskTable::apply(const qecc::LogicalQubit &lq, bool masked_value)
{
    if (_layout == MaskLayout::Full)
        _full.apply(lq, masked_value);
    else
        _coalesced.apply(lq, masked_value);
    ++_writes;
}

void
MaskTable::clear()
{
    if (_layout == MaskLayout::Full)
        _full.clear();
    else
        _coalesced.clear();
    ++_writes;
}

std::size_t
MaskTable::maskedQubitCount() const
{
    std::size_t n = 0;
    for (std::size_t q = 0; q < _lattice->numQubits(); ++q)
        if (masked(q))
            ++n;
    return n;
}

} // namespace quest::core
