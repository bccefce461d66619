#include "batch_pauli_frame.hpp"

#include <algorithm>
#include <bit>

namespace quest::quantum {

PauliFrame
BatchPauliFrame::extractLane(std::size_t lane) const
{
    QUEST_ASSERT(lane < lanes, "lane %zu out of range", lane);
    PauliFrame out(numQubits());
    for (std::size_t q = 0; q < numQubits(); ++q) {
        if (xError(q, lane))
            out.injectX(q);
        if (zError(q, lane))
            out.injectZ(q);
    }
    return out;
}

std::size_t
BatchPauliFrame::laneWeight(std::size_t lane) const
{
    QUEST_ASSERT(lane < lanes, "lane %zu out of range", lane);
    std::size_t w = 0;
    for (std::size_t q = 0; q < numQubits(); ++q)
        w += xError(q, lane) || zError(q, lane) ? 1 : 0;
    return w;
}

void
BatchPauliFrame::clear()
{
    std::fill(_xerr.begin(), _xerr.end(), 0);
    std::fill(_zerr.begin(), _zerr.end(), 0);
}

std::size_t
BatchPauliFrame::totalErrorBits() const
{
    std::size_t bits = 0;
    for (std::size_t q = 0; q < _xerr.size(); ++q)
        bits += std::size_t(std::popcount(_xerr[q] | _zerr[q]));
    return bits;
}

} // namespace quest::quantum
