#include "lut_decoder.hpp"

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "sim/logging.hpp"

namespace quest::decode {

using qecc::Coord;
using qecc::SiteType;

namespace {

/** Check-grid Manhattan distance (data qubits crossed) in space. */
std::uint64_t
spatialDistance(const DetectionEvent &a, const DetectionEvent &b)
{
    const std::uint64_t dr = std::uint64_t(std::abs(a.ancilla.row
                                                    - b.ancilla.row));
    const std::uint64_t dc = std::uint64_t(std::abs(a.ancilla.col
                                                    - b.ancilla.col));
    return (dr + dc) / 2;
}

/** The single data qubit between two checks at spatial distance 1. */
Coord
sharedDataQubit(const DetectionEvent &a, const DetectionEvent &b)
{
    return Coord{(a.ancilla.row + b.ancilla.row) / 2,
                 (a.ancilla.col + b.ancilla.col) / 2};
}

} // namespace

void
LutDecoder::decodeType(const std::vector<DetectionEvent> &events,
                       std::vector<std::size_t> &flips,
                       std::vector<DetectionEvent> &residual,
                       std::size_t &resolved) const
{
    const std::size_t n = events.size();
    for (std::size_t i = 1; i < n; ++i)
        QUEST_ASSERT(events[i - 1].round <= events[i].round,
                     "LUT events must be round-major: round %zu follows "
                     "round %zu", events[i].round, events[i - 1].round);
    std::vector<std::uint8_t> consumed(n, 0);

    // Events are round-major, so each round is one contiguous run
    // [begin, end) and the next round (if any) starts at `end`.
    const auto roundEnd = [&](std::size_t begin) {
        std::size_t end = begin;
        while (end < n && events[end].round == events[begin].round)
            ++end;
        return end;
    };

    // Pass 1: same-round adjacent pairs (a single data error flips
    // exactly the two checks it touches). Only the event's own round
    // can hold a partner.
    for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
        end = roundEnd(begin);
        for (std::size_t i = begin; i < end; ++i) {
            if (consumed[i])
                continue;
            std::size_t partner = 0;
            std::size_t neighbours = 0;
            for (std::size_t j = begin; j < end; ++j) {
                if (j == i || consumed[j])
                    continue;
                if (spatialDistance(events[i], events[j]) == 1) {
                    ++neighbours;
                    partner = j;
                }
            }
            // Only act when the pairing is unambiguous.
            if (neighbours != 1)
                continue;
            std::size_t other_neighbours = 0;
            const auto &e2 = events[partner];
            for (std::size_t j = begin; j < end; ++j) {
                if (j == partner || consumed[j])
                    continue;
                if (spatialDistance(e2, events[j]) == 1)
                    ++other_neighbours;
            }
            if (other_neighbours == 1) {
                const Coord data = sharedDataQubit(events[i], e2);
                flips.push_back(_lattice->index(data));
                consumed[i] = 1;
                consumed[partner] = 1;
                resolved += 2;
            }
        }
    }

    // Pass 2: time-like pairs (measurement flips) -- same check,
    // consecutive rounds. No data correction needed. A later event
    // can only be one round later, so only the next round is read.
    for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
        end = roundEnd(begin);
        if (end == n || events[end].round != events[begin].round + 1)
            continue;
        const std::size_t next_end = roundEnd(end);
        for (std::size_t i = begin; i < end; ++i) {
            if (consumed[i])
                continue;
            for (std::size_t j = end; j < next_end; ++j) {
                if (!consumed[j] && events[j].ancilla == events[i].ancilla) {
                    consumed[i] = 1;
                    consumed[j] = 1;
                    resolved += 2;
                    break;
                }
            }
        }
    }

    // Pass 3: isolated boundary-adjacent events. The boundary test
    // is the cheaper one, so the isolation scan runs only after it.
    for (std::size_t i = 0; i < n; ++i) {
        if (consumed[i])
            continue;
        const Coord c = events[i].ancilla;
        Coord data;
        bool at_boundary = false;
        if (events[i].type == SiteType::ZAncilla) {
            if (c.row == 1) {
                data = Coord{0, c.col};
                at_boundary = true;
            } else if (c.row == int(_lattice->rows()) - 2) {
                data = Coord{c.row + 1, c.col};
                at_boundary = true;
            }
        } else {
            if (c.col == 1) {
                data = Coord{c.row, 0};
                at_boundary = true;
            } else if (c.col == int(_lattice->cols()) - 2) {
                data = Coord{c.row, c.col + 1};
                at_boundary = true;
            }
        }
        if (!at_boundary)
            continue;
        bool isolated = true;
        for (std::size_t j = 0; j < n && isolated; ++j) {
            if (j == i || consumed[j])
                continue;
            if (spatialDistance(events[i], events[j]) <= 2)
                isolated = false;
        }
        if (!isolated)
            continue;
        flips.push_back(_lattice->index(data));
        consumed[i] = 1;
        resolved += 1;
    }

    for (std::size_t i = 0; i < n; ++i)
        if (!consumed[i])
            residual.push_back(events[i]);
}

LocalDecodeResult
LutDecoder::decodeLocal(const DetectionEvents &events) const
{
    LocalDecodeResult out;
    // Z-check events locate X errors; X-check events locate Z errors.
    decodeType(events.zEvents, out.correction.xFlips,
               out.residual.zEvents, out.resolvedEvents);
    decodeType(events.xEvents, out.correction.zFlips,
               out.residual.xEvents, out.resolvedEvents);
    return out;
}

} // namespace quest::decode
