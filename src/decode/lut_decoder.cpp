#include "lut_decoder.hpp"

#include <cstdint>
#include <vector>

#include "sim/logging.hpp"

namespace quest::decode {

using qecc::Coord;
using qecc::SiteType;

namespace {

constexpr std::uint32_t noEvent = ~std::uint32_t(0);

/** The same-type checks one data qubit away: two steps along a row
 *  or a column. */
constexpr Coord adjacent[] = {{-2, 0}, {2, 0}, {0, -2}, {0, 2}};

/** Every same-type check within two data qubits, the check itself
 *  included. */
constexpr Coord nearby[] = {{0, 0},  {-2, 0}, {2, 0},  {0, -2}, {0, 2},
                            {-4, 0}, {4, 0},  {0, -4}, {0, 4},  {-2, -2},
                            {-2, 2}, {2, -2}, {2, 2}};

/** Border around the lattice in the per-site tables, as wide as the
 *  largest offset above, so no lookup needs a bounds check. */
constexpr int pad = 4;

/**
 * Per-thread scratch, reused across calls so a warm decode allocates
 * nothing but its outputs; thread-local because the Monte-Carlo
 * sweeps decode from many threads. The per-site tables cover the
 * lattice plus the border, row-major.
 */
struct Scratch
{
    std::vector<std::uint8_t> consumed;
    /** Each event's index in the per-site tables. */
    std::vector<std::size_t> site;
    /** Site -> the event there in the round being read; noEvent
     *  everywhere between rounds. */
    std::vector<std::uint32_t> slot;
    /** Site -> unconsumed events there (pass 3); zero between calls. */
    std::vector<std::uint32_t> live;
};

Scratch &
scratch()
{
    static thread_local Scratch s;
    return s;
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
    const int rows = int(_lattice->rows());
    const int cols = int(_lattice->cols());
    const std::ptrdiff_t width = cols + 2 * pad;
    const auto delta = [&](Coord off) { return off.row * width + off.col; };
    Scratch &s = scratch();
    const std::size_t cells = std::size_t((rows + 2 * pad) * width);
    if (s.slot.size() < cells) {
        s.slot.resize(cells, noEvent);
        s.live.resize(cells, 0);
    }
    s.consumed.assign(n, 0);
    auto &consumed = s.consumed;
    s.site.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Coord c = events[i].ancilla;
        QUEST_ASSERT(_lattice->contains(c), "event at (%d,%d) off lattice",
                     c.row, c.col);
        s.site[i] = std::size_t((c.row + pad) * width + c.col + pad);
    }

    const auto clear = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            s.slot[s.site[i]] = noEvent;
    };
    // Point the slots at events [begin, end), one round; one event
    // per check and round, as extraction produces. A duplicate
    // leaves every slot empty before it panics.
    const auto fill = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            std::uint32_t &slot = s.slot[s.site[i]];
            const bool repeat = slot != noEvent;
            if (repeat)
                clear(begin, i);
            QUEST_ASSERT(!repeat,
                         "two LUT events at check (%d,%d) in round %zu",
                         events[i].ancilla.row, events[i].ancilla.col,
                         events[i].round);
            slot = std::uint32_t(i);
        }
    };
    // The one unconsumed neighbour of event i in the filled round, or
    // noEvent when it has none or several.
    const auto onlyNeighbour = [&](std::size_t i) {
        std::uint32_t partner = noEvent;
        std::size_t neighbours = 0;
        for (const Coord off : adjacent) {
            const std::uint32_t j = s.slot[s.site[i] + delta(off)];
            if (j != noEvent && !consumed[j]) {
                ++neighbours;
                partner = j;
            }
        }
        return neighbours == 1 ? partner : noEvent;
    };

    // Passes 1 and 2 in one walk over the rounds. Events are
    // round-major, so each round is one contiguous run [begin, end).
    // With round R filled, pass 1 runs on R, then pass 2 on R - 1.
    // Each sees what two separate passes would show it: pass 2 on
    // R - 1 sees R - 1 after pass 1 and pass 2 on R - 2, and R after
    // pass 1 only; pass 1 on R runs before any pass 2 touches R.
    std::size_t prev_begin = 0, prev_end = 0;
    for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
        const std::size_t round = events[begin].round;
        while (end < n && events[end].round == round)
            ++end;
        fill(begin, end);

        // Pass 1: same-round adjacent pairs (a single data error
        // flips exactly the two checks it touches). Only act when
        // the pairing is unambiguous: each is the other's one
        // unconsumed neighbour.
        for (std::size_t i = begin; i < end; ++i) {
            if (consumed[i])
                continue;
            const std::uint32_t partner = onlyNeighbour(i);
            if (partner == noEvent || onlyNeighbour(partner) != i)
                continue;
            const Coord a = events[i].ancilla, b = events[partner].ancilla;
            flips.push_back(_lattice->index(
                Coord{(a.row + b.row) / 2, (a.col + b.col) / 2}));
            consumed[i] = 1;
            consumed[partner] = 1;
            resolved += 2;
        }

        // Pass 2 on the previous round: time-like pairs (measurement
        // flips) -- same check, consecutive rounds. No data
        // correction needed.
        if (prev_end > prev_begin && events[prev_begin].round + 1 == round) {
            for (std::size_t i = prev_begin; i < prev_end; ++i) {
                if (consumed[i])
                    continue;
                const std::uint32_t j = s.slot[s.site[i]];
                if (j != noEvent && !consumed[j]) {
                    consumed[i] = 1;
                    consumed[j] = 1;
                    resolved += 2;
                }
            }
        }
        clear(begin, end);
        prev_begin = begin;
        prev_end = end;
    }

    // Pass 3: isolated boundary-adjacent events: no other unconsumed
    // event, in any round, within two data qubits. `live` counts the
    // unconsumed events per site, so the test sums 13 sites. The
    // boundary test is the cheaper one, so it runs first.
    for (std::size_t i = 0; i < n; ++i)
        if (!consumed[i])
            ++s.live[s.site[i]];
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
            } else if (c.row == rows - 2) {
                data = Coord{c.row + 1, c.col};
                at_boundary = true;
            }
        } else {
            if (c.col == 1) {
                data = Coord{c.row, 0};
                at_boundary = true;
            } else if (c.col == cols - 2) {
                data = Coord{c.row, c.col + 1};
                at_boundary = true;
            }
        }
        if (!at_boundary)
            continue;
        std::uint32_t near = 0;
        for (const Coord off : nearby)
            near += s.live[s.site[i] + delta(off)];
        if (near != 1) // itself only
            continue;
        flips.push_back(_lattice->index(data));
        consumed[i] = 1;
        --s.live[s.site[i]];
        resolved += 1;
    }
    for (std::size_t i = 0; i < n; ++i)
        s.live[s.site[i]] = 0;

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
