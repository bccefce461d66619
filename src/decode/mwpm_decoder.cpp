#include "mwpm_decoder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <utility>

#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace quest::decode {

using qecc::Coord;
using qecc::SiteType;

namespace {

/** Cap on the all-pairs cache: ~4000 ancillas / 64 MiB of table. */
constexpr std::size_t maxCachedPairs = std::size_t(1) << 24;

constexpr std::uint32_t noAncilla =
    std::numeric_limits<std::uint32_t>::max();

/**
 * The greedy matcher packs an edge's two event indices into 16 bits
 * each.
 */
constexpr std::size_t maxGreedyEvents = std::size_t(1) << 16;

/**
 * Buckets of the greedy matcher's counting pass, one per edge key
 * (weight << 1 | boundary): it sorts sets whose boundary weights are
 * all at most 15 (every d <= 31 lattice edge).
 */
constexpr std::size_t greedyBuckets = 32;

/**
 * Per-thread scratch arena for the matchers and decode(). Reused
 * across calls so the hot path performs no allocations once warm;
 * thread-local so a single decoder can decode concurrently from the
 * parallel Monte-Carlo sweeps.
 */
struct Scratch
{
    // Both matchers: each event's ancilla id in the all-pairs table
    // and its boundary weight, looked up once per matching.
    std::vector<std::uint32_t> ids;
    std::vector<std::uint64_t> bweight;

    // matchExact. The DP table and weight matrices exist in both a
    // 32-bit flavour (the common case — halves the cache footprint
    // of the 2^n table) and a 64-bit flavour used only when the
    // weight bound could overflow 32 bits. Between matchings every
    // table entry holds the "unsolved" sentinel; a matching records
    // the masks it solves in `solved` and resets just those.
    std::vector<std::uint64_t> pweight; ///< n*n, flat
    std::vector<std::uint64_t> f;       ///< 1<<n DP table
    std::vector<std::uint32_t> bweight32;
    std::vector<std::uint32_t> pweight32;
    std::vector<std::uint32_t> f32;
    std::vector<std::uint32_t> solved;

    // matchGreedy: the events in (round, index) order and the
    // candidate edges, packed as weight << 33 | boundary << 32 |
    // a << 16 | b, with b == a for a boundary edge; `bucketed` takes
    // them in sorted order from the counting pass.
    std::vector<std::uint32_t> order;
    std::vector<std::uint64_t> edges;
    std::vector<std::uint64_t> bucketed;
    std::vector<std::uint8_t> used;

    // decode
    std::vector<std::uint8_t> xflip;
    std::vector<std::uint8_t> zflip;
    std::vector<std::size_t> path;
};

Scratch &
scratch()
{
    static thread_local Scratch s;
    return s;
}

/**
 * Bitmask-DP exact matching over n events. f[mask] = min weight to
 * resolve exactly the events in mask; event i (the lowest set bit)
 * either matches the boundary or pairs with another set bit j.
 * Solved top down from the full mask, so only the masks that
 * recursion reaches are ever computed (about 1 000 of 16 384 at
 * n = 14); each one gets the same value the full table would hold,
 * and the reconstruction reads nothing else. Weight type W is uint32
 * when the weight bound allows (the table then fits twice as much of
 * the cache) and uint64 otherwise.
 */
template <typename W>
MatchingResult
exactDp(std::size_t n, std::vector<W> &f,
        std::vector<std::uint32_t> &solved, const W *bweight,
        const W *pweight)
{
    // No solved entry reaches the sentinel: the caller picks W so
    // that every matching weight stays below W's maximum.
    constexpr W unsolved = std::numeric_limits<W>::max();
    const std::size_t full = (std::size_t(1) << n) - 1;
    if (f.size() <= full)
        f.resize(full + 1, unsolved);
    f[0] = 0;
    solved.assign(1, 0);

    const auto solve = [&](const auto &self, std::size_t mask) -> W {
        if (f[mask] != unsolved)
            return f[mask];
        const std::size_t i = std::size_t(std::countr_zero(mask));
        const std::size_t without_i = mask & (mask - 1);
        // Option 1: event i matches the boundary.
        W best = W(self(self, without_i) + bweight[i]);
        // Option 2: event i pairs with some j in the mask. All
        // other set bits are > i, so iterate them directly.
        for (std::size_t rem = without_i; rem; rem &= rem - 1) {
            const std::size_t j = std::size_t(std::countr_zero(rem));
            const std::size_t rest = without_i & ~(std::size_t(1) << j);
            const W cand = W(self(self, rest) + pweight[i * n + j]);
            if (cand < best)
                best = cand;
        }
        f[mask] = best;
        solved.push_back(std::uint32_t(mask));
        return best;
    };
    MatchingResult result;
    result.totalWeight = solve(solve, full);

    // Reconstruct the optimal decisions.
    bool found = true;
    std::size_t mask = full;
    while (mask && found) {
        const std::size_t i = std::size_t(std::countr_zero(mask));
        const std::size_t without_i = mask & (mask - 1);
        if (f[mask] == W(f[without_i] + bweight[i])) {
            result.matches.push_back(Match{i, 0, true, bweight[i]});
            mask = without_i;
            continue;
        }
        found = false;
        for (std::size_t rem = without_i; rem && !found;
             rem &= rem - 1) {
            const std::size_t j = std::size_t(std::countr_zero(rem));
            const std::size_t rest = without_i & ~(std::size_t(1) << j);
            if (f[mask] == W(f[rest] + pweight[i * n + j])) {
                result.matches.push_back(
                    Match{i, j, false, pweight[i * n + j]});
                mask = rest;
                found = true;
            }
        }
    }
    // Leave every entry unsolved for the next matching.
    for (const std::uint32_t m : solved)
        f[m] = unsolved;
    QUEST_ASSERT(found, "matching reconstruction failed");
    return result;
}

/** Data qubits from a check to the nearest lattice edge of its type. */
std::uint64_t
latticeEdgeDistance(const qecc::Lattice &lattice, Coord c, SiteType type)
{
    if (type == SiteType::ZAncilla) {
        // X-error chains terminate on the top/bottom data rows.
        const std::uint64_t north = std::uint64_t(c.row + 1) / 2;
        const std::uint64_t south =
            std::uint64_t(int(lattice.rows()) - c.row) / 2;
        return std::min(north, south);
    }
    // Z-error chains terminate on the left/right data columns.
    const std::uint64_t west = std::uint64_t(c.col + 1) / 2;
    const std::uint64_t east =
        std::uint64_t(int(lattice.cols()) - c.col) / 2;
    return std::min(west, east);
}

} // namespace

MatchGeometry::MatchGeometry(const qecc::Lattice &lat) : lattice(&lat)
{
    // Compact ancilla ids, all-pairs spatial distances, per-ancilla
    // edge distances.
    const std::size_t sites = lat.numQubits();
    std::vector<Coord> ancillas; // coordinate of each ancilla id
    for (std::size_t idx = 0; idx < sites; ++idx)
        if (lat.isAncilla(lat.coord(idx)))
            ancillas.push_back(lat.coord(idx));
    if (ancillas.size() * ancillas.size() > maxCachedPairs)
        return;

    numAncilla = ancillas.size();
    ancillaId.assign(sites, noAncilla);
    spatial.resize(numAncilla * numAncilla);
    edge.resize(numAncilla);
    for (std::size_t a = 0; a < numAncilla; ++a) {
        const Coord ca = ancillas[a];
        ancillaId[lat.index(ca)] = std::uint32_t(a);
        edge[a] = std::uint32_t(
            latticeEdgeDistance(lat, ca, lat.siteType(ca)));
        for (std::size_t b = 0; b < numAncilla; ++b) {
            const Coord cb = ancillas[b];
            const std::uint32_t dr =
                std::uint32_t(std::abs(ca.row - cb.row));
            const std::uint32_t dc =
                std::uint32_t(std::abs(ca.col - cb.col));
            // Only same-type pairs are ever queried; cross-type
            // entries hold the truncated value and stay unused.
            spatial[a * numAncilla + b] = (dr + dc) / 2;
        }
    }
}

MwpmDecoder::MwpmDecoder(const qecc::Lattice &lattice,
                         std::size_t exact_limit)
    : MwpmDecoder(std::make_shared<const MatchGeometry>(lattice),
                  exact_limit)
{}

MwpmDecoder::MwpmDecoder(std::shared_ptr<const MatchGeometry> geometry,
                         std::size_t exact_limit)
    : _geometry(std::move(geometry)), _lattice(_geometry->lattice),
      _exactLimit(exact_limit),
      _mExactMatchings(sim::metrics::Registry::global().counter(
          "decode.mwpm.exact_matchings",
          "event sets decoded by the exact bitmask DP")),
      _mGreedyMatchings(sim::metrics::Registry::global().counter(
          "decode.mwpm.greedy_matchings",
          "event sets decoded by the greedy matcher")),
      _mEventsMatched(sim::metrics::Registry::global().counter(
          "decode.mwpm.events_matched",
          "detection events fed into the matchers")),
      _mMatchedWeight(sim::metrics::Registry::global().counter(
          "decode.mwpm.matched_weight",
          "total space-time weight of accepted matchings")),
      _mDecodes(sim::metrics::Registry::global().counter(
          "decode.mwpm.decodes", "calls to MwpmDecoder::decode"))
{
    QUEST_ASSERT(exact_limit <= maxExactLimit,
                 "exact_limit %zu exceeds the bitmask DP cap %zu",
                 exact_limit, maxExactLimit);
}

std::uint64_t
MwpmDecoder::distance(const DetectionEvent &a, const DetectionEvent &b) const
{
    QUEST_ASSERT(a.type == b.type,
                 "cannot match events of different stabilizer types");
    const MatchGeometry &g = *_geometry;
    if (!g.spatial.empty())
        return tableDistance(g.ancillaId[_lattice->index(a.ancilla)],
                             a.round,
                             g.ancillaId[_lattice->index(b.ancilla)],
                             b.round);
    const std::uint64_t dt = a.round > b.round
        ? a.round - b.round : b.round - a.round;
    const std::uint64_t dr = std::uint64_t(std::abs(a.ancilla.row
                                                    - b.ancilla.row));
    const std::uint64_t dc = std::uint64_t(std::abs(a.ancilla.col
                                                    - b.ancilla.col));
    QUEST_ASSERT(dr % 2 == 0 && dc % 2 == 0,
                 "same-type checks must differ by even steps");
    return (dr + dc) / 2 + dt;
}

std::uint64_t
MwpmDecoder::tableDistance(std::uint32_t a, std::size_t ra,
                           std::uint32_t b, std::size_t rb) const
{
    const MatchGeometry &g = *_geometry;
    return g.spatial[std::size_t(a) * g.numAncilla + b]
        + (ra > rb ? ra - rb : rb - ra);
}

std::uint64_t
MwpmDecoder::edgeDistance(const DetectionEvent &e) const
{
    const MatchGeometry &g = *_geometry;
    if (!g.edge.empty()) {
        const std::uint32_t id = g.ancillaId[_lattice->index(e.ancilla)];
        if (id != noAncilla)
            return g.edge[id];
    }
    return latticeEdgeDistance(*_lattice, e.ancilla, e.type);
}

MaskedChecks
MwpmDecoder::maskedChecks() const
{
    MaskedChecks out;
    maskedChecks(out);
    return out;
}

void
MwpmDecoder::maskedChecks(MaskedChecks &out) const
{
    out.zChecks.clear();
    out.xChecks.clear();
    if (!_masked)
        return;
    // Row-major index order is Lattice::sites() order.
    for (std::size_t q = 0; q < _lattice->numQubits(); ++q) {
        const Coord c = _lattice->coord(q);
        const SiteType type = _lattice->siteType(c);
        if (type != SiteType::Data && _masked(q))
            (type == SiteType::ZAncilla ? out.zChecks : out.xChecks)
                .push_back(c);
    }
}

std::optional<std::pair<std::uint64_t, Coord>>
MwpmDecoder::nearestMaskedCheck(const DetectionEvent &e,
                                const MaskedChecks *masked) const
{
    std::optional<std::pair<std::uint64_t, Coord>> best;
    const auto consider = [&](Coord c) {
        const std::uint64_t dist =
            (std::uint64_t(std::abs(c.row - e.ancilla.row))
             + std::uint64_t(std::abs(c.col - e.ancilla.col))) / 2;
        if (!best || dist < best->first)
            best = std::make_pair(dist, c);
    };
    if (masked) {
        for (const Coord c : masked->of(e.type))
            consider(c);
        return best;
    }
    if (!_masked)
        return std::nullopt;
    for (const Coord c : _lattice->sites(e.type))
        if (_masked(_lattice->index(c)))
            consider(c);
    return best;
}

std::uint64_t
MwpmDecoder::boundaryDistance(const DetectionEvent &e,
                              const MaskedChecks *masked) const
{
    std::uint64_t dist = edgeDistance(e);
    if (const auto nearest = nearestMaskedCheck(e, masked))
        dist = std::min(dist, nearest->first);
    return dist;
}

void
MwpmDecoder::pathBetween(Coord a, Coord b,
                         std::vector<std::size_t> &out) const
{
    Coord cur = a;
    // Walk rows first, collecting the data qubit between each pair
    // of checks, then columns.
    while (cur.row != b.row) {
        const int step = cur.row < b.row ? 2 : -2;
        out.push_back(_lattice->index(
            Coord{cur.row + step / 2, cur.col}));
        cur.row += step;
    }
    while (cur.col != b.col) {
        const int step = cur.col < b.col ? 2 : -2;
        out.push_back(_lattice->index(
            Coord{cur.row, cur.col + step / 2}));
        cur.col += step;
    }
}

std::vector<std::size_t>
MwpmDecoder::pathBetween(Coord a, Coord b) const
{
    std::vector<std::size_t> path;
    pathBetween(a, b, path);
    return path;
}

void
MwpmDecoder::pathToBoundary(Coord a, std::vector<std::size_t> &out,
                            const MaskedChecks *masked) const
{
    const SiteType type = _lattice->siteType(a);
    QUEST_ASSERT(type != SiteType::Data, "boundary path from non-check");

    // A masked (defect) region closer than the lattice edge is the
    // terminating boundary: route the chain into it.
    const DetectionEvent here{0, a, type};
    if (const auto nearest = nearestMaskedCheck(here, masked)) {
        if (nearest->first < edgeDistance(here)) {
            pathBetween(a, nearest->second, out);
            return;
        }
    }

    if (type == SiteType::ZAncilla) {
        const std::uint64_t north = std::uint64_t(a.row + 1) / 2;
        const std::uint64_t south =
            std::uint64_t(int(_lattice->rows()) - a.row) / 2;
        const int step = north <= south ? -1 : 1;
        int r = a.row;
        while (r >= 0 && r < int(_lattice->rows())) {
            const int data_row = r + step;
            if (data_row < 0 || data_row >= int(_lattice->rows()))
                break;
            out.push_back(_lattice->index(Coord{data_row, a.col}));
            r += 2 * step;
        }
    } else {
        const std::uint64_t west = std::uint64_t(a.col + 1) / 2;
        const std::uint64_t east =
            std::uint64_t(int(_lattice->cols()) - a.col) / 2;
        const int step = west <= east ? -1 : 1;
        int c = a.col;
        while (c >= 0 && c < int(_lattice->cols())) {
            const int data_col = c + step;
            if (data_col < 0 || data_col >= int(_lattice->cols()))
                break;
            out.push_back(_lattice->index(Coord{a.row, data_col}));
            c += 2 * step;
        }
    }
}

std::vector<std::size_t>
MwpmDecoder::pathToBoundary(Coord a) const
{
    std::vector<std::size_t> path;
    pathToBoundary(a, path);
    return path;
}

void
MwpmDecoder::eventWeights(const std::vector<DetectionEvent> &events,
                          const MaskedChecks *masked,
                          std::vector<std::uint32_t> &ids,
                          std::vector<std::uint64_t> &bweight) const
{
    const std::size_t n = events.size();
    bweight.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        QUEST_ASSERT(events[i].type == events[0].type,
                     "cannot match events of different stabilizer types");
        bweight[i] = boundaryDistance(events[i], masked);
    }
    ids.clear();
    const MatchGeometry &g = *_geometry;
    if (g.spatial.empty())
        return;
    ids.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = g.ancillaId[_lattice->index(events[i].ancilla)];
        QUEST_ASSERT(ids[i] != noAncilla, "event at (%d,%d) is not a check",
                     events[i].ancilla.row, events[i].ancilla.col);
    }
}

std::uint64_t
MwpmDecoder::pairWeight(const std::vector<DetectionEvent> &events,
                        const std::vector<std::uint32_t> &ids,
                        std::size_t i, std::size_t j) const
{
    if (ids.empty())
        return distance(events[i], events[j]);
    return tableDistance(ids[i], events[i].round, ids[j], events[j].round);
}

MatchingResult
MwpmDecoder::matchExact(const std::vector<DetectionEvent> &events,
                        const MaskedChecks *masked) const
{
    const std::size_t n = events.size();
    Scratch &s = scratch();
    eventWeights(events, masked, s.ids, s.bweight);

    // Precompute pair weights into the flat arena.
    s.pweight.resize(n * n);
    std::uint64_t sum_boundary = 0;
    std::uint64_t max_pair = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sum_boundary += s.bweight[i];
        for (std::size_t j = i + 1; j < n; ++j) {
            const std::uint64_t w = pairWeight(events, s.ids, i, j);
            s.pweight[i * n + j] = w;
            s.pweight[j * n + i] = w;
            max_pair = std::max(max_pair, w);
        }
    }

    // Every f[mask] is bounded by the all-boundary matching;
    // candidates add at most one more pair weight. When that bound
    // fits comfortably in 32 bits, run the DP on uint32 tables for
    // cache density.
    const std::uint64_t bound = sum_boundary + max_pair;
    if (bound < std::numeric_limits<std::uint32_t>::max()) {
        s.bweight32.resize(n);
        s.pweight32.resize(n * n);
        for (std::size_t i = 0; i < n; ++i)
            s.bweight32[i] = std::uint32_t(s.bweight[i]);
        for (std::size_t i = 0; i < n * n; ++i)
            s.pweight32[i] = std::uint32_t(s.pweight[i]);
        return exactDp<std::uint32_t>(n, s.f32, s.solved,
                                      s.bweight32.data(),
                                      s.pweight32.data());
    }
    return exactDp<std::uint64_t>(n, s.f, s.solved, s.bweight.data(),
                                  s.pweight.data());
}

MatchingResult
MwpmDecoder::matchGreedy(const std::vector<DetectionEvent> &events,
                         const MaskedChecks *masked) const
{
    const std::size_t n = events.size();
    QUEST_ASSERT(n <= maxGreedyEvents,
                 "greedy matcher takes at most %zu events, got %zu",
                 maxGreedyEvents, n);
    Scratch &s = scratch();
    eventWeights(events, masked, s.ids, s.bweight);

    // One 8-byte edge per candidate, packed so that sorting the words
    // sorts by the total order (weight, pair before boundary, a, b):
    // the weight above bit 33, bit 32 set on a boundary edge, then
    // the two event indices (b == a for a boundary edge).
    const auto pack = [](std::uint64_t weight, bool boundary,
                         std::size_t a, std::size_t b) {
        return weight << 33 | std::uint64_t(boundary) << 32
            | std::uint64_t(a) << 16 | std::uint64_t(b);
    };
    // Walk the events in (round, index) order: a pair's weight is at
    // least its round gap, so each event's scan ends at the first
    // gap above its boundary weight. Sets already in round order
    // (every streaming window, every extraction) keep the identity.
    const bool presorted = std::is_sorted(
        events.begin(), events.end(),
        [](const DetectionEvent &x, const DetectionEvent &y) {
            return x.round < y.round;
        });
    auto &order = s.order;
    order.resize(n);
    std::iota(order.begin(), order.end(), std::uint32_t(0));
    if (!presorted)
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                      return events[x].round != events[y].round
                          ? events[x].round < events[y].round : x < y;
                  });
    // Only edges greedy can take: a pair heavier than either
    // endpoint's boundary edge sorts after it, when that endpoint is
    // already used, so it is never generated.
    const MatchGeometry &g = *_geometry;
    auto &edges = s.edges;
    edges.clear();
    std::uint64_t max_bweight = 0;
    for (std::size_t p = 0; p < n; ++p) {
        const std::size_t i = order[p];
        const std::uint64_t bi = s.bweight[i];
        QUEST_ASSERT(bi < std::uint64_t(1) << 31,
                     "greedy boundary weight %llu exceeds 31 bits",
                     (unsigned long long)bi);
        max_bweight = std::max(max_bweight, bi);
        edges.push_back(pack(bi, true, i, i));
        // Event i's row of the all-pairs table; partners come later
        // in round order, so the round gap needs no absolute value.
        const std::uint32_t *row = s.ids.empty()
            ? nullptr : &g.spatial[std::size_t(s.ids[i]) * g.numAncilla];
        const std::size_t ri = events[i].round;
        for (std::size_t q = p + 1; q < n; ++q) {
            const std::size_t j = order[q];
            const std::size_t gap = events[j].round - ri;
            if (gap > bi)
                break;
            const std::uint64_t w = row ? row[s.ids[j]] + gap
                                        : distance(events[i], events[j]);
            if (w <= bi && w <= s.bweight[j])
                edges.push_back(
                    pack(w, false, std::min(i, j), std::max(i, j)));
        }
    }
    // On a presorted set the edges come out in (a, b) order, so a
    // stable counting pass over the key bits (weight, boundary) puts
    // them in word order. Other sets, and boundary weights past the
    // buckets, sort the words.
    if (presorted && 2 * max_bweight + 1 < greedyBuckets) {
        std::array<std::size_t, greedyBuckets> start{};
        for (const std::uint64_t e : edges)
            ++start[e >> 32];
        std::size_t sum = 0;
        for (std::size_t &c : start)
            sum += std::exchange(c, sum);
        s.bucketed.resize(edges.size());
        for (const std::uint64_t e : edges)
            s.bucketed[start[e >> 32]++] = e;
        edges.swap(s.bucketed);
    } else {
        std::sort(edges.begin(), edges.end());
    }

    MatchingResult result;
    s.used.assign(n, 0);
    auto &used = s.used;
    std::size_t remaining = n;
    for (const std::uint64_t e : edges) {
        if (!remaining)
            break;
        const std::uint64_t weight = e >> 33;
        const bool boundary = e >> 32 & 1;
        const std::size_t a = std::size_t(e >> 16 & 0xffff);
        const std::size_t b = std::size_t(e & 0xffff);
        if (used[a] || (!boundary && used[b]))
            continue;
        if (boundary) {
            used[a] = 1;
            --remaining;
            result.matches.push_back(Match{a, 0, true, weight});
        } else {
            used[a] = 1;
            used[b] = 1;
            remaining -= 2;
            result.matches.push_back(Match{a, b, false, weight});
        }
        result.totalWeight += weight;
    }
    QUEST_ASSERT(remaining == 0, "greedy matcher left events unmatched");
    return result;
}

MatchingResult
MwpmDecoder::matchEvents(const std::vector<DetectionEvent> &events,
                         const MaskedChecks *masked) const
{
    if (events.empty())
        return {};
    // Cycle accounting: which matcher ran, over how many events and
    // at what matched weight. Integer counters only, so concurrent
    // decodes from the Monte-Carlo sweeps accumulate
    // deterministically. Counters are constructor-bound members, not
    // function-local statics (registry-lifetime hazard).
    _mEventsMatched += events.size();
    MatchingResult mr;
    if (events.size() <= _exactLimit) {
        QUEST_TRACE_SCOPE("decode", "mwpm_exact");
        ++_mExactMatchings;
        mr = matchExact(events, masked);
    } else {
        QUEST_TRACE_SCOPE("decode", "mwpm_greedy");
        ++_mGreedyMatchings;
        mr = matchGreedy(events, masked);
    }
    _mMatchedWeight += mr.totalWeight;
    return mr;
}

void
MwpmDecoder::matchInto(const std::vector<DetectionEvent> &events,
                       std::vector<std::uint8_t> &bits,
                       const MaskedChecks *masked) const
{
    const MatchingResult mr = matchEvents(events, masked);
    std::vector<std::size_t> &path = scratch().path;
    for (const Match &m : mr.matches) {
        path.clear();
        if (m.toBoundary)
            pathToBoundary(events[m.a].ancilla, path, masked);
        else
            pathBetween(events[m.a].ancilla, events[m.b].ancilla, path);
        for (std::size_t q : path)
            bits[q] ^= 1;
    }
}

Correction
MwpmDecoder::decode(const DetectionEvents &events) const
{
    QUEST_TRACE_SCOPE("decode", "mwpm_decode");
    ++_mDecodes;
    Scratch &s = scratch();

    // Flip parity per data qubit, then collect odd-parity qubits.
    s.xflip.assign(_lattice->numQubits(), 0);
    s.zflip.assign(_lattice->numQubits(), 0);
    // Per query, every event weight and boundary path walks the
    // lattice through the predicate. A set above the exact limit
    // makes most of those queries, so when either type has one, both
    // read one snapshot taken here; smaller sets keep the per-query
    // search.
    std::optional<MaskedChecks> snapshot;
    if (_masked
        && std::max(events.zEvents.size(), events.xEvents.size())
            > _exactLimit)
        snapshot = maskedChecks();
    const MaskedChecks *masked = snapshot ? &*snapshot : nullptr;
    // Z-check events locate X errors; X-check events locate Z errors.
    matchInto(events.zEvents, s.xflip, masked);
    matchInto(events.xEvents, s.zflip, masked);
    return Correction::fromFlipMaps(s.xflip, s.zflip);
}

} // namespace quest::decode
