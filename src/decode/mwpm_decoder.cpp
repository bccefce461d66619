#include "mwpm_decoder.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>

#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace quest::decode {

using qecc::Coord;
using qecc::SiteType;

namespace {

constexpr std::uint64_t inf = std::numeric_limits<std::uint64_t>::max();

/** Cap on the all-pairs cache: ~4000 ancillas / 64 MiB of table. */
constexpr std::size_t maxCachedPairs = std::size_t(1) << 24;

constexpr std::uint32_t noAncilla =
    std::numeric_limits<std::uint32_t>::max();

/**
 * Per-thread scratch arena for the matchers and decode(). Reused
 * across calls so the hot path performs no allocations once warm;
 * thread-local so a single decoder can decode concurrently from the
 * parallel Monte-Carlo sweeps.
 */
struct Scratch
{
    // matchExact. The DP table and weight matrices exist in both a
    // 32-bit flavour (the common case — halves the cache footprint
    // of the 2^n table) and a 64-bit flavour used only when the
    // weight bound could overflow 32 bits.
    std::vector<std::uint64_t> bweight;
    std::vector<std::uint64_t> pweight; ///< n*n, flat
    std::vector<std::uint64_t> f;       ///< 1<<n DP table
    std::vector<std::uint32_t> bweight32;
    std::vector<std::uint32_t> pweight32;
    std::vector<std::uint32_t> f32;

    // matchGreedy
    struct Edge
    {
        std::uint64_t weight;
        std::size_t a;
        std::size_t b;      // == a for boundary edges
        bool boundary;
    };
    std::vector<Edge> edges;
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
 * Weight type W is uint32 when the weight bound allows (the 2^n
 * table then fits twice as much of the cache) and uint64 otherwise.
 */
template <typename W>
MatchingResult
exactDp(std::size_t n, std::vector<W> &f, const W *bweight,
        const W *pweight)
{
    constexpr W winf = std::numeric_limits<W>::max();
    f.assign(std::size_t(1) << n, winf);
    f[0] = 0;
    for (std::size_t mask = 1; mask < f.size(); ++mask) {
        const std::size_t i = std::size_t(std::countr_zero(mask));
        const std::size_t without_i = mask & (mask - 1);
        // Option 1: event i matches the boundary.
        W best = f[without_i] != winf ? W(f[without_i] + bweight[i])
                                      : winf;
        // Option 2: event i pairs with some j in the mask. All
        // other set bits are > i, so iterate them directly.
        for (std::size_t rem = without_i; rem; rem &= rem - 1) {
            const std::size_t j =
                std::size_t(std::countr_zero(rem));
            const std::size_t rest =
                without_i & ~(std::size_t(1) << j);
            if (f[rest] == winf)
                continue;
            const W cand = W(f[rest] + pweight[i * n + j]);
            if (cand < best)
                best = cand;
        }
        f[mask] = best;
    }

    // Reconstruct the optimal decisions.
    MatchingResult result;
    result.totalWeight = f[f.size() - 1];
    std::size_t mask = f.size() - 1;
    while (mask) {
        const std::size_t i = std::size_t(std::countr_zero(mask));
        const std::size_t without_i = mask & (mask - 1);
        if (f[without_i] != winf
            && f[mask] == W(f[without_i] + bweight[i])) {
            result.matches.push_back(Match{i, 0, true, bweight[i]});
            mask = without_i;
            continue;
        }
        bool found = false;
        for (std::size_t rem = without_i; rem && !found;
             rem &= rem - 1) {
            const std::size_t j =
                std::size_t(std::countr_zero(rem));
            const std::size_t rest =
                without_i & ~(std::size_t(1) << j);
            if (f[rest] != winf
                && f[mask] == W(f[rest] + pweight[i * n + j])) {
                result.matches.push_back(
                    Match{i, j, false, pweight[i * n + j]});
                mask = rest;
                found = true;
            }
        }
        QUEST_ASSERT(found, "matching reconstruction failed");
    }
    return result;
}

} // namespace

MwpmDecoder::MwpmDecoder(const qecc::Lattice &lattice,
                         std::size_t exact_limit)
    : _lattice(&lattice), _exactLimit(exact_limit),
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

    // Build the per-lattice distance cache: compact ancilla ids,
    // all-pairs spatial distances, per-ancilla edge distances.
    const std::size_t sites = lattice.numQubits();
    _ancillaId.assign(sites, noAncilla);
    for (std::size_t idx = 0; idx < sites; ++idx) {
        const Coord c = lattice.coord(idx);
        if (lattice.isAncilla(c))
            _ancillaId[idx] = std::uint32_t(_numAncilla++);
    }
    if (_numAncilla * _numAncilla > maxCachedPairs) {
        _ancillaId.clear();
        _numAncilla = 0;
        return;
    }

    // Build into locals: edgeDistance() consults _edge, which must
    // stay empty (uncached path) until the table is complete.
    std::vector<std::uint32_t> spatial(_numAncilla * _numAncilla, 0);
    std::vector<std::uint32_t> edge(_numAncilla, 0);
    for (std::size_t ia = 0; ia < sites; ++ia) {
        const std::uint32_t a = _ancillaId[ia];
        if (a == noAncilla)
            continue;
        const Coord ca = lattice.coord(ia);
        const DetectionEvent ea{0, ca, lattice.siteType(ca)};
        edge[a] = std::uint32_t(edgeDistance(ea));
        for (std::size_t ib = 0; ib < sites; ++ib) {
            const std::uint32_t b = _ancillaId[ib];
            if (b == noAncilla)
                continue;
            const Coord cb = lattice.coord(ib);
            const std::uint32_t dr =
                std::uint32_t(std::abs(ca.row - cb.row));
            const std::uint32_t dc =
                std::uint32_t(std::abs(ca.col - cb.col));
            // Only same-type pairs are ever queried; cross-type
            // entries hold the truncated value and stay unused.
            spatial[a * _numAncilla + b] = (dr + dc) / 2;
        }
    }
    _spatial = std::move(spatial);
    _edge = std::move(edge);
}

std::uint64_t
MwpmDecoder::distance(const DetectionEvent &a, const DetectionEvent &b) const
{
    QUEST_ASSERT(a.type == b.type,
                 "cannot match events of different stabilizer types");
    const std::uint64_t dt = a.round > b.round
        ? a.round - b.round : b.round - a.round;
    if (!_spatial.empty()) {
        const std::uint32_t ia = _ancillaId[_lattice->index(a.ancilla)];
        const std::uint32_t ib = _ancillaId[_lattice->index(b.ancilla)];
        return _spatial[ia * _numAncilla + ib] + dt;
    }
    const std::uint64_t dr = std::uint64_t(std::abs(a.ancilla.row
                                                    - b.ancilla.row));
    const std::uint64_t dc = std::uint64_t(std::abs(a.ancilla.col
                                                    - b.ancilla.col));
    QUEST_ASSERT(dr % 2 == 0 && dc % 2 == 0,
                 "same-type checks must differ by even steps");
    return (dr + dc) / 2 + dt;
}

std::uint64_t
MwpmDecoder::edgeDistance(const DetectionEvent &e) const
{
    if (!_edge.empty()) {
        const std::uint32_t id = _ancillaId[_lattice->index(e.ancilla)];
        if (id != noAncilla)
            return _edge[id];
    }
    const Coord c = e.ancilla;
    if (e.type == SiteType::ZAncilla) {
        // X-error chains terminate on the top/bottom data rows.
        const std::uint64_t north = std::uint64_t(c.row + 1) / 2;
        const std::uint64_t south =
            std::uint64_t(int(_lattice->rows()) - c.row) / 2;
        return std::min(north, south);
    }
    // Z-error chains terminate on the left/right data columns.
    const std::uint64_t west = std::uint64_t(c.col + 1) / 2;
    const std::uint64_t east =
        std::uint64_t(int(_lattice->cols()) - c.col) / 2;
    return std::min(west, east);
}

std::optional<std::pair<std::uint64_t, Coord>>
MwpmDecoder::nearestMaskedCheck(const DetectionEvent &e) const
{
    if (!_masked)
        return std::nullopt;
    const SiteType type = e.type;
    std::optional<std::pair<std::uint64_t, Coord>> best;
    for (const Coord c : _lattice->sites(type)) {
        if (!_masked(_lattice->index(c)))
            continue;
        const std::uint64_t dist =
            (std::uint64_t(std::abs(c.row - e.ancilla.row))
             + std::uint64_t(std::abs(c.col - e.ancilla.col))) / 2;
        if (!best || dist < best->first)
            best = std::make_pair(dist, c);
    }
    return best;
}

std::uint64_t
MwpmDecoder::boundaryDistance(const DetectionEvent &e) const
{
    std::uint64_t dist = edgeDistance(e);
    if (const auto masked = nearestMaskedCheck(e))
        dist = std::min(dist, masked->first);
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
MwpmDecoder::pathToBoundary(Coord a,
                            std::vector<std::size_t> &out) const
{
    const SiteType type = _lattice->siteType(a);
    QUEST_ASSERT(type != SiteType::Data, "boundary path from non-check");

    // A masked (defect) region closer than the lattice edge is the
    // terminating boundary: route the chain into it.
    const DetectionEvent here{0, a, type};
    if (const auto masked = nearestMaskedCheck(here)) {
        if (masked->first < edgeDistance(here)) {
            pathBetween(a, masked->second, out);
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

MatchingResult
MwpmDecoder::matchExact(const std::vector<DetectionEvent> &events) const
{
    const std::size_t n = events.size();
    Scratch &s = scratch();

    // Precompute pair and boundary weights into the flat arena.
    s.bweight.resize(n);
    s.pweight.resize(n * n);
    std::uint64_t sum_boundary = 0;
    std::uint64_t max_pair = 0;
    for (std::size_t i = 0; i < n; ++i) {
        s.bweight[i] = boundaryDistance(events[i]);
        sum_boundary += s.bweight[i];
        for (std::size_t j = i + 1; j < n; ++j) {
            const std::uint64_t w = distance(events[i], events[j]);
            s.pweight[i * n + j] = w;
            s.pweight[j * n + i] = w;
            max_pair = std::max(max_pair, w);
        }
    }

    // Every reachable f[mask] is bounded by the all-boundary
    // matching; candidates add at most one more pair weight. When
    // that bound fits comfortably in 32 bits, run the DP on uint32
    // tables for cache density.
    const std::uint64_t bound = sum_boundary + max_pair;
    if (bound < std::numeric_limits<std::uint32_t>::max()) {
        s.bweight32.resize(n);
        s.pweight32.resize(n * n);
        for (std::size_t i = 0; i < n; ++i)
            s.bweight32[i] = std::uint32_t(s.bweight[i]);
        for (std::size_t i = 0; i < n * n; ++i)
            s.pweight32[i] = std::uint32_t(s.pweight[i]);
        return exactDp<std::uint32_t>(n, s.f32, s.bweight32.data(),
                                      s.pweight32.data());
    }
    return exactDp<std::uint64_t>(n, s.f, s.bweight.data(),
                                  s.pweight.data());
}

MatchingResult
MwpmDecoder::matchGreedy(const std::vector<DetectionEvent> &events) const
{
    const std::size_t n = events.size();
    Scratch &s = scratch();
    auto &edges = s.edges;
    edges.clear();
    edges.reserve(n * (n + 1) / 2);
    for (std::size_t i = 0; i < n; ++i) {
        edges.push_back(
            Scratch::Edge{boundaryDistance(events[i]), i, i, true});
        for (std::size_t j = i + 1; j < n; ++j)
            edges.push_back(
                Scratch::Edge{distance(events[i], events[j]), i, j,
                              false});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Scratch::Edge &x, const Scratch::Edge &y) {
                  return x.weight < y.weight;
              });

    MatchingResult result;
    s.used.assign(n, 0);
    auto &used = s.used;
    std::size_t remaining = n;
    for (const Scratch::Edge &e : edges) {
        if (!remaining)
            break;
        if (used[e.a] || (!e.boundary && used[e.b]))
            continue;
        if (e.boundary) {
            used[e.a] = 1;
            --remaining;
            result.matches.push_back(Match{e.a, 0, true, e.weight});
        } else {
            used[e.a] = 1;
            used[e.b] = 1;
            remaining -= 2;
            result.matches.push_back(Match{e.a, e.b, false, e.weight});
        }
        result.totalWeight += e.weight;
    }
    QUEST_ASSERT(remaining == 0, "greedy matcher left events unmatched");
    return result;
}

MatchingResult
MwpmDecoder::matchEvents(const std::vector<DetectionEvent> &events) const
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
        mr = matchExact(events);
    } else {
        QUEST_TRACE_SCOPE("decode", "mwpm_greedy");
        ++_mGreedyMatchings;
        mr = matchGreedy(events);
    }
    _mMatchedWeight += mr.totalWeight;
    return mr;
}

void
MwpmDecoder::matchInto(const std::vector<DetectionEvent> &events,
                       std::vector<std::uint8_t> &bits) const
{
    const MatchingResult mr = matchEvents(events);
    std::vector<std::size_t> &path = scratch().path;
    for (const Match &m : mr.matches) {
        path.clear();
        if (m.toBoundary)
            pathToBoundary(events[m.a].ancilla, path);
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
    // Z-check events locate X errors; X-check events locate Z errors.
    matchInto(events.zEvents, s.xflip);
    matchInto(events.xEvents, s.zflip);
    return Correction::fromFlipMaps(s.xflip, s.zflip);
}

} // namespace quest::decode
