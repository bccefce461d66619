/**
 * @file
 * Reference differential tests for the decode hot path. Each test
 * keeps the algorithm the decoder used to run -- the full-table
 * bitmask DP, the greedy matcher over all n^2 edges, the O(n^2) LUT
 * passes, decodes that read the mask predicate per query -- as a
 * reference here, and only here, and requires the
 * shipped decoder to give bit-identical results on random inputs:
 * the same matches in the same order with the same weights, the same
 * local flips, residual events and resolved count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "decode/cluster_decoder.hpp"
#include "decode/lut_decoder.hpp"
#include "decode/mwpm_decoder.hpp"
#include "qecc/lattice.hpp"
#include "sim/random.hpp"

namespace {

using namespace quest;
using decode::ClusterDecoder;
using decode::Correction;
using decode::DetectionEvent;
using decode::DetectionEvents;
using decode::LocalDecodeResult;
using decode::LutDecoder;
using decode::Match;
using decode::MatchingResult;
using decode::MwpmDecoder;
using qecc::Coord;
using qecc::Lattice;
using qecc::SiteType;
using sim::Rng;

// ---------------------------------------------------------------
// References: the replaced algorithms, as they ran in the decoder.
// ---------------------------------------------------------------

/** Full-table bitmask DP over every one of the 2^n masks. */
template <typename W>
MatchingResult
fullTableDp(std::size_t n, const std::vector<W> &bweight,
            const std::vector<W> &pweight)
{
    constexpr W winf = std::numeric_limits<W>::max();
    std::vector<W> f(std::size_t(1) << n, winf);
    f[0] = 0;
    for (std::size_t mask = 1; mask < f.size(); ++mask) {
        const std::size_t i = std::size_t(std::countr_zero(mask));
        const std::size_t without_i = mask & (mask - 1);
        W best = f[without_i] != winf ? W(f[without_i] + bweight[i])
                                      : winf;
        for (std::size_t rem = without_i; rem; rem &= rem - 1) {
            const std::size_t j = std::size_t(std::countr_zero(rem));
            const std::size_t rest = without_i & ~(std::size_t(1) << j);
            if (f[rest] == winf)
                continue;
            const W cand = W(f[rest] + pweight[i * n + j]);
            if (cand < best)
                best = cand;
        }
        f[mask] = best;
    }

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
            const std::size_t j = std::size_t(std::countr_zero(rem));
            const std::size_t rest = without_i & ~(std::size_t(1) << j);
            if (f[rest] != winf
                && f[mask] == W(f[rest] + pweight[i * n + j])) {
                result.matches.push_back(
                    Match{i, j, false, pweight[i * n + j]});
                mask = rest;
                found = true;
            }
        }
        EXPECT_TRUE(found) << "reference reconstruction failed";
        if (!found)
            break;
    }
    return result;
}

/** Data qubits crossed between two same-type checks. */
std::uint64_t
checkDistance(const DetectionEvent &a, const DetectionEvent &b)
{
    return (std::uint64_t(std::abs(a.ancilla.row - b.ancilla.row))
            + std::uint64_t(std::abs(a.ancilla.col - b.ancilla.col)))
        / 2;
}

/**
 * Pair weight from coordinates and rounds, independent of the
 * decoder's all-pairs table.
 */
std::uint64_t
pairDistance(const DetectionEvent &a, const DetectionEvent &b)
{
    return checkDistance(a, b)
        + (a.round > b.round ? a.round - b.round : b.round - a.round);
}

/** The boundary + pair weight bound that picks the DP word size. */
std::uint64_t
weightBound(const MwpmDecoder &dec, const std::vector<DetectionEvent> &ev)
{
    std::uint64_t sum_boundary = 0, max_pair = 0;
    for (std::size_t i = 0; i < ev.size(); ++i) {
        sum_boundary += dec.boundaryDistance(ev[i]);
        for (std::size_t j = i + 1; j < ev.size(); ++j)
            max_pair = std::max(max_pair, pairDistance(ev[i], ev[j]));
    }
    return sum_boundary + max_pair;
}

/** Exact matching as the decoder ran it with the full table. */
MatchingResult
referenceExact(const MwpmDecoder &dec, const std::vector<DetectionEvent> &ev)
{
    const std::size_t n = ev.size();
    std::vector<std::uint64_t> bweight(n), pweight(n * n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        bweight[i] = dec.boundaryDistance(ev[i]);
        for (std::size_t j = i + 1; j < n; ++j)
            pweight[i * n + j] = pweight[j * n + i] =
                pairDistance(ev[i], ev[j]);
    }
    if (weightBound(dec, ev) < std::numeric_limits<std::uint32_t>::max()) {
        return fullTableDp<std::uint32_t>(
            n, std::vector<std::uint32_t>(bweight.begin(), bweight.end()),
            std::vector<std::uint32_t>(pweight.begin(), pweight.end()));
    }
    return fullTableDp<std::uint64_t>(n, bweight, pweight);
}

/**
 * Greedy matching over every one of the n^2 edges, 32 bytes each,
 * sorted by the matcher's total order: weight, then pair before
 * boundary, then the event indices (a, b).
 */
MatchingResult
referenceGreedy(const MwpmDecoder &dec,
                const std::vector<DetectionEvent> &ev)
{
    struct Edge
    {
        std::uint64_t weight;
        std::size_t a;
        std::size_t b; // == a for boundary edges
        bool boundary;
    };
    const std::size_t n = ev.size();
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < n; ++i) {
        edges.push_back(Edge{dec.boundaryDistance(ev[i]), i, i, true});
        for (std::size_t j = i + 1; j < n; ++j)
            edges.push_back(Edge{pairDistance(ev[i], ev[j]), i, j, false});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge &x, const Edge &y) {
                  return std::tie(x.weight, x.boundary, x.a, x.b)
                      < std::tie(y.weight, y.boundary, y.a, y.b);
              });
    MatchingResult result;
    std::vector<std::uint8_t> used(n, 0);
    std::size_t remaining = n;
    for (const Edge &e : edges) {
        if (!remaining)
            break;
        if (used[e.a] || (!e.boundary && used[e.b]))
            continue;
        used[e.a] = 1;
        if (e.boundary) {
            --remaining;
            result.matches.push_back(Match{e.a, 0, true, e.weight});
        } else {
            used[e.b] = 1;
            remaining -= 2;
            result.matches.push_back(Match{e.a, e.b, false, e.weight});
        }
        result.totalWeight += e.weight;
    }
    return result;
}

/** One type's LUT passes with the all-pairs scans. */
void
referenceLutType(const Lattice &lattice,
                 const std::vector<DetectionEvent> &events,
                 std::vector<std::size_t> &flips,
                 std::vector<DetectionEvent> &residual,
                 std::size_t &resolved)
{
    const std::size_t n = events.size();
    std::vector<std::uint8_t> consumed(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (consumed[i])
            continue;
        int partner = -1;
        std::size_t neighbours = 0;
        for (std::size_t j = 0; j < n; ++j) {
            if (j == i || consumed[j])
                continue;
            if (events[j].round == events[i].round
                && checkDistance(events[i], events[j]) == 1) {
                ++neighbours;
                partner = int(j);
            }
        }
        if (neighbours != 1)
            continue;
        std::size_t other = 0;
        const DetectionEvent &e2 = events[std::size_t(partner)];
        for (std::size_t j = 0; j < n; ++j) {
            if (int(j) == partner || consumed[j])
                continue;
            if (events[j].round == e2.round
                && checkDistance(e2, events[j]) == 1)
                ++other;
        }
        if (other == 1) {
            flips.push_back(lattice.index(
                Coord{(events[i].ancilla.row + e2.ancilla.row) / 2,
                      (events[i].ancilla.col + e2.ancilla.col) / 2}));
            consumed[i] = 1;
            consumed[std::size_t(partner)] = 1;
            resolved += 2;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (consumed[i])
            continue;
        for (std::size_t j = i + 1; j < n; ++j) {
            if (consumed[j])
                continue;
            if (events[j].ancilla == events[i].ancilla
                && (events[j].round == events[i].round + 1
                    || events[i].round == events[j].round + 1)) {
                consumed[i] = 1;
                consumed[j] = 1;
                resolved += 2;
                break;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (consumed[i])
            continue;
        bool isolated = true;
        for (std::size_t j = 0; j < n && isolated; ++j)
            if (j != i && !consumed[j]
                && checkDistance(events[i], events[j]) <= 2)
                isolated = false;
        if (!isolated)
            continue;
        const Coord c = events[i].ancilla;
        const int rows = int(lattice.rows()), cols = int(lattice.cols());
        std::optional<Coord> data;
        if (events[i].type == SiteType::ZAncilla) {
            if (c.row == 1)
                data = Coord{0, c.col};
            else if (c.row == rows - 2)
                data = Coord{c.row + 1, c.col};
        } else {
            if (c.col == 1)
                data = Coord{c.row, 0};
            else if (c.col == cols - 2)
                data = Coord{c.row, c.col + 1};
        }
        if (data) {
            flips.push_back(lattice.index(*data));
            consumed[i] = 1;
            resolved += 1;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        if (!consumed[i])
            residual.push_back(events[i]);
}

LocalDecodeResult
referenceLut(const Lattice &lattice, const DetectionEvents &events)
{
    LocalDecodeResult out;
    referenceLutType(lattice, events.zEvents, out.correction.xFlips,
                     out.residual.zEvents, out.resolvedEvents);
    referenceLutType(lattice, events.xEvents, out.correction.zFlips,
                     out.residual.xEvents, out.resolvedEvents);
    return out;
}

/**
 * Fold one type's matching into `bits` through the public per-query
 * queries: the matching and every boundary path read the mask
 * predicate on each query, with no snapshot.
 */
void
referenceMatchInto(const MwpmDecoder &dec,
                   const std::vector<DetectionEvent> &events,
                   std::vector<std::uint8_t> &bits)
{
    for (const Match &m : dec.matchEvents(events).matches) {
        const std::vector<std::size_t> path = m.toBoundary
            ? dec.pathToBoundary(events[m.a].ancilla)
            : dec.pathBetween(events[m.a].ancilla, events[m.b].ancilla);
        for (const std::size_t q : path)
            bits[q] ^= 1;
    }
}

/** MwpmDecoder::decode with every mask read per query. */
Correction
referenceDecode(const MwpmDecoder &dec, const DetectionEvents &ev)
{
    const std::size_t sites = dec.lattice().numQubits();
    std::vector<std::uint8_t> xflip(sites, 0), zflip(sites, 0);
    referenceMatchInto(dec, ev.zEvents, xflip);
    referenceMatchInto(dec, ev.xEvents, zflip);
    return Correction::fromFlipMaps(xflip, zflip);
}

/**
 * ClusterDecoder as it ran with every mask read per query: each
 * growth step re-reads each event's boundary distance, and each
 * cluster is matched per query. Cluster membership, not the shape
 * of the union-find forest, decides the result, so a plain forest
 * stands in for the decoder's ranked one.
 */
Correction
referenceCluster(const MwpmDecoder &dec, const DetectionEvents &ev)
{
    const auto clusterType = [&](const std::vector<DetectionEvent> &events,
                                 std::vector<std::uint8_t> &bits) {
        const std::size_t n = events.size();
        std::vector<std::size_t> parent(n);
        std::iota(parent.begin(), parent.end(), std::size_t(0));
        std::vector<std::uint8_t> odd(n, 1), boundary(n, 0);
        const auto find = [&](std::size_t x) {
            while (parent[x] != x)
                x = parent[x];
            return x;
        };
        const auto neutral = [&](std::size_t x) {
            return !odd[find(x)] || boundary[find(x)];
        };
        const auto allNeutral = [&] {
            for (std::size_t i = 0; i < n; ++i)
                if (!neutral(i))
                    return false;
            return true;
        };
        for (std::uint64_t radius = 1; !allNeutral(); ++radius) {
            for (std::size_t i = 0; i < n; ++i) {
                if (neutral(i))
                    continue;
                for (std::size_t j = 0; j < n; ++j) {
                    const std::size_t a = find(i), b = find(j);
                    if (j == i || a == b
                        || dec.distance(events[i], events[j]) > 2 * radius)
                        continue;
                    parent[b] = a;
                    odd[a] ^= odd[b];
                    boundary[a] |= boundary[b];
                }
                if (dec.boundaryDistance(events[i]) <= radius)
                    boundary[find(i)] = 1;
            }
        }
        // Clusters in order of their first event, events in index
        // order, as the decoder collects them.
        std::vector<std::size_t> roots;
        for (std::size_t i = 0; i < n; ++i)
            if (std::find(roots.begin(), roots.end(), find(i))
                == roots.end())
                roots.push_back(find(i));
        for (const std::size_t root : roots) {
            std::vector<DetectionEvent> local;
            for (std::size_t i = 0; i < n; ++i)
                if (find(i) == root)
                    local.push_back(events[i]);
            referenceMatchInto(dec, local, bits);
        }
    };
    const std::size_t sites = dec.lattice().numQubits();
    std::vector<std::uint8_t> xflip(sites, 0), zflip(sites, 0);
    clusterType(ev.zEvents, xflip);
    clusterType(ev.xEvents, zflip);
    return Correction::fromFlipMaps(xflip, zflip);
}

// ---------------------------------------------------------------
// Comparison and input helpers.
// ---------------------------------------------------------------

void
expectSameMatching(const MatchingResult &got, const MatchingResult &want,
                   const char *what, std::size_t trial)
{
    EXPECT_EQ(got.totalWeight, want.totalWeight) << what << " " << trial;
    ASSERT_EQ(got.matches.size(), want.matches.size())
        << what << " " << trial;
    for (std::size_t k = 0; k < want.matches.size(); ++k) {
        const Match &g = got.matches[k], &w = want.matches[k];
        EXPECT_EQ(g.a, w.a) << what << " " << trial << " match " << k;
        EXPECT_EQ(g.toBoundary, w.toBoundary)
            << what << " " << trial << " match " << k;
        EXPECT_EQ(g.b, w.b) << what << " " << trial << " match " << k;
        EXPECT_EQ(g.weight, w.weight)
            << what << " " << trial << " match " << k;
    }
}

void
expectSameCorrection(const Correction &got, const Correction &want,
                     const char *what, std::size_t trial)
{
    EXPECT_EQ(got.xFlips, want.xFlips) << what << " " << trial;
    EXPECT_EQ(got.zFlips, want.zFlips) << what << " " << trial;
}

/**
 * `n` distinct events on random checks of `type`, in random order,
 * with rounds `round_base * k + r` for k < round_classes, r < rounds.
 */
std::vector<DetectionEvent>
randomEvents(const Lattice &lattice, SiteType type, std::size_t n,
             std::uint64_t rounds, Rng &rng,
             std::uint64_t round_classes = 1, std::uint64_t round_base = 0)
{
    const std::vector<Coord> sites = lattice.sites(type);
    // Enough (round, check) slots for n distinct events.
    rounds = std::max<std::uint64_t>(rounds, n / sites.size() + 1);
    std::set<std::pair<std::uint64_t, std::size_t>> picked;
    std::vector<DetectionEvent> out;
    while (out.size() < n) {
        const std::uint64_t round = round_base * rng.uniformInt(round_classes)
            + rng.uniformInt(rounds);
        const std::size_t site = std::size_t(rng.uniformInt(sites.size()));
        if (picked.insert({round, site}).second)
            out.push_back(DetectionEvent{round, sites[site], type});
    }
    return out;
}

/** A mask predicate over a fixed random set of ancillas. */
MwpmDecoder::MaskPredicate
randomMask(const Lattice &lattice, Rng &rng, double fraction)
{
    std::vector<std::uint8_t> masked(lattice.numQubits(), 0);
    for (auto &m : masked)
        m = rng.bernoulli(fraction) ? 1 : 0;
    return [masked](std::size_t q) { return masked[q] != 0; };
}

// ---------------------------------------------------------------
// Exact matcher: reachable-mask DP vs the full table.
// ---------------------------------------------------------------

TEST(DecoderReference, TableDistanceMatchesCoordinates)
{
    // The references above weigh pairs from coordinates; the
    // decoder's distance() and matchers read its all-pairs table.
    Rng rng(0x7AB1u);
    for (std::size_t distance : {3, 5, 7}) {
        const Lattice lattice = Lattice::forDistance(distance);
        const MwpmDecoder dec(lattice);
        for (const SiteType type : {SiteType::ZAncilla, SiteType::XAncilla}) {
            const std::vector<DetectionEvent> ev =
                randomEvents(lattice, type, 30, 6, rng);
            for (const DetectionEvent &a : ev)
                for (const DetectionEvent &b : ev)
                    EXPECT_EQ(dec.distance(a, b), pairDistance(a, b))
                        << "d=" << distance;
        }
    }
}

TEST(DecoderReference, ReachableMaskDpMatchesFullTableOn32BitWeights)
{
    Rng rng(0xD9u);
    for (std::size_t distance : {3, 5, 7}) {
        const Lattice lattice = Lattice::forDistance(distance);
        MwpmDecoder plain(lattice);
        MwpmDecoder masked(lattice);
        masked.setMaskPredicate(randomMask(lattice, rng, 0.1));
        for (std::size_t trial = 0; trial < 120; ++trial) {
            const std::size_t n = 1 + trial % 14;
            const SiteType type = trial % 2 ? SiteType::XAncilla
                                            : SiteType::ZAncilla;
            const std::vector<DetectionEvent> ev =
                randomEvents(lattice, type, n, 1 + trial % 6, rng);
            for (const MwpmDecoder *dec : {&plain, &masked}) {
                ASSERT_LT(weightBound(*dec, ev),
                          std::numeric_limits<std::uint32_t>::max());
                expectSameMatching(dec->matchEvents(ev),
                                   referenceExact(*dec, ev), "exact32",
                                   trial);
            }
        }
    }
}

TEST(DecoderReference, ReachableMaskDpMatchesFullTableOn64BitWeights)
{
    // Rounds 2^32 apart push pair weights past 32 bits, so the DP
    // runs on 64-bit tables.
    Rng rng(0x64u);
    const Lattice lattice = Lattice::forDistance(5);
    const MwpmDecoder dec(lattice);
    for (std::size_t trial = 0; trial < 60; ++trial) {
        const std::size_t n = 2 + trial % 13;
        std::vector<DetectionEvent> ev;
        do {
            ev = randomEvents(lattice, SiteType::ZAncilla, n, 3, rng, 3,
                              std::uint64_t(1) << 32);
        } while (weightBound(dec, ev)
                 < std::numeric_limits<std::uint32_t>::max());
        expectSameMatching(dec.matchEvents(ev), referenceExact(dec, ev),
                           "exact64", trial);
    }
}

// ---------------------------------------------------------------
// Greedy matcher: the pruned candidates vs every edge.
// ---------------------------------------------------------------

TEST(DecoderReference, CompactGreedyMatchesWideEdgeSort)
{
    // Small lattices and few rounds make most weights tie, so any
    // change in how ties are ordered shows up as a different match.
    // Each set is matched round-major and shuffled: the matcher's
    // round-gap stop must not depend on the input order.
    Rng rng(0x6E3Du);
    const Lattice lattice = Lattice::forDistance(7);
    MwpmDecoder plain(lattice);
    MwpmDecoder masked(lattice);
    masked.setMaskPredicate(randomMask(lattice, rng, 0.15));
    const std::vector<std::size_t> sizes = {15, 16, 17, 23, 31, 40, 64,
                                            97, 150, 233, 311, 400};
    for (std::size_t trial = 0; trial < 2 * sizes.size(); ++trial) {
        const std::size_t n = sizes[trial % sizes.size()];
        const SiteType type = trial % 2 ? SiteType::XAncilla
                                        : SiteType::ZAncilla;
        const std::uint64_t rounds = 2 + n / 40 + trial % 3;
        std::vector<DetectionEvent> ev =
            randomEvents(lattice, type, n, rounds, rng);
        std::stable_sort(ev.begin(), ev.end(),
                         [](const DetectionEvent &a, const DetectionEvent &b) {
                             return a.round < b.round;
                         });
        std::vector<DetectionEvent> shuffled = ev;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        for (const MwpmDecoder *dec : {&plain, &masked}) {
            expectSameMatching(dec->matchEvents(ev),
                               referenceGreedy(*dec, ev), "greedy", trial);
            expectSameMatching(dec->matchEvents(shuffled),
                               referenceGreedy(*dec, shuffled),
                               "greedy shuffled", trial);
        }
    }
}

TEST(DecoderReference, GreedyBucketPassMatchesWideEdgeSortAtItsBound)
{
    // A round-ordered set skips both sorts: its edges come out in
    // (a, b) order and a counting pass over (weight, boundary) keys
    // orders them, with buckets for boundary weights up to 15, the
    // largest at d = 31. At d = 33 the central checks sit 16 steps
    // from the edge, so a set holding one sorts the words instead,
    // as every shuffled set does. Few rounds make equal-round ties.
    Rng rng(0xB0C7u);
    std::size_t over_bound = 0, under_bound = 0;
    for (const std::size_t distance : {31, 33}) {
        const Lattice lattice = Lattice::forDistance(distance);
        MwpmDecoder plain(lattice);
        MwpmDecoder masked(lattice);
        masked.setMaskPredicate(randomMask(lattice, rng, 0.002));
        for (std::size_t trial = 0; trial < 12; ++trial) {
            const std::size_t n = std::size_t{40} << (trial % 3);
            const SiteType type = trial % 2 ? SiteType::XAncilla
                                            : SiteType::ZAncilla;
            std::vector<DetectionEvent> ev =
                randomEvents(lattice, type, n, 2 + trial % 4, rng);
            std::stable_sort(ev.begin(), ev.end(),
                             [](const DetectionEvent &a,
                                const DetectionEvent &b) {
                                 return a.round < b.round;
                             });
            std::uint64_t max_boundary = 0;
            for (const DetectionEvent &e : ev)
                max_boundary =
                    std::max(max_boundary, plain.boundaryDistance(e));
            EXPECT_EQ(max_boundary > 15, distance == 33) << trial;
            (max_boundary > 15 ? over_bound : under_bound) += 1;
            std::vector<DetectionEvent> shuffled = ev;
            std::shuffle(shuffled.begin(), shuffled.end(), rng);
            for (const MwpmDecoder *dec : {&plain, &masked}) {
                expectSameMatching(dec->matchEvents(ev),
                                   referenceGreedy(*dec, ev), "bucketed",
                                   trial);
                expectSameMatching(dec->matchEvents(shuffled),
                                   referenceGreedy(*dec, shuffled),
                                   "bucketed shuffled", trial);
            }
        }
    }
    EXPECT_GT(over_bound, 0u);
    EXPECT_GT(under_bound, 0u);
}

TEST(DecoderReference, GreedyMatchesGroupsFarApartInTimeWithinThemselves)
{
    // Two groups of events 2^32 rounds apart: every cross-group pair
    // weighs more than 32 bits and more than any boundary edge, so
    // greedy never generates one. Each group matches within itself,
    // exactly as the full sort does, and the result is the union of
    // the two groups matched alone.
    Rng rng(0x3233u);
    const Lattice lattice = Lattice::forDistance(7);
    const MwpmDecoder dec(lattice);
    const std::uint64_t far = std::uint64_t(1) << 32;
    for (std::size_t trial = 0; trial < 8; ++trial) {
        std::vector<DetectionEvent> early =
            randomEvents(lattice, SiteType::ZAncilla, 20, 3, rng);
        std::vector<DetectionEvent> late =
            randomEvents(lattice, SiteType::ZAncilla, 20, 3, rng);
        for (DetectionEvent &e : late)
            e.round += far;
        std::vector<DetectionEvent> ev = early;
        ev.insert(ev.end(), late.begin(), late.end());
        if (trial % 2) {
            // Ties break on event indices, so each group alone keeps
            // its order within the shuffled set.
            std::shuffle(ev.begin(), ev.end(), rng);
            early.clear();
            late.clear();
            for (const DetectionEvent &e : ev)
                (e.round >= far ? late : early).push_back(e);
        }

        const MatchingResult got = dec.matchEvents(ev);
        expectSameMatching(got, referenceGreedy(dec, ev), "far", trial);

        // The matches as unordered event pairs with their weights (a
        // boundary match pairs an event with itself), comparable
        // across differently indexed sets.
        using Key = std::tuple<std::uint64_t, int, int>;
        const auto pairs = [&](const std::vector<DetectionEvent> &set,
                               const MatchingResult &mr) {
            std::set<std::tuple<Key, Key, std::uint64_t>> out;
            for (const Match &m : mr.matches) {
                const DetectionEvent &a = set[m.a];
                const DetectionEvent &b = m.toBoundary ? a : set[m.b];
                EXPECT_EQ(a.round >= far, b.round >= far)
                    << "trial " << trial << ": match crosses the groups";
                const Key ka{a.round, a.ancilla.row, a.ancilla.col};
                const Key kb{b.round, b.ancilla.row, b.ancilla.col};
                out.insert({std::min(ka, kb), std::max(ka, kb), m.weight});
            }
            return out;
        };
        auto want = pairs(early, dec.matchEvents(early));
        want.merge(pairs(late, dec.matchEvents(late)));
        EXPECT_EQ(pairs(ev, got), want) << "trial " << trial;
    }
}

TEST(DecoderReference, GreedyPairsWhenAPairTiesBothBoundaryEdges)
{
    // A pair edge as heavy as both endpoints' boundary edges sorts
    // first, so greedy pairs the two events, as the exact matcher
    // does, instead of sending each to the boundary at twice the
    // weight. A greedy-only decoder (exact limit 0) decodes each set.
    struct Case
    {
        std::size_t distance;
        DetectionEvent a, b;
        std::uint64_t weight;
    };
    const Case cases[] = {
        // d=3: one X error on the central data qubit (2,2) flips the
        // Z checks above and below it. Every check is one step from
        // the boundary; two boundary matches would close a logical X
        // along column 2.
        {3, DetectionEvent{0, Coord{1, 2}, SiteType::ZAncilla},
         DetectionEvent{0, Coord{3, 2}, SiteType::ZAncilla}, 1},
        // d=5: a space-time diagonal pair (one step in space, one
        // round) weighs 2, as does each check's boundary edge.
        {5, DetectionEvent{0, Coord{3, 4}, SiteType::ZAncilla},
         DetectionEvent{1, Coord{5, 4}, SiteType::ZAncilla}, 2},
    };
    for (const Case &c : cases) {
        const Lattice lattice = Lattice::forDistance(c.distance);
        const MwpmDecoder greedy(lattice, 0);
        const MwpmDecoder exact(lattice);
        ASSERT_EQ(greedy.boundaryDistance(c.a), c.weight);
        ASSERT_EQ(greedy.boundaryDistance(c.b), c.weight);
        ASSERT_EQ(greedy.distance(c.a, c.b), c.weight);
        const std::vector<DetectionEvent> ev = {c.a, c.b};
        const MatchingResult got = greedy.matchEvents(ev);
        ASSERT_EQ(got.matches.size(), 1u) << "d=" << c.distance;
        EXPECT_FALSE(got.matches[0].toBoundary) << "d=" << c.distance;
        EXPECT_EQ(got.totalWeight, c.weight) << "d=" << c.distance;
        expectSameMatching(got, exact.matchEvents(ev), "tie", c.distance);
    }
    // The d=3 correction is the single flip that undoes the error.
    const Lattice lattice = Lattice::forDistance(3);
    const MwpmDecoder greedy(lattice, 0);
    DetectionEvents ev;
    ev.zEvents = {cases[0].a, cases[0].b};
    const Correction corr = greedy.decode(ev);
    EXPECT_EQ(corr.xFlips,
              std::vector<std::size_t>{lattice.index(Coord{2, 2})});
    EXPECT_TRUE(corr.zFlips.empty());
}

// ---------------------------------------------------------------
// Masked boundary: one snapshot vs the per-query search.
// ---------------------------------------------------------------

/**
 * A mask with ties: each check type has a central check whose two
 * nearest masked checks are equidistant from it (and nearer than the
 * lattice edge from d = 5 up), so which of them a boundary path
 * enters depends on how the search breaks ties.
 */
MwpmDecoder::MaskPredicate
equidistantMask(const Lattice &lattice)
{
    std::vector<std::uint8_t> masked(lattice.numQubits(), 0);
    const int mid = int(lattice.rows()) / 2; // d - 1, even
    // Z checks sit at (odd row, even column): mask the two checks
    // left and right of (mid - 1, mid). X checks sit at (even row,
    // odd column): mask the two above and below (mid, mid - 1).
    for (const Coord c : {Coord{mid - 1, mid - 2}, Coord{mid - 1, mid + 2},
                          Coord{mid - 2, mid - 1}, Coord{mid + 2, mid - 1}})
        masked[lattice.index(c)] = 1;
    return [masked](std::size_t q) { return masked[q] != 0; };
}

TEST(DecoderReference, MaskSnapshotMatchesPerQuerySearch)
{
    // One decoder takes each mask in turn, so a snapshot that kept
    // an earlier mask would differ from the per-query search.
    Rng rng(0x5A4Bu);
    for (std::size_t distance : {3, 5, 7}) {
        const Lattice lattice = Lattice::forDistance(distance);
        MwpmDecoder dec(lattice);
        const MwpmDecoder::MaskPredicate masks[] = {
            randomMask(lattice, rng, 0.0), randomMask(lattice, rng, 0.1),
            randomMask(lattice, rng, 0.3), equidistantMask(lattice)};
        for (std::size_t m = 0; m < std::size(masks); ++m) {
            dec.setMaskPredicate(masks[m]);
            const decode::MaskedChecks snap = dec.maskedChecks();
            for (const SiteType type :
                 {SiteType::ZAncilla, SiteType::XAncilla}) {
                for (std::size_t trial = 0; trial < 40; ++trial) {
                    // Both matchers: up to 14 events exact, then greedy.
                    const std::size_t n = 1 + trial;
                    const std::vector<DetectionEvent> ev =
                        randomEvents(lattice, type, n, 1 + trial % 5, rng);
                    expectSameMatching(dec.matchEvents(ev, &snap),
                                       dec.matchEvents(ev), "snapshot",
                                       trial);
                }
                for (const Coord c : lattice.sites(type)) {
                    std::vector<std::size_t> got;
                    dec.pathToBoundary(c, got, &snap);
                    EXPECT_EQ(got, dec.pathToBoundary(c))
                        << "d=" << distance << " mask " << m << " check ("
                        << c.row << "," << c.col << ")";
                }
            }
        }
    }
}

/** The four masks of MaskSnapshotMatchesPerQuerySearch. */
std::vector<MwpmDecoder::MaskPredicate>
testMasks(const Lattice &lattice, Rng &rng)
{
    return {randomMask(lattice, rng, 0.0), randomMask(lattice, rng, 0.1),
            randomMask(lattice, rng, 0.3), equidistantMask(lattice)};
}

TEST(DecoderReference, DecodeMatchesPerQueryDecode)
{
    // decode() reads one snapshot when either type's set is above the
    // exact limit (14) and the predicate per query otherwise; both
    // must give the correction the per-query queries build. The
    // sizes cover sets with no large set, one and two.
    Rng rng(0xDEC0u);
    std::size_t none_large = 0, one_large = 0, both_large = 0;
    for (std::size_t distance : {3, 5, 7, 9}) {
        const Lattice lattice = Lattice::forDistance(distance);
        MwpmDecoder dec(lattice);
        for (const MwpmDecoder::MaskPredicate &mask : testMasks(lattice, rng)) {
            dec.setMaskPredicate(mask);
            for (std::size_t trial = 0; trial < 40; ++trial) {
                DetectionEvents ev;
                const std::size_t nz = 1 + trial;
                const std::size_t nx = 1 + (7 * trial + 13) % 40;
                ev.zEvents = randomEvents(lattice, SiteType::ZAncilla, nz,
                                          1 + trial % 5, rng);
                ev.xEvents = randomEvents(lattice, SiteType::XAncilla, nx,
                                          1 + trial % 4, rng);
                const std::size_t large = (nz > 14) + (nx > 14);
                none_large += large == 0;
                one_large += large == 1;
                both_large += large == 2;
                expectSameCorrection(dec.decode(ev), referenceDecode(dec, ev),
                                     "decode", trial);
            }
        }
    }
    EXPECT_GT(none_large, 0u);
    EXPECT_GT(one_large, 0u);
    EXPECT_GT(both_large, 0u);
}

TEST(DecoderReference, ClusterDecodeMatchesPerQueryDecode)
{
    // ClusterDecoder reads one snapshot per decode and each event's
    // boundary distance once; the per-query growth must agree.
    Rng rng(0xC1u);
    for (std::size_t distance : {3, 5, 7, 9}) {
        const Lattice lattice = Lattice::forDistance(distance);
        MwpmDecoder dec(lattice);
        const ClusterDecoder cluster(dec);
        for (const MwpmDecoder::MaskPredicate &mask : testMasks(lattice, rng)) {
            dec.setMaskPredicate(mask);
            for (std::size_t trial = 0; trial < 12; ++trial) {
                DetectionEvents ev;
                ev.zEvents = randomEvents(lattice, SiteType::ZAncilla,
                                          15 + 2 * trial, 2 + trial % 4, rng);
                ev.xEvents = randomEvents(lattice, SiteType::XAncilla,
                                          40 - 2 * trial, 2 + trial % 3, rng);
                expectSameCorrection(cluster.decode(ev),
                                     referenceCluster(dec, ev), "cluster",
                                     trial);
            }
        }
    }
}

TEST(DecoderReference, DecodersRereadALiveMaskEveryCall)
{
    // The predicate reads a table that changes between calls with no
    // new setMaskPredicate, as a tile's live mask table does. A
    // snapshot kept from an earlier call would decode against the
    // old mask.
    Rng rng(0x11CEu);
    const Lattice lattice = Lattice::forDistance(7);
    std::vector<std::uint8_t> table(lattice.numQubits(), 0);
    MwpmDecoder dec(lattice);
    dec.setMaskPredicate([&table](std::size_t q) { return table[q] != 0; });
    const ClusterDecoder cluster(dec);
    std::size_t moved = 0;
    for (std::size_t trial = 0; trial < 30; ++trial) {
        DetectionEvents ev;
        ev.zEvents = randomEvents(lattice, SiteType::ZAncilla,
                                  15 + trial % 20, 3, rng);
        ev.xEvents = randomEvents(lattice, SiteType::XAncilla,
                                  5 + trial % 30, 3, rng);
        Correction previous;
        for (std::size_t step = 0; step < 3; ++step) {
            for (std::uint8_t &m : table)
                m = rng.bernoulli(0.15) ? 1 : 0;
            const Correction want = referenceDecode(dec, ev);
            expectSameCorrection(dec.decode(ev), want, "live decode", trial);
            expectSameCorrection(cluster.decode(ev),
                                 referenceCluster(dec, ev), "live cluster",
                                 trial);
            moved += step > 0 && (want.xFlips != previous.xFlips
                                  || want.zFlips != previous.zFlips);
            previous = want;
        }
    }
    // The mask changes move most corrections, so a stale snapshot
    // would show.
    EXPECT_GT(moved, 30u);
}

TEST(DecoderReference, DecodersReadTheMaskOncePerCallWithALargeSet)
{
    // One snapshot reads the predicate once per check. MwpmDecoder
    // takes one when either type's set is above the exact limit, for
    // both types; ClusterDecoder takes one on every call.
    const Lattice lattice = Lattice::forDistance(7);
    const std::size_t checks = lattice.sites(SiteType::ZAncilla).size()
        + lattice.sites(SiteType::XAncilla).size();
    std::size_t reads = 0;
    MwpmDecoder dec(lattice);
    dec.setMaskPredicate([&reads](std::size_t q) {
        ++reads;
        return q % 11 == 0;
    });
    const ClusterDecoder cluster(dec);
    Rng rng(0x0CEu);
    for (const bool z_large : {true, false}) {
        DetectionEvents ev;
        ev.zEvents = randomEvents(lattice, SiteType::ZAncilla,
                                  z_large ? 20 : 3, 3, rng);
        ev.xEvents = randomEvents(lattice, SiteType::XAncilla,
                                  z_large ? 3 : 20, 3, rng);
        reads = 0;
        dec.decode(ev);
        EXPECT_EQ(reads, checks) << "large Z set: " << z_large;
        reads = 0;
        cluster.decode(ev);
        EXPECT_EQ(reads, checks) << "large Z set: " << z_large;
    }
}

// ---------------------------------------------------------------
// LUT: round-bucketed passes vs the all-pairs passes.
// ---------------------------------------------------------------

/**
 * Random round-major events of one type, weighted toward what the
 * LUT acts on: checks next to the boundary, adjacent same-round pairs
 * and repeats of the previous round's checks (time-like pairs).
 * Within a round the order is the extraction order or, if `shuffle`,
 * random.
 */
std::vector<DetectionEvent>
randomRoundMajor(const Lattice &lattice, SiteType type,
                 std::size_t rounds, Rng &rng, bool shuffle)
{
    const std::vector<Coord> sites = lattice.sites(type);
    const auto boundary = [&](Coord c) {
        return type == SiteType::ZAncilla
            ? c.row == 1 || c.row == int(lattice.rows()) - 2
            : c.col == 1 || c.col == int(lattice.cols()) - 2;
    };
    std::vector<DetectionEvent> out;
    std::vector<std::size_t> previous;
    for (std::size_t r = 0; r < rounds; ++r) {
        std::set<std::size_t> now;
        for (std::size_t s : previous)
            if (rng.bernoulli(0.4))
                now.insert(s);
        const std::size_t extra = std::size_t(rng.uniformInt(5));
        for (std::size_t k = 0; k < extra; ++k) {
            const std::size_t s = std::size_t(rng.uniformInt(sites.size()));
            if (boundary(sites[s]) || rng.bernoulli(0.5))
                now.insert(s);
            // An adjacent partner two steps along a row or column.
            if (rng.bernoulli(0.4)) {
                const Coord c = sites[s];
                const Coord o = rng.bernoulli(0.5) ? Coord{c.row, c.col + 2}
                                                   : Coord{c.row + 2, c.col};
                for (std::size_t t = 0; t < sites.size(); ++t)
                    if (sites[t] == o)
                        now.insert(t);
            }
        }
        std::vector<std::size_t> order(now.begin(), now.end());
        if (shuffle)
            std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t s : order)
            out.push_back(DetectionEvent{r, sites[s], type});
        previous.assign(now.begin(), now.end());
    }
    return out;
}

TEST(DecoderReference, BucketedLutMatchesQuadraticPasses)
{
    Rng rng(0x1075u);
    std::size_t resolved = 0, residual = 0;
    for (std::size_t distance : {3, 5, 9}) {
        const Lattice lattice = Lattice::forDistance(distance);
        const LutDecoder lut(lattice);
        for (std::size_t trial = 0; trial < 150; ++trial) {
            DetectionEvents ev;
            const std::size_t rounds = 1 + trial % 12;
            const bool shuffle = trial % 3 == 0;
            ev.zEvents = randomRoundMajor(lattice, SiteType::ZAncilla,
                                          rounds, rng, shuffle);
            ev.xEvents = randomRoundMajor(lattice, SiteType::XAncilla,
                                          rounds, rng, shuffle);
            const LocalDecodeResult got = lut.decodeLocal(ev);
            const LocalDecodeResult want = referenceLut(lattice, ev);
            EXPECT_EQ(got.correction.xFlips, want.correction.xFlips)
                << "d=" << distance << " trial " << trial;
            EXPECT_EQ(got.correction.zFlips, want.correction.zFlips)
                << "d=" << distance << " trial " << trial;
            EXPECT_EQ(got.residual.zEvents, want.residual.zEvents)
                << "d=" << distance << " trial " << trial;
            EXPECT_EQ(got.residual.xEvents, want.residual.xEvents)
                << "d=" << distance << " trial " << trial;
            EXPECT_EQ(got.resolvedEvents, want.resolvedEvents)
                << "d=" << distance << " trial " << trial;
            resolved += want.resolvedEvents;
            residual += want.residual.total();
        }
    }
    // The inputs exercise both outcomes heavily.
    EXPECT_GT(resolved, 1000u);
    EXPECT_GT(residual, 1000u);
}

// ---------------------------------------------------------------
// One shared decoder pair, decoding from several threads.
// ---------------------------------------------------------------

TEST(ParallelDecode, SharedMatcherMatchesSerial)
{
    // The matchers keep their working state in thread-local scratch
    // and the LUT keeps none, so one instance of each decodes from
    // many threads; every thread must reproduce the serial results.
    // Each thread also matches through a mask snapshot of its own,
    // against the serial per-query matchings.
    Rng rng(0x7EADu);
    const Lattice lattice = Lattice::forDistance(7);
    MwpmDecoder mwpm(lattice);
    mwpm.setMaskPredicate(randomMask(lattice, rng, 0.1));
    const LutDecoder lut(lattice);

    std::vector<DetectionEvents> inputs(96);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        // Sizes on both sides of the exact limit.
        const std::size_t rounds = 1 + k % 8;
        inputs[k].zEvents = randomRoundMajor(
            lattice, SiteType::ZAncilla, rounds, rng, false);
        inputs[k].xEvents = randomRoundMajor(
            lattice, SiteType::XAncilla, rounds, rng, false);
    }
    struct Outcome
    {
        Correction global;
        Correction local;
        std::size_t resolved = 0;
        MatchingResult zMatch;
        MatchingResult xMatch;
    };
    const auto decodeAll = [&](std::size_t start,
                               const decode::MaskedChecks *snap) {
        std::vector<Outcome> out(inputs.size());
        for (std::size_t step = 0; step < inputs.size(); ++step) {
            const std::size_t k = (start + step) % inputs.size();
            const LocalDecodeResult local = lut.decodeLocal(inputs[k]);
            out[k].local = local.correction;
            out[k].resolved = local.resolvedEvents;
            out[k].global = mwpm.decode(inputs[k]);
            out[k].zMatch = mwpm.matchEvents(inputs[k].zEvents, snap);
            out[k].xMatch = mwpm.matchEvents(inputs[k].xEvents, snap);
        }
        return out;
    };
    const std::vector<Outcome> serial = decodeAll(0, nullptr);

    constexpr std::size_t threads = 4;
    std::vector<std::vector<Outcome>> got(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            const decode::MaskedChecks snap = mwpm.maskedChecks();
            got[t] = decodeAll(t * 17, &snap);
        });
    for (std::thread &th : pool)
        th.join();

    std::size_t greedy_inputs = 0;
    for (const DetectionEvents &ev : inputs)
        greedy_inputs += ev.zEvents.size() > 14 || ev.xEvents.size() > 14;
    EXPECT_GT(greedy_inputs, 10u);
    for (std::size_t t = 0; t < threads; ++t) {
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            EXPECT_EQ(got[t][k].global.xFlips, serial[k].global.xFlips)
                << "thread " << t << " input " << k;
            EXPECT_EQ(got[t][k].global.zFlips, serial[k].global.zFlips)
                << "thread " << t << " input " << k;
            EXPECT_EQ(got[t][k].local.xFlips, serial[k].local.xFlips)
                << "thread " << t << " input " << k;
            EXPECT_EQ(got[t][k].local.zFlips, serial[k].local.zFlips)
                << "thread " << t << " input " << k;
            EXPECT_EQ(got[t][k].resolved, serial[k].resolved)
                << "thread " << t << " input " << k;
            expectSameMatching(got[t][k].zMatch, serial[k].zMatch,
                               "snapshot z", k);
            expectSameMatching(got[t][k].xMatch, serial[k].xMatch,
                               "snapshot x", k);
        }
    }
}

} // namespace
