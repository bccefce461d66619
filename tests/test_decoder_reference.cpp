/**
 * @file
 * Reference differential tests for the decode hot path. Each test
 * keeps the algorithm the decoder used to run -- the full-table
 * bitmask DP, the greedy matcher over 32-byte edges, the O(n^2) LUT
 * passes -- as a reference here, and only here, and requires the
 * shipped decoder to give bit-identical results on random inputs:
 * the same matches in the same order with the same weights, the same
 * local flips, residual events and resolved count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "decode/lut_decoder.hpp"
#include "decode/mwpm_decoder.hpp"
#include "qecc/lattice.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace {

using namespace quest;
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

/** Greedy matching over 32-byte edges, sorted on weight alone. */
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
                  return x.weight < y.weight;
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
// Greedy matcher: packed 8-byte edges vs 32-byte edges.
// ---------------------------------------------------------------

TEST(DecoderReference, CompactGreedyMatchesWideEdgeSort)
{
    // Small lattices and few rounds make most weights tie, so any
    // change in how ties are ordered shows up as a different match.
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
        const std::vector<DetectionEvent> ev =
            randomEvents(lattice, type, n, rounds, rng);
        for (const MwpmDecoder *dec : {&plain, &masked})
            expectSameMatching(dec->matchEvents(ev),
                               referenceGreedy(*dec, ev), "greedy", trial);
    }
}

TEST(DecoderReference, CompactGreedyRejectsWeightsAbove32Bits)
{
    // A packed edge holds a 32-bit weight. The exact matcher takes
    // events 2^32 rounds apart (the 64-bit test above); the greedy
    // matcher panics on them rather than truncate a weight.
    Rng rng(0x3233u);
    const Lattice lattice = Lattice::forDistance(7);
    const MwpmDecoder dec(lattice);
    const std::vector<DetectionEvent> ev = randomEvents(
        lattice, SiteType::ZAncilla, 20, 2, rng, 2,
        std::uint64_t(1) << 32);
    const auto [lo, hi] = std::minmax_element(
        ev.begin(), ev.end(),
        [](const DetectionEvent &a, const DetectionEvent &b) {
            return a.round < b.round;
        });
    ASSERT_GT(hi->round - lo->round,
              std::uint64_t(std::numeric_limits<std::uint32_t>::max()));
    EXPECT_THROW(dec.matchEvents(ev), sim::SimError);
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
    };
    const auto decodeAll = [&](std::size_t start) {
        std::vector<Outcome> out(inputs.size());
        for (std::size_t step = 0; step < inputs.size(); ++step) {
            const std::size_t k = (start + step) % inputs.size();
            const LocalDecodeResult local = lut.decodeLocal(inputs[k]);
            out[k].local = local.correction;
            out[k].resolved = local.resolvedEvents;
            out[k].global = mwpm.decode(inputs[k]);
        }
        return out;
    };
    const std::vector<Outcome> serial = decodeAll(0);

    constexpr std::size_t threads = 4;
    std::vector<std::vector<Outcome>> got(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] { got[t] = decodeAll(t * 17); });
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
        }
    }
}

} // namespace
