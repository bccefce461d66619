/**
 * @file
 * Tests for the compiled tile: every tile, matcher and streamer of a
 * system shares one immutable CompiledTile, while each tile's mutable
 * state -- its mask edits included -- stays its own.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/compiled_tile.hpp"
#include "core/master_controller.hpp"
#include "core/system.hpp"
#include "decode/streaming.hpp"
#include "qecc/extractor.hpp"

namespace {

using namespace quest::core;
using quest::decode::DetectionEvents;
using quest::decode::StreamCommit;
using quest::decode::StreamConfig;
using quest::decode::StreamingDecoder;
using quest::isa::LogicalInstr;
using quest::isa::LogicalOpcode;
using quest::qecc::Coord;
using quest::qecc::RoundSchedule;
using quest::qecc::SyndromeExtractor;
using quest::qecc::SyndromeRound;
using quest::quantum::ErrorChannel;
using quest::quantum::ErrorRates;
using quest::quantum::PauliFrame;
using quest::sim::Rng;

/** Four noisy tiles that can each hold a distance-3 logical qubit;
 *  `stream_window` > 0 decodes through streamers. */
MasterConfig
fourTiles(std::uint64_t seed, std::size_t stream_window = 0)
{
    MasterConfig cfg;
    cfg.numMces = 4;
    cfg.mce = tileConfigForLogicalQubits(3);
    cfg.mce.errorRates = ErrorRates::uniform(3e-3);
    cfg.mce.seed = seed;
    cfg.streamWindowRounds = stream_window;
    return cfg;
}

/** Define a logical qubit on `tile` and widen its defect. */
void
editMask(Mce &tile)
{
    const int id = tile.defineLogicalQubit(Coord{2, 2});
    const std::size_t masked = tile.maskTable().maskedQubitCount();
    tile.executeLogical(
        LogicalInstr{LogicalOpcode::MaskExpand, std::uint16_t(id)});
    ASSERT_GT(tile.maskTable().maskedQubitCount(), masked);
}

/** `rounds` noisy rounds of `ext` on a fresh frame, fixed seed. */
std::vector<SyndromeRound>
replay(const SyndromeExtractor &ext, std::size_t rounds = 20)
{
    Rng rng(77);
    ErrorChannel channel(ErrorRates::uniform(2e-2), rng);
    PauliFrame frame(ext.lattice().numQubits());
    return ext.runRounds(frame, &channel, rounds);
}

bool
sameRounds(const std::vector<SyndromeRound> &a,
           const std::vector<SyndromeRound> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t r = 0; r < a.size(); ++r)
        if (a[r].xFlips != b[r].xFlips || a[r].zFlips != b[r].zFlips)
            return false;
    return true;
}

bool
sameSchedule(const RoundSchedule &a, const RoundSchedule &b)
{
    if (a.depth() != b.depth())
        return false;
    for (std::size_t s = 0; s < a.depth(); ++s)
        if (a.subCycle(s).uops != b.subCycle(s).uops)
            return false;
    return true;
}

bool
sameFrame(const PauliFrame &a, const PauliFrame &b)
{
    if (a.numQubits() != b.numQubits())
        return false;
    for (std::size_t q = 0; q < a.numQubits(); ++q)
        if (a.xError(q) != b.xError(q) || a.zError(q) != b.zError(q))
            return false;
    return true;
}

std::size_t
frameWeight(const PauliFrame &f)
{
    std::size_t w = 0;
    for (std::size_t q = 0; q < f.numQubits(); ++q)
        w += (f.xError(q) || f.zError(q)) ? 1 : 0;
    return w;
}

TEST(CompiledTile, EveryTileAndMatcherOfASystemSharesOne)
{
    for (const std::size_t window : { 0, 6 }) {
        MasterController m(fourTiles(1, window));
        const CompiledTile *tile = m.mce(0).compiledTile().get();
        ASSERT_NE(tile, nullptr);
        for (std::size_t i = 0; i < m.numMces(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(m.mce(i).compiledTile().get(), tile);
            EXPECT_EQ(&m.mce(i).lattice(), &tile->lattice());
            EXPECT_EQ(&m.mce(i).baseSchedule(), &tile->baseSchedule());
            EXPECT_EQ(&m.mce(i).extractor().program(), &tile->program());
            // The cluster fallback borrows this matcher.
            const quest::decode::MwpmDecoder &matcher = window
                ? m.streamer(i).matcher()
                : m.decoder(i);
            EXPECT_EQ(&matcher.geometry(), &tile->geometry());
        }
    }
    // Sharing is per system: a second system compiles its own.
    MasterController a(fourTiles(1));
    MasterController b(fourTiles(1));
    EXPECT_NE(a.mce(0).compiledTile(), b.mce(0).compiledTile());
}

TEST(CompiledTile, MaskEditLeavesTheOtherTilesAsInAFreshSystem)
{
    MasterController edited(fourTiles(5));
    MasterController fresh(fourTiles(5));
    editMask(edited.mce(0));
    const CompiledTile &tile = *edited.mce(0).compiledTile();

    // The edited tile replays a private program compiled from its
    // masked schedule; the shared program stays unmasked.
    Mce &t0 = edited.mce(0);
    EXPECT_NE(&t0.extractor().program(), &tile.program());
    EXPECT_EQ(&tile.program().schedule(), &tile.baseSchedule());
    EXPECT_LT(t0.maskedSchedule().activeUopCount(),
              tile.baseSchedule().activeUopCount());
    const SyndromeExtractor own(t0.maskedSchedule());
    EXPECT_TRUE(sameRounds(replay(t0.extractor()), replay(own)));
    EXPECT_FALSE(sameRounds(replay(t0.extractor()),
                            replay(fresh.mce(0).extractor())));

    for (std::size_t i = 1; i < edited.numMces(); ++i) {
        SCOPED_TRACE(i);
        Mce &a = edited.mce(i);
        Mce &b = fresh.mce(i);
        EXPECT_EQ(&a.extractor().program(), &tile.program());
        EXPECT_TRUE(sameSchedule(a.maskedSchedule(), b.maskedSchedule()));
        EXPECT_TRUE(
            sameSchedule(a.maskedSchedule(), tile.baseSchedule()));
        const auto rounds = replay(a.extractor());
        EXPECT_TRUE(sameRounds(rounds, replay(b.extractor())));
        EXPECT_EQ(a.dependencyOracle().uops(),
                  b.dependencyOracle().uops());

        const DetectionEvents events =
            quest::decode::extractDetectionEvents(rounds, a.extractor());
        ASSERT_GT(events.total(), 0u);
        const auto ca = edited.decoder(i).decode(events);
        const auto cb = fresh.decoder(i).decode(events);
        EXPECT_EQ(ca.xFlips, cb.xFlips);
        EXPECT_EQ(ca.zFlips, cb.zFlips);
    }
}

TEST(CompiledTile, FramesLedgersAndCountersStayPerTile)
{
    for (const std::size_t window : { 0, 6 }) {
        SCOPED_TRACE(window);
        MasterController edited(fourTiles(9, window));
        MasterController fresh(fourTiles(9, window));
        editMask(edited.mce(0));
        edited.runRounds(15);
        fresh.runRounds(15);
        edited.decodeNow();
        fresh.decodeNow();

        std::size_t corrected = 0;
        for (std::size_t i = 1; i < edited.numMces(); ++i) {
            SCOPED_TRACE(i);
            Mce &a = edited.mce(i);
            Mce &b = fresh.mce(i);
            EXPECT_TRUE(sameFrame(a.frame(), b.frame()));
            EXPECT_TRUE(
                sameFrame(a.correctionLedger(), b.correctionLedger()));
            EXPECT_EQ(a.stats().latches, b.stats().latches);
            EXPECT_EQ(a.stats().fired, b.stats().fired);
            EXPECT_EQ(a.stats().maskWrites, 0u);
            EXPECT_EQ(a.eventsResolvedLocally(), b.eventsResolvedLocally());
            corrected += frameWeight(a.correctionLedger());
        }
        EXPECT_GT(corrected, 0u); // the comparison saw real decoding

        // The edited tile counts its own masked replay and writes.
        EXPECT_LT(edited.mce(0).stats().fired,
                  fresh.mce(0).stats().fired);
        EXPECT_GT(edited.mce(0).stats().maskWrites, 0u);
        EXPECT_EQ(fresh.mce(0).stats().maskWrites, 0u);
    }
}

void
expectSameCommit(const std::optional<StreamCommit> &a,
                 const std::optional<StreamCommit> &b)
{
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a)
        return;
    EXPECT_EQ(a->correction.xFlips, b->correction.xFlips);
    EXPECT_EQ(a->correction.zFlips, b->correction.zFlips);
    EXPECT_EQ(a->windowEvents, b->windowEvents);
    EXPECT_EQ(a->forwardedEvents, b->forwardedEvents);
    EXPECT_EQ(a->deferredEvents, b->deferredEvents);
    EXPECT_EQ(a->commitEndRound, b->commitEndRound);
}

TEST(CompiledTile, StreamerOnASharedTileDecodesAcrossAMaskEdit)
{
    // A streamer bound to tile 0's extractor on the shared tables
    // keeps decoding what a streamer on a private extractor and its
    // own tables decodes, across the edit that recompiles tile 0.
    MasterConfig cfg = fourTiles(3);
    const auto tile = CompiledTile::compile(cfg.mce);
    Mce t0("mce0", cfg.mce, tile);
    cfg.mce.seed += 1;
    Mce t1("mce1", cfg.mce, tile);

    const StreamConfig sc{ 6, 3, {} };
    StreamingDecoder shared(
        t0.extractor(),
        std::shared_ptr<const quest::decode::MatchGeometry>(
            tile, &tile->geometry()),
        sc);
    RoundSchedule copy = t0.maskedSchedule();
    SyndromeExtractor reference_extractor(copy);
    StreamingDecoder reference(reference_extractor, sc);
    const auto masked = [&t0](std::size_t q) {
        return t0.maskTable().masked(q);
    };
    shared.setMaskPredicate(masked);
    reference.setMaskPredicate(masked);

    const SyndromeExtractor *address = &t0.extractor();
    std::size_t commits = 0;
    for (int r = 0; r < 40; ++r) {
        if (r == 14) {
            editMask(t0);
            copy = t0.maskedSchedule();
            reference_extractor.recompile();
        }
        t1.runQeccRound();
        const SyndromeRound round = t0.runQeccRound();
        const auto a = shared.pushRound(round);
        expectSameCommit(a, reference.pushRound(round));
        commits += a ? 1 : 0;
    }
    expectSameCommit(shared.finish(), reference.finish());
    EXPECT_EQ(&t0.extractor(), address);
    EXPECT_GT(commits, 10u);
    EXPECT_EQ(&t1.extractor().program(), &tile->program());
}

/** FNV-1a digest of one system run: frames, ledgers, per-tile
 *  counts and bus bytes. */
std::uint64_t
runSystem(std::uint64_t seed, std::size_t stream_window)
{
    MasterController m(fourTiles(seed, stream_window));
    editMask(m.mce(seed % 4));
    m.runRounds(9);
    m.decodeNow();

    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    for (std::size_t i = 0; i < m.numMces(); ++i) {
        Mce &t = m.mce(i);
        for (std::size_t q = 0; q < t.frame().numQubits(); ++q) {
            mix(t.frame().xError(q) | t.frame().zError(q) << 1);
            mix(t.correctionLedger().xError(q)
                | t.correctionLedger().zError(q) << 1);
        }
        mix(t.stats().fired);
        mix(t.stats().maskWrites);
        mix(std::uint64_t(t.eventsResolvedLocally()));
    }
    mix(std::uint64_t(m.busBytesSyndrome()));
    mix(std::uint64_t(m.busBytesCorrections()));
    return h;
}

TEST(ParallelSystems, SharedTileConstructionMatchesSerial)
{
    // Each system compiles its tile once and shares it among its
    // tiles; systems built concurrently must share nothing racy.
    constexpr std::size_t systems = 8;
    const auto runAll = [](std::size_t start) {
        std::vector<std::uint64_t> out(systems);
        for (std::size_t step = 0; step < systems; ++step) {
            const std::size_t k = (start + step) % systems;
            out[k] = runSystem(100 + k, k % 2 ? 6 : 0);
        }
        return out;
    };
    const std::vector<std::uint64_t> serial = runAll(0);

    constexpr std::size_t threads = 4;
    std::vector<std::vector<std::uint64_t>> got(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] { got[t] = runAll(2 * t); });
    for (std::thread &th : pool)
        th.join();
    for (std::size_t t = 0; t < threads; ++t)
        EXPECT_EQ(got[t], serial) << "thread " << t;
}

} // namespace
