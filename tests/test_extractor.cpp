/**
 * @file
 * Functional tests of syndrome extraction: injected Pauli errors
 * must flip exactly the stabilizers whose support they touch, in
 * both the Pauli-frame executor and the full tableau cross-check.
 */

#include <gtest/gtest.h>

#include <set>

#include "qecc/extractor.hpp"
#include "qecc/logical_mask.hpp"
#include "quantum/tableau.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace quest::qecc;
using quest::isa::PhysOpcode;
using quest::quantum::BatchErrorChannel;
using quest::quantum::BatchPauliFrame;
using quest::quantum::ErrorChannel;
using quest::quantum::ErrorRates;
using quest::quantum::PauliFrame;
using quest::quantum::Tableau;
using quest::sim::Rng;

class ExtractorTest : public ::testing::Test
{
  protected:
    ExtractorTest()
        : lattice(Lattice::forDistance(3)),
          schedule(buildRoundSchedule(lattice,
                                      protocolSpec(Protocol::Steane))),
          extractor(schedule)
    {}

    /** Indices of ancillas expected to flip for an error at `data`. */
    std::set<std::size_t>
    expectedChecks(Coord data, SiteType check_type) const
    {
        std::set<std::size_t> out;
        const auto &list = check_type == SiteType::XAncilla
            ? extractor.xAncillas() : extractor.zAncillas();
        for (std::size_t i = 0; i < list.size(); ++i) {
            for (const Coord dq : lattice.stabilizerSupport(list[i]))
                if (dq == data)
                    out.insert(i);
        }
        return out;
    }

    Lattice lattice;
    RoundSchedule schedule;
    SyndromeExtractor extractor;
};

TEST_F(ExtractorTest, NoiselessRoundIsClean)
{
    PauliFrame frame(lattice.numQubits());
    const SyndromeRound round = extractor.runRound(frame, nullptr);
    EXPECT_FALSE(round.any());
}

TEST_F(ExtractorTest, SingleXErrorFlipsAdjacentZChecks)
{
    for (const Coord data : lattice.sites(SiteType::Data)) {
        PauliFrame frame(lattice.numQubits());
        frame.injectX(lattice.index(data));
        const SyndromeRound round = extractor.runRound(frame, nullptr);

        const auto expected = expectedChecks(data, SiteType::ZAncilla);
        for (std::size_t i = 0; i < round.zFlips.size(); ++i) {
            EXPECT_EQ(bool(round.zFlips[i]), expected.contains(i))
                << "data (" << data.row << "," << data.col
                << ") z-check " << i;
        }
        // X errors never flip X checks.
        for (const auto f : round.xFlips)
            EXPECT_EQ(f, 0);
    }
}

TEST_F(ExtractorTest, SingleZErrorFlipsAdjacentXChecks)
{
    for (const Coord data : lattice.sites(SiteType::Data)) {
        PauliFrame frame(lattice.numQubits());
        frame.injectZ(lattice.index(data));
        const SyndromeRound round = extractor.runRound(frame, nullptr);

        const auto expected = expectedChecks(data, SiteType::XAncilla);
        for (std::size_t i = 0; i < round.xFlips.size(); ++i) {
            EXPECT_EQ(bool(round.xFlips[i]), expected.contains(i))
                << "data (" << data.row << "," << data.col
                << ") x-check " << i;
        }
        for (const auto f : round.zFlips)
            EXPECT_EQ(f, 0);
    }
}

TEST_F(ExtractorTest, YErrorFlipsBothCheckTypes)
{
    const Coord data{2, 2}; // interior data qubit
    PauliFrame frame(lattice.numQubits());
    frame.injectY(lattice.index(data));
    const SyndromeRound round = extractor.runRound(frame, nullptr);
    EXPECT_GT(round.weight(), 0u);

    const auto expected_z = expectedChecks(data, SiteType::ZAncilla);
    const auto expected_x = expectedChecks(data, SiteType::XAncilla);
    std::size_t z_hits = 0, x_hits = 0;
    for (std::size_t i = 0; i < round.zFlips.size(); ++i)
        if (round.zFlips[i])
            ++z_hits;
    for (std::size_t i = 0; i < round.xFlips.size(); ++i)
        if (round.xFlips[i])
            ++x_hits;
    EXPECT_EQ(z_hits, expected_z.size());
    EXPECT_EQ(x_hits, expected_x.size());
}

TEST_F(ExtractorTest, ErrorPersistsAcrossRounds)
{
    // An uncorrected error keeps reporting the same syndrome.
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{1, 1}));
    const SyndromeRound first = extractor.runRound(frame, nullptr);
    const SyndromeRound second = extractor.runRound(frame, nullptr);
    EXPECT_EQ(first.zFlips, second.zFlips);
    EXPECT_TRUE(first.any());
}

TEST_F(ExtractorTest, LogicalOperatorIsSyndromeFree)
{
    // A full logical-X chain flips no stabilizers: undetectable.
    PauliFrame frame(lattice.numQubits());
    for (const Coord c : lattice.logicalXSupport())
        frame.injectX(lattice.index(c));
    const SyndromeRound round = extractor.runRound(frame, nullptr);
    EXPECT_FALSE(round.any());
}

TEST_F(ExtractorTest, StabilizerProductIsSyndromeFree)
{
    // Applying a stabilizer itself is invisible to the code.
    PauliFrame frame(lattice.numQubits());
    const Coord check{1, 2}; // a Z ancilla
    ASSERT_EQ(lattice.siteType(check), SiteType::ZAncilla);
    for (const Coord dq : lattice.stabilizerSupport(check))
        frame.injectZ(lattice.index(dq));
    // The Z stabilizer commutes with every check: each adjacent X
    // check shares exactly two data qubits with it, so the flips
    // cancel and the whole round is silent.
    const SyndromeRound round = extractor.runRound(frame, nullptr);
    EXPECT_FALSE(round.any());
}

TEST_F(ExtractorTest, FrameMatchesTableauForSingleErrors)
{
    // Cross-validate the two execution models: inject the same
    // error, run one round on each, compare syndromes. The tableau
    // needs a stabilizing first round to fix gauge freedom.
    Rng rng(42);
    for (const Coord data : lattice.sites(SiteType::Data)) {
        Tableau tableau(lattice.numQubits());
        const SyndromeRound baseline =
            runRoundOnTableau(schedule, tableau, rng);

        quest::quantum::PauliString err(lattice.numQubits());
        err.set(lattice.index(data), quest::quantum::Pauli::X);
        tableau.applyPauli(err);
        const SyndromeRound after =
            runRoundOnTableau(schedule, tableau, rng);

        PauliFrame frame(lattice.numQubits());
        frame.injectX(lattice.index(data));
        const SyndromeRound frame_round =
            extractor.runRound(frame, nullptr);

        // Tableau flip = XOR against its own baseline.
        for (std::size_t i = 0; i < after.zFlips.size(); ++i) {
            ASSERT_EQ(after.zFlips[i] ^ baseline.zFlips[i],
                      frame_round.zFlips[i])
                << "data (" << data.row << "," << data.col << ")";
        }
    }
}

TEST_F(ExtractorTest, NoisyRoundsProduceSyndromes)
{
    Rng rng(7);
    ErrorChannel channel(ErrorRates::uniform(0.05), rng);
    PauliFrame frame(lattice.numQubits());
    std::size_t total = 0;
    for (int r = 0; r < 50; ++r)
        total += extractor.runRound(frame, &channel).weight();
    EXPECT_GT(total, 0u);
}

/** `base` with every uop addressed to the listed qubits blanked. */
RoundSchedule
blankedCopy(const RoundSchedule &base,
            const std::set<std::size_t> &qubits)
{
    RoundSchedule out(base.lattice(), base.spec());
    for (std::size_t s = 0; s < base.depth(); ++s) {
        SubCycle sc = base.subCycle(s);
        for (const std::size_t q : qubits)
            sc.uops[q] = quest::isa::PhysOpcode::Nop;
        out.addSubCycle(std::move(sc));
    }
    return out;
}

TEST_F(ExtractorTest, RecompileFollowsInPlaceScheduleEdit)
{
    // Blank the whole program in place: after recompile() the same
    // extractor object must run the edited schedule, not the one it
    // was built from; restoring the schedule restores detection.
    const RoundSchedule original = schedule;
    std::set<std::size_t> all;
    for (std::size_t q = 0; q < lattice.numQubits(); ++q)
        all.insert(q);
    const std::size_t data = lattice.index(Coord{2, 2});

    schedule = blankedCopy(original, all);
    extractor.recompile();
    PauliFrame frame(lattice.numQubits());
    frame.injectX(data);
    EXPECT_FALSE(extractor.runRound(frame, nullptr).any());

    schedule = original;
    extractor.recompile();
    EXPECT_TRUE(extractor.runRound(frame, nullptr).any());
}

TEST_F(ExtractorTest, RecompiledMatchesFreshExtractor)
{
    // An in-place edit plus recompile() must compile exactly the
    // program a fresh extractor builds: same noise draws, same flips.
    const std::set<std::size_t> masked{
        lattice.index(extractor.zAncillas().front()),
        lattice.index(extractor.xAncillas().back())};
    const RoundSchedule edited = blankedCopy(schedule, masked);
    const SyndromeExtractor fresh(edited);
    schedule = edited;
    extractor.recompile();

    Rng rng_a(11), rng_b(11);
    ErrorChannel chan_a(ErrorRates::uniform(0.02), rng_a);
    ErrorChannel chan_b(ErrorRates::uniform(0.02), rng_b);
    PauliFrame frame_a(lattice.numQubits());
    PauliFrame frame_b(lattice.numQubits());
    for (int r = 0; r < 40; ++r) {
        const SyndromeRound a = extractor.runRound(frame_a, &chan_a);
        const SyndromeRound b = fresh.runRound(frame_b, &chan_b);
        ASSERT_EQ(a.xFlips, b.xFlips) << "round " << r;
        ASSERT_EQ(a.zFlips, b.zFlips) << "round " << r;
    }
}

TEST_F(ExtractorTest, RecompileWithoutEditIsIdempotent)
{
    // Recompiling an unchanged schedule (twice) must neither duplicate
    // nor reorder ops: the noisy syndrome stream stays bit-identical.
    const SyndromeExtractor reference(schedule);
    extractor.recompile();
    extractor.recompile();

    Rng rng_a(5), rng_b(5);
    ErrorChannel chan_a(ErrorRates::uniform(0.02), rng_a);
    ErrorChannel chan_b(ErrorRates::uniform(0.02), rng_b);
    PauliFrame frame_a(lattice.numQubits());
    PauliFrame frame_b(lattice.numQubits());
    const auto a = extractor.runRounds(frame_a, &chan_a, 40);
    const auto b = reference.runRounds(frame_b, &chan_b, 40);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].xFlips, b[r].xFlips) << "round " << r;
        EXPECT_EQ(a[r].zFlips, b[r].zFlips) << "round " << r;
    }
}

TEST(ExtractorProtocols, AllProtocolsDetectSingleError)
{
    const Lattice lattice = Lattice::forDistance(3);
    for (Protocol p :
         { Protocol::Steane, Protocol::Shor, Protocol::SC17,
           Protocol::SC13 }) {
        const RoundSchedule sched =
            buildRoundSchedule(lattice, protocolSpec(p));
        const SyndromeExtractor ext(sched);
        PauliFrame frame(lattice.numQubits());
        frame.injectX(lattice.index(Coord{2, 2}));
        EXPECT_TRUE(ext.runRound(frame, nullptr).any())
            << protocolName(p);
    }
}

/**
 * The per-uop interpreter the lockstep engine replaced, kept as the
 * reference: every uop of every sub-cycle in qubit order, each gate
 * followed at once by its noise, after one idle channel per data
 * qubit.
 */
SyndromeRound
referenceRound(const RoundSchedule &sched, const SyndromeExtractor &ext,
               PauliFrame &frame, ErrorChannel *channel)
{
    const Lattice &lat = sched.lattice();
    SyndromeRound out;
    out.xFlips.assign(ext.xAncillas().size(), 0);
    out.zFlips.assign(ext.zAncillas().size(), 0);
    std::vector<int> slot(lat.numQubits(), -1);
    for (std::size_t i = 0; i < ext.xAncillas().size(); ++i)
        slot[lat.index(ext.xAncillas()[i])] = int(i);
    for (std::size_t i = 0; i < ext.zAncillas().size(); ++i)
        slot[lat.index(ext.zAncillas()[i])] = int(i);

    if (channel)
        for (const Coord c : lat.sites(SiteType::Data))
            channel->idle(frame, lat.index(c));

    for (std::size_t s = 0; s < sched.depth(); ++s) {
        const SubCycle &sc = sched.subCycle(s);
        for (std::size_t q = 0; q < sc.uops.size(); ++q) {
            const PhysOpcode op = sc.uops[q];
            switch (op) {
              case PhysOpcode::PrepZ:
              case PhysOpcode::PrepX:
                frame.reset(q);
                if (op == PhysOpcode::PrepX)
                    frame.h(q);
                if (channel)
                    channel->afterPrep(frame, q);
                break;
              case PhysOpcode::MeasX:
              case PhysOpcode::MeasZ: {
                if (op == PhysOpcode::MeasX)
                    frame.h(q);
                bool flip = frame.measureZFlip(q);
                if (channel && channel->measurementFlip())
                    flip = !flip;
                const bool x_anc =
                    lat.siteType(lat.coord(q)) == SiteType::XAncilla;
                (x_anc ? out.xFlips : out.zFlips)[std::size_t(slot[q])] =
                    flip ? 1 : 0;
                break;
              }
              default:
                if (!quest::isa::isTwoQubit(op))
                    break; // Nop, dressing and Verify slots
                const std::size_t n = lat.index(
                    *lat.neighbour(lat.coord(q), cnotDirection(op)));
                const bool control = op == cnotOpcode(cnotDirection(op));
                const std::size_t c = control ? q : n;
                const std::size_t t = control ? n : q;
                frame.cnot(c, t);
                if (channel)
                    channel->afterGate2(frame, c, t);
                break;
            }
        }
    }
    return out;
}

/** `base` with every uop addressed to a qubit of `masked` blanked. */
RoundSchedule
maskedCopy(const RoundSchedule &base, const std::vector<bool> &masked)
{
    RoundSchedule out(base.lattice(), base.spec());
    for (std::size_t s = 0; s < base.depth(); ++s) {
        SubCycle sc = base.subCycle(s);
        for (std::size_t q = 0; q < sc.uops.size(); ++q)
            if (masked[q])
                sc.uops[q] = PhysOpcode::Nop;
        out.addSubCycle(std::move(sc));
    }
    return out;
}

/** Random masks: none, a few logical qubits' footprints, or noise. */
std::vector<bool>
randomMask(const Lattice &lat, Rng &rng, int kind)
{
    std::vector<bool> masked(lat.numQubits(), false);
    if (kind == 1) {
        for (int k = 0; k < 3; ++k) {
            const Coord anchor{int(rng.uniformInt(lat.rows())),
                               int(rng.uniformInt(lat.cols()))};
            const LogicalQubit lq(lat, anchor, 2);
            if (lq.fits())
                for (const std::size_t q : lq.footprint())
                    masked[q] = true;
        }
    } else if (kind == 2) {
        for (std::size_t q = 0; q < lat.numQubits(); ++q)
            masked[q] = rng.bernoulli(0.2);
    }
    return masked;
}

TEST(ExtractorLockstep, MatchesPerUopReferenceUnderFuzz)
{
    // Column counts around the 64-bit word size make the +-1 and
    // +-cols shifts cross word boundaries at every bit offset.
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {5, 5}, {9, 9}, {5, 63}, {5, 64}, {4, 65}, {3, 129}};
    const ErrorRates rate_sets[] = {
        ErrorRates::none(), ErrorRates::uniform(1e-3),
        ErrorRates::uniform(0.3), ErrorRates::uniform(1.0),
        ErrorRates{0.02, 0.0, 0.3, 1.0, 0.05},
        ErrorRates{-1.0, 0.5, 2.0, 0.0, 0.999}};
    const ErrorRates stretched{0.5, 0.5, 0.01, 0.2, 1.0};

    Rng fuzz(2024);
    std::size_t configs = 0;
    for (const auto &[rows, cols] : shapes) {
        const Lattice lat(rows, cols);
        for (Protocol p : {Protocol::Steane, Protocol::Shor,
                           Protocol::SC17, Protocol::SC13}) {
            const RoundSchedule base =
                buildRoundSchedule(lat, protocolSpec(p));
            for (int mask_kind = 0; mask_kind < 3; ++mask_kind) {
                const RoundSchedule sched =
                    maskedCopy(base, randomMask(lat, fuzz, mask_kind));
                const SyndromeExtractor ext(sched);
                // One pass per rate set, plus one with no channel.
                for (std::size_t r = 0; r <= std::size(rate_sets); ++r) {
                    const bool noisy = r < std::size(rate_sets);
                    const std::uint64_t seed = fuzz.next();
                    Rng rng_a(seed), rng_b(seed);
                    ErrorChannel chan_a(noisy ? rate_sets[r]
                                              : ErrorRates::none(),
                                        rng_a);
                    ErrorChannel chan_b(chan_a.rates(), rng_b);
                    PauliFrame frame_a(lat.numQubits());
                    for (std::size_t q = 0; q < lat.numQubits(); ++q)
                        frame_a.inject(q, static_cast<quest::quantum::Pauli>(
                                              fuzz.uniformInt(4)));
                    PauliFrame frame_b = frame_a;
                    ++configs;
                    for (int round = 0; round < 12; ++round) {
                        if (round == 6) { // a mid-run stretch
                            chan_a.setRates(stretched);
                            chan_b.setRates(stretched);
                        }
                        const SyndromeRound a = ext.runRound(
                            frame_a, noisy ? &chan_a : nullptr);
                        const SyndromeRound b = referenceRound(
                            sched, ext, frame_b,
                            noisy ? &chan_b : nullptr);
                        const auto where = [&] {
                            return protocolName(p) + " "
                                + std::to_string(rows) + "x"
                                + std::to_string(cols) + " mask "
                                + std::to_string(mask_kind) + " rates "
                                + std::to_string(r) + " round "
                                + std::to_string(round);
                        };
                        ASSERT_EQ(a.xFlips, b.xFlips) << where();
                        ASSERT_EQ(a.zFlips, b.zFlips) << where();
                        ASSERT_EQ(frame_a.xWords(), frame_b.xWords())
                            << where();
                        ASSERT_EQ(frame_a.zWords(), frame_b.zWords())
                            << where();
                        Rng next_a = rng_a, next_b = rng_b;
                        ASSERT_EQ(next_a.next(), next_b.next())
                            << where();
                    }
                }
            }
        }
    }
    EXPECT_EQ(configs, 6u * 4u * 3u * 7u);
}

TEST(ExtractorLockstep, BatchCountsOneWordUopPerSiteAndDataQubit)
{
    // d=3 Steane: 12 preps, 40 CNOTs (the ancillas' stabilizer
    // supports: eight of weight 3, four of weight 4), 12
    // measurements, plus one idle channel for each of 13 data qubits.
    const Lattice lat = Lattice::forDistance(3);
    const RoundSchedule sched =
        buildRoundSchedule(lat, protocolSpec(Protocol::Steane));
    const SyndromeExtractor ext(sched);
    std::size_t support = 0;
    for (const Coord c : lat.sites(SiteType::XAncilla))
        support += lat.stabilizerSupport(c).size();
    for (const Coord c : lat.sites(SiteType::ZAncilla))
        support += lat.stabilizerSupport(c).size();
    ASSERT_EQ(support, 40u);

    auto &word_uops = quest::sim::metrics::Registry::global().counter(
        "qecc.batch.word_uops", "");
    const std::uint64_t before = word_uops.value();
    BatchPauliFrame frame(lat.numQubits());
    BatchErrorChannel channel(ErrorRates::uniform(0.01), 3, 0);
    (void)ext.runRoundBatch(frame, &channel);
    (void)ext.runRoundBatch(frame, nullptr);
    EXPECT_EQ(word_uops.value() - before, 2u * 77u);
}

} // namespace
