/**
 * @file
 * Unit and property tests for the CHP stabilizer simulator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "quantum/tableau.hpp"
#include "sim/random.hpp"

namespace {

using namespace quest::quantum;
using quest::sim::Rng;

TEST(Tableau, InitialStateIsAllZeros)
{
    Tableau t(4);
    Rng rng(1);
    for (std::size_t q = 0; q < 4; ++q) {
        EXPECT_EQ(t.peekZ(q), 0);
        EXPECT_FALSE(t.measureZ(q, rng));
    }
}

TEST(Tableau, XFlipsMeasurement)
{
    Tableau t(2);
    Rng rng(1);
    t.x(0);
    EXPECT_TRUE(t.measureZ(0, rng));
    EXPECT_FALSE(t.measureZ(1, rng));
}

TEST(Tableau, ZDoesNotAffectZBasis)
{
    Tableau t(1);
    Rng rng(1);
    t.z(0);
    EXPECT_FALSE(t.measureZ(0, rng));
}

TEST(Tableau, HadamardCreatesRandomOutcome)
{
    Rng rng(5);
    int ones = 0;
    const int trials = 200;
    for (int i = 0; i < trials; ++i) {
        Tableau t(1);
        t.h(0);
        EXPECT_EQ(t.peekZ(0), -1); // undetermined
        if (t.measureZ(0, rng))
            ++ones;
    }
    EXPECT_GT(ones, trials / 4);
    EXPECT_LT(ones, 3 * trials / 4);
}

TEST(Tableau, MeasurementCollapsesState)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        Tableau t(1);
        t.h(0);
        const bool first = t.measureZ(0, rng);
        // Once collapsed, repeated measurement is deterministic.
        for (int k = 0; k < 3; ++k)
            ASSERT_EQ(t.measureZ(0, rng), first);
    }
}

TEST(Tableau, HZHEqualsX)
{
    Tableau t(1);
    Rng rng(1);
    t.h(0);
    t.z(0);
    t.h(0);
    EXPECT_TRUE(t.measureZ(0, rng));
}

TEST(Tableau, SSEqualsZ)
{
    // S^2 |+> = Z |+> = |->; H maps it back to |1>.
    Tableau t(1);
    Rng rng(1);
    t.h(0);
    t.s(0);
    t.s(0);
    t.h(0);
    EXPECT_TRUE(t.measureZ(0, rng));
}

TEST(Tableau, SdgUndoesS)
{
    Tableau t(1);
    Rng rng(1);
    t.h(0);
    t.s(0);
    t.sdg(0);
    t.h(0);
    EXPECT_FALSE(t.measureZ(0, rng));
}

TEST(Tableau, CnotCopiesInComputationalBasis)
{
    Tableau t(2);
    Rng rng(1);
    t.x(0);
    t.cnot(0, 1);
    EXPECT_TRUE(t.measureZ(0, rng));
    EXPECT_TRUE(t.measureZ(1, rng));
}

TEST(Tableau, BellPairCorrelations)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        Tableau t(2);
        t.h(0);
        t.cnot(0, 1);
        // Bell state stabilized by XX and ZZ.
        EXPECT_EQ(t.expectation(PauliString::fromString("XX")), 1);
        EXPECT_EQ(t.expectation(PauliString::fromString("ZZ")), 1);
        EXPECT_EQ(t.expectation(PauliString::fromString("ZI")), 0);
        const bool a = t.measureZ(0, rng);
        const bool b = t.measureZ(1, rng);
        ASSERT_EQ(a, b);
    }
}

TEST(Tableau, GhzStateStabilizers)
{
    Tableau t(3);
    t.h(0);
    t.cnot(0, 1);
    t.cnot(0, 2);
    EXPECT_EQ(t.expectation(PauliString::fromString("XXX")), 1);
    EXPECT_EQ(t.expectation(PauliString::fromString("ZZI")), 1);
    EXPECT_EQ(t.expectation(PauliString::fromString("IZZ")), 1);
    EXPECT_EQ(t.expectation(PauliString::fromString("ZII")), 0);
    // -XXX is an anti-stabilizer.
    EXPECT_EQ(t.expectation(PauliString::fromString("-XXX")), -1);
}

TEST(Tableau, CzMatchesHCnotH)
{
    // CZ|+1> should phase-flip: H on qubit 0 then measure gives 1.
    Tableau t(2);
    Rng rng(1);
    t.h(0);
    t.x(1);
    t.cz(0, 1);
    t.h(0);
    EXPECT_TRUE(t.measureZ(0, rng));
}

TEST(Tableau, SwapExchangesStates)
{
    Tableau t(2);
    Rng rng(1);
    t.x(0);
    t.swapQubits(0, 1);
    EXPECT_FALSE(t.measureZ(0, rng));
    EXPECT_TRUE(t.measureZ(1, rng));
}

TEST(Tableau, ResetReturnsToZero)
{
    Rng rng(11);
    for (int i = 0; i < 20; ++i) {
        Tableau t(2);
        t.h(0);
        t.cnot(0, 1);
        t.reset(0, rng);
        EXPECT_FALSE(t.measureZ(0, rng));
    }
}

TEST(Tableau, ApplyPauliMatchesIndividualGates)
{
    Tableau a(3), b(3);
    Rng rng(1);
    a.applyPauli(PauliString::fromString("XYZ"));
    b.x(0);
    b.y(1);
    b.z(2);
    for (std::size_t q = 0; q < 3; ++q)
        EXPECT_EQ(a.peekZ(q), b.peekZ(q));
}

/** Property: invariants hold under random Clifford circuits. */
TEST(TableauProperty, InvariantsUnderRandomCircuits)
{
    Rng rng(1234);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 2 + rng.uniformInt(6);
        Tableau t(n);
        for (int g = 0; g < 60; ++g) {
            switch (rng.uniformInt(5)) {
              case 0: t.h(rng.uniformInt(n)); break;
              case 1: t.s(rng.uniformInt(n)); break;
              case 2: {
                std::size_t a = rng.uniformInt(n);
                std::size_t b = rng.uniformInt(n);
                if (a != b)
                    t.cnot(a, b);
                break;
              }
              case 3: t.x(rng.uniformInt(n)); break;
              case 4: t.measureZ(rng.uniformInt(n), rng); break;
            }
        }
        ASSERT_TRUE(t.checkInvariants()) << "trial " << trial;
    }
}

/**
 * The word-parallel kernels must behave identically when the 2n+
 * generator rows span several 64-bit words (n > 32 crosses the row
 * word boundary; n = 70 also exercises a partially filled top word
 * and the destabilizer->stabilizer mask shift with a non-zero bit
 * offset).
 */
TEST(TableauProperty, InvariantsAcrossWordBoundaries)
{
    Rng rng(4321);
    for (const std::size_t n : { 32u, 33u, 64u, 70u }) {
        Tableau t(n);
        for (int g = 0; g < 400; ++g) {
            switch (rng.uniformInt(6)) {
              case 0: t.h(rng.uniformInt(n)); break;
              case 1: t.s(rng.uniformInt(n)); break;
              case 2: {
                std::size_t a = rng.uniformInt(n);
                std::size_t b = rng.uniformInt(n);
                if (a != b)
                    t.cnot(a, b);
                break;
              }
              case 3: t.x(rng.uniformInt(n)); break;
              case 4: t.measureZ(rng.uniformInt(n), rng); break;
              case 5: {
                const std::size_t q = rng.uniformInt(n);
                const int peek = t.peekZ(q);
                if (peek >= 0) {
                    ASSERT_EQ(t.measureZ(q, rng) ? 1 : 0, peek);
                }
                break;
              }
            }
        }
        ASSERT_TRUE(t.checkInvariants()) << "n=" << n;
        // Every stabilizer generator has expectation +1 by
        // definition; its negation -1 (exercises the word-parallel
        // selected-product phase fold at every size).
        for (std::size_t i = 0; i < n; ++i) {
            PauliString s = t.stabilizer(i);
            ASSERT_EQ(t.expectation(s), 1) << "n=" << n;
            s.setPhaseExponent((s.phaseExponent() + 2) & 3u);
            ASSERT_EQ(t.expectation(s), -1) << "n=" << n;
        }
    }
}

/**
 * expectation() is const and copy-free: many threads hammering the
 * same shared tableau must each get the right answer (the working
 * buffers are thread_local scratch, not a tableau copy, so this
 * also guards against any future regression that adds shared
 * mutable state to the read path).
 */
TEST(Tableau, ExpectationConcurrentOnSharedTableau)
{
    const std::size_t n = 70;
    Tableau t(n);
    Rng rng(99);
    for (int g = 0; g < 300; ++g) {
        switch (rng.uniformInt(4)) {
          case 0: t.h(rng.uniformInt(n)); break;
          case 1: t.s(rng.uniformInt(n)); break;
          case 2: {
            std::size_t a = rng.uniformInt(n);
            std::size_t b = rng.uniformInt(n);
            if (a != b)
                t.cnot(a, b);
            break;
          }
          case 3: t.x(rng.uniformInt(n)); break;
        }
    }

    // Expected answers computed single-threaded first.
    std::vector<PauliString> probes;
    std::vector<int> want;
    for (std::size_t i = 0; i < n; ++i) {
        probes.push_back(t.stabilizer(i));
        want.push_back(1);
        PauliString neg = t.stabilizer(i);
        neg.setPhaseExponent((neg.phaseExponent() + 2) & 3u);
        probes.push_back(neg);
        want.push_back(-1);
        probes.push_back(t.destabilizer(i));
        want.push_back(t.expectation(t.destabilizer(i)));
    }

    const Tableau &shared = t;
    std::vector<std::thread> workers;
    std::vector<int> bad(8, 0);
    for (int w = 0; w < 8; ++w) {
        workers.emplace_back([&, w] {
            for (int rep = 0; rep < 20; ++rep)
                for (std::size_t i = 0; i < probes.size(); ++i)
                    if (shared.expectation(probes[i]) != want[i])
                        ++bad[std::size_t(w)];
        });
    }
    for (auto &th : workers)
        th.join();
    for (int w = 0; w < 8; ++w)
        EXPECT_EQ(bad[std::size_t(w)], 0) << "worker " << w;
}

/** One golden measurement circuit and its recorded results. */
struct GoldenCircuit
{
    std::size_t n;
    std::vector<std::uint64_t> outcomes; ///< packed measureZ results
    std::uint64_t digest; ///< FNV-1a of every generator's string
};

/**
 * Seeded random Clifford + Z-measurement circuits at sizes that
 * straddle the 64-bit row-word boundary. The expected outcome words
 * and generator digests were recorded from the dispatched AVX-512,
 * AVX2 and portable SIMD kernels (identical on all three) that the
 * plain word loops replaced, so the loops are held bit-identical to
 * them: any change to a gate, the pivot search or the collapse
 * cascade moves an outcome or the digest.
 */
TEST(TableauGolden, MeasurementCircuitsMatchRecordedResults)
{
    const std::vector<GoldenCircuit> golden = {
        { 31,
          { 0x20a507c6a4360108ull, 0x3c359a219a368bf2ull,
            0x0015f2fe2106c102ull },
          0x97f4793e20e531c3ull },
        { 32,
          { 0x77dfacd261618000ull, 0x18c29e03dee42da7ull,
            0xf9af28f88d8760aaull, 0x000000000007d7bbull },
          0x17ae7c8e7b07ef21ull },
        { 33,
          { 0x8661f21303500000ull, 0x175d5286ad1b2778ull,
            0x06b57209033ae055ull },
          0x6d5d6f07b82aef9full },
        { 64,
          { 0xc241a0a242e40800ull, 0xcfd48572a17d2426ull,
            0xe0233dd95e68dbb2ull, 0x000000000000154cull },
          0xba0b048d9ae263efull },
        { 65,
          { 0x800c860928014020ull, 0x8e200840107c0533ull,
            0x42bee856824463caull, 0x000000000000914full },
          0x3a8061bcdb86b8e1ull },
        { 70,
          { 0xb0482800d8000000ull, 0xae4a561d3382d4caull,
            0x7d9f1d668b9ee27eull, 0x000000000b82b4f7ull },
          0x7376401cf99f9286ull },
        { 169,
          { 0x1224082901220000ull, 0x7af80782ece4b081ull,
            0x487cac53d0b48625ull, 0x00000000002d184cull },
          0xd33d7a1320e4b0f7ull },
    };
    for (const GoldenCircuit &want : golden) {
        const std::size_t n = want.n;
        Rng rng(0x51D3Dull + n);
        Tableau t(n);
        std::vector<std::uint64_t> outcomes;
        std::size_t nm = 0;
        for (int g = 0; g < 600; ++g) {
            switch (rng.uniformInt(6)) {
              case 0: t.h(rng.uniformInt(n)); break;
              case 1: t.s(rng.uniformInt(n)); break;
              case 2: {
                const std::size_t a = rng.uniformInt(n);
                const std::size_t b = rng.uniformInt(n);
                if (a != b)
                    t.cnot(a, b);
                break;
              }
              case 3: t.x(rng.uniformInt(n)); break;
              case 4:
              case 5: {
                const bool o = t.measureZ(rng.uniformInt(n), rng);
                if (nm % 64 == 0)
                    outcomes.push_back(0);
                outcomes.back() |= std::uint64_t(o) << (nm % 64);
                ++nm;
                break;
              }
            }
        }
        ASSERT_TRUE(t.checkInvariants()) << "n=" << n;

        std::uint64_t digest = 14695981039346656037ull;
        const auto mix = [&digest](const std::string &str) {
            for (const unsigned char c : str + '\n') {
                digest ^= c;
                digest *= 1099511628211ull;
            }
        };
        for (std::size_t i = 0; i < n; ++i) {
            mix(t.stabilizer(i).toString());
            mix(t.destabilizer(i).toString());
        }
        EXPECT_EQ(outcomes, want.outcomes) << "n=" << n;
        EXPECT_EQ(digest, want.digest) << "n=" << n;
    }
}

/**
 * projectZ forces a chosen outcome on a random qubit (collapsing
 * it) and refuses to touch a deterministic one.
 */
TEST(Tableau, ProjectZForcesRandomOutcomes)
{
    Tableau t(3);
    // |0>: deterministic, projectZ is a no-op either way.
    EXPECT_FALSE(t.projectZ(0, true));
    EXPECT_EQ(t.peekZ(0), 0);

    // Superpose and force |1>.
    t.h(0);
    EXPECT_EQ(t.peekZ(0), -1);
    EXPECT_TRUE(t.projectZ(0, true));
    EXPECT_EQ(t.peekZ(0), 1);

    // Entangled pair: forcing one side pins the other.
    t.h(1);
    t.cnot(1, 2);
    EXPECT_TRUE(t.projectZ(1, false));
    EXPECT_EQ(t.peekZ(1), 0);
    EXPECT_EQ(t.peekZ(2), 0);
    ASSERT_TRUE(t.checkInvariants());
}

/** @return the n-qubit Pauli with `ops` on the given qubits. */
PauliString
sparsePauli(std::size_t n,
            std::initializer_list<std::pair<std::size_t, Pauli>> ops,
            bool negative = false)
{
    PauliString p(n);
    for (const auto &[q, op] : ops)
        p.set(q, op);
    p.setPhaseExponent(negative ? 2 : 0);
    return p;
}

/**
 * Every gate conjugates the generators of a qubit in the top row
 * word exactly as its Clifford table says. At n = 65 qubit 64's
 * destabilizer row (64) and stabilizer row (129) sit in different
 * words, and its stabilizer row is in the partially filled top
 * word, so a loop that stops a word short or masks the wrong tail
 * moves a generator or a sign.
 */
TEST(Tableau, GatesConjugateGeneratorsInTheTopRowWord)
{
    const std::size_t n = 65, q = 64, c = 0;
    struct Case
    {
        const char *gate;
        void (*apply)(Tableau &);
        PauliString stab, destab;
    };
    const std::vector<Case> cases = {
        { "h", [](Tableau &t) { t.h(q); },
          sparsePauli(n, { { q, Pauli::X } }),
          sparsePauli(n, { { q, Pauli::Z } }) },
        { "s", [](Tableau &t) { t.s(q); },
          sparsePauli(n, { { q, Pauli::Z } }),
          sparsePauli(n, { { q, Pauli::Y } }) },
        { "sdg", [](Tableau &t) { t.sdg(q); },
          sparsePauli(n, { { q, Pauli::Z } }),
          sparsePauli(n, { { q, Pauli::Y } }, true) },
        // After H the stabilizer row (top word) carries the X bit.
        { "h,s", [](Tableau &t) { t.h(q); t.s(q); },
          sparsePauli(n, { { q, Pauli::Y } }),
          sparsePauli(n, { { q, Pauli::Z } }) },
        { "h,sdg", [](Tableau &t) { t.h(q); t.sdg(q); },
          sparsePauli(n, { { q, Pauli::Y } }, true),
          sparsePauli(n, { { q, Pauli::Z } }) },
        { "x", [](Tableau &t) { t.x(q); },
          sparsePauli(n, { { q, Pauli::Z } }, true),
          sparsePauli(n, { { q, Pauli::X } }) },
        { "y", [](Tableau &t) { t.y(q); },
          sparsePauli(n, { { q, Pauli::Z } }, true),
          sparsePauli(n, { { q, Pauli::X } }, true) },
        { "z", [](Tableau &t) { t.z(q); },
          sparsePauli(n, { { q, Pauli::Z } }),
          sparsePauli(n, { { q, Pauli::X } }, true) },
        // CNOT(c, q): Z_q -> Z_c Z_q; X_q is unchanged.
        { "cnot", [](Tableau &t) { t.cnot(c, q); },
          sparsePauli(n, { { c, Pauli::Z }, { q, Pauli::Z } }),
          sparsePauli(n, { { q, Pauli::X } }) },
        // CNOT(q, c): Z_q is unchanged; X_q -> X_q X_c.
        { "cnot_rev", [](Tableau &t) { t.cnot(q, c); },
          sparsePauli(n, { { q, Pauli::Z } }),
          sparsePauli(n, { { c, Pauli::X }, { q, Pauli::X } }) },
        // CZ: X_q -> Z_c X_q.
        { "cz", [](Tableau &t) { t.cz(c, q); },
          sparsePauli(n, { { q, Pauli::Z } }),
          sparsePauli(n, { { c, Pauli::Z }, { q, Pauli::X } }) },
    };
    for (const Case &k : cases) {
        Tableau t(n);
        k.apply(t);
        EXPECT_EQ(t.stabilizer(q).toString(), k.stab.toString())
            << k.gate;
        EXPECT_EQ(t.destabilizer(q).toString(), k.destab.toString())
            << k.gate;
        ASSERT_TRUE(t.checkInvariants()) << k.gate;
    }
}

/**
 * Every gate is an exact conjugation, signs included: a random
 * circuit followed by its inverse in reverse order returns all 2n
 * generators to +Z_i / +X_i, at sizes whose rows straddle a word.
 */
TEST(TableauProperty, InverseCircuitRestoresTheInitialTableau)
{
    Rng rng(2468);
    for (const std::size_t n : { 31u, 32u, 33u, 64u, 65u, 70u }) {
        struct Gate
        {
            int kind;
            std::size_t a, b;
        };
        std::vector<Gate> circuit;
        for (int g = 0; g < 300; ++g) {
            const std::size_t a = rng.uniformInt(n);
            const std::size_t b = (a + 1 + rng.uniformInt(n - 1)) % n;
            circuit.push_back({ int(rng.uniformInt(9)), a, b });
        }
        Tableau t(n);
        auto apply = [&t](const Gate &g, bool inverse) {
            switch (g.kind) {
              case 0: t.h(g.a); break;
              case 1: inverse ? t.sdg(g.a) : t.s(g.a); break;
              case 2: inverse ? t.s(g.a) : t.sdg(g.a); break;
              case 3: t.x(g.a); break;
              case 4: t.y(g.a); break;
              case 5: t.z(g.a); break;
              case 6: t.cnot(g.a, g.b); break;
              case 7: t.cz(g.a, g.b); break;
              case 8: t.swapQubits(g.a, g.b); break;
            }
        };
        for (const Gate &g : circuit)
            apply(g, false);
        ASSERT_TRUE(t.checkInvariants()) << "n=" << n;
        for (auto it = circuit.rbegin(); it != circuit.rend(); ++it)
            apply(*it, true);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(t.stabilizer(i).toString(),
                      sparsePauli(n, { { i, Pauli::Z } }).toString())
                << "n=" << n << " i=" << i;
            ASSERT_EQ(t.destabilizer(i).toString(),
                      sparsePauli(n, { { i, Pauli::X } }).toString())
                << "n=" << n << " i=" << i;
        }
    }
}

/**
 * expectation() of a product of several stabilizer generators is
 * +1 (the partner-row mask selects many rows across words), and
 * multiplying in a destabilizer makes it anticommute with one
 * generator, so its expectation is 0.
 */
TEST(TableauProperty, ExpectationOfStabilizerProductsAcrossWordBoundaries)
{
    Rng rng(1357);
    for (const std::size_t n : { 31u, 32u, 33u, 64u, 65u, 70u }) {
        Tableau t(n);
        for (int g = 0; g < 400; ++g) {
            switch (rng.uniformInt(5)) {
              case 0: t.h(rng.uniformInt(n)); break;
              case 1: t.s(rng.uniformInt(n)); break;
              case 2: {
                const std::size_t a = rng.uniformInt(n);
                t.cnot(a, (a + 1 + rng.uniformInt(n - 1)) % n);
                break;
              }
              case 3: t.y(rng.uniformInt(n)); break;
              case 4: t.measureZ(rng.uniformInt(n), rng); break;
            }
        }
        for (int trial = 0; trial < 20; ++trial) {
            PauliString product(n);
            for (std::size_t i = 0; i < n; ++i)
                if (rng.uniformInt(2))
                    product *= t.stabilizer(i);
            ASSERT_EQ(t.expectation(product), 1)
                << "n=" << n << " trial " << trial;
            PauliString negated = product;
            negated.setPhaseExponent(
                (negated.phaseExponent() + 2) & 3u);
            ASSERT_EQ(t.expectation(negated), -1)
                << "n=" << n << " trial " << trial;
            product *= t.destabilizer(rng.uniformInt(n));
            ASSERT_EQ(t.expectation(product), 0)
                << "n=" << n << " trial " << trial;
        }
    }
}

/**
 * Measuring one qubit of an n-qubit GHZ state collapses every
 * other qubit onto the same outcome: the rowsum cascade must reach
 * rows in every word of the tableau.
 */
TEST(Tableau, GhzCollapseReachesEveryRowWord)
{
    Rng rng(8642);
    for (const std::size_t n : { 33u, 64u, 65u, 70u }) {
        for (const std::size_t measured : { std::size_t(0), n - 1 }) {
            Tableau t(n);
            t.h(0);
            for (std::size_t q = 1; q < n; ++q)
                t.cnot(0, q);
            PauliString all_x(n);
            for (std::size_t q = 0; q < n; ++q) {
                ASSERT_EQ(t.peekZ(q), -1) << "n=" << n;
                all_x.set(q, Pauli::X);
            }
            EXPECT_EQ(t.expectation(all_x), 1) << "n=" << n;
            EXPECT_EQ(t.expectation(sparsePauli(
                          n, { { 0, Pauli::Z }, { n - 1, Pauli::Z } })),
                      1)
                << "n=" << n;

            const int outcome = t.measureZ(measured, rng) ? 1 : 0;
            for (std::size_t q = 0; q < n; ++q)
                ASSERT_EQ(t.peekZ(q), outcome)
                    << "n=" << n << " measured " << measured
                    << " q=" << q;
            EXPECT_EQ(t.expectation(all_x), 0) << "n=" << n;
            ASSERT_TRUE(t.checkInvariants()) << "n=" << n;
        }
    }
}

/** Property: peekZ predicts measureZ whenever deterministic. */
TEST(TableauProperty, PeekPredictsMeasurement)
{
    Rng rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 2 + rng.uniformInt(4);
        Tableau t(n);
        for (int g = 0; g < 30; ++g) {
            switch (rng.uniformInt(4)) {
              case 0: t.h(rng.uniformInt(n)); break;
              case 1: t.s(rng.uniformInt(n)); break;
              case 2: {
                std::size_t a = rng.uniformInt(n);
                std::size_t b = rng.uniformInt(n);
                if (a != b)
                    t.cnot(a, b);
                break;
              }
              case 3: t.x(rng.uniformInt(n)); break;
            }
        }
        const std::size_t q = rng.uniformInt(n);
        const int peek = t.peekZ(q);
        const bool outcome = t.measureZ(q, rng);
        if (peek >= 0) {
            ASSERT_EQ(outcome ? 1 : 0, peek);
        }
    }
}

} // namespace
