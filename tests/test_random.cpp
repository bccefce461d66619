/**
 * @file
 * Unit and statistical tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/batch_random.hpp"
#include "sim/random.hpp"

namespace {

using quest::sim::BatchRng;
using quest::sim::BernoulliRate;
using quest::sim::Rng;

TEST(Random, SameSeedSameSequence)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Random, ReseedRestoresSequence)
{
    Rng a(99);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next());
    a.seed(99);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), first[std::size_t(i)]);
}

TEST(Random, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Random, UniformIntRespectsBound)
{
    Rng rng(3);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(10)];
    for (int c : counts)
        EXPECT_NEAR(double(c) / n, 0.1, 0.01);
}

TEST(Random, BernoulliMatchesProbability)
{
    Rng rng(11);
    const int n = 200000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Random, BernoulliEdgeCases)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        EXPECT_FALSE(rng.bernoulli(-1.0));
        EXPECT_TRUE(rng.bernoulli(2.0));
    }
}

TEST(Random, BernoulliRateMatchesBernoulliDrawForDraw)
{
    // The integer-threshold form must agree with the double compare
    // on every draw, including where the two could round apart: the
    // smallest step 2^-53, exact multiples k * 2^-53, 0.5, the
    // largest double below 1 and a subnormal p. Both streams must
    // also stay in lockstep (same number of draws consumed).
    const double ps[] = {
        0x1.0p-53,
        3 * 0x1.0p-53,
        12345 * 0x1.0p-53,
        0.5,
        std::nextafter(1.0, 0.0),
        std::numeric_limits<double>::denorm_min(),
        1e-3,
        0.3,
        -1.0,
        0.0,
        1.0,
        2.0,
    };
    for (const double p : ps) {
        Rng a(0xB00Cull), b(0xB00Cull);
        const BernoulliRate rate(p);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(a.bernoulli(p), b.bernoulli(rate))
                << "p=" << p << " draw " << i;
        EXPECT_EQ(a.next(), b.next()) << "p=" << p;
    }
}

TEST(Random, BernoulliRateAgreesAtTheThreshold)
{
    // Random streams almost never land on the boundary, so check it
    // directly: k = r >> 11 hits for k < ceil(p * 2^53) and misses at
    // k = ceil(p * 2^53), exactly as (k * 2^-53 < p) does.
    const double ps[] = {0x1.0p-53, 7 * 0x1.0p-53, 0.5,
                         std::nextafter(1.0, 0.0),
                         std::numeric_limits<double>::denorm_min(),
                         0.1};
    for (const double p : ps) {
        const std::uint64_t t = BernoulliRate(p).threshold();
        EXPECT_EQ(t, quest::sim::bernoulliThreshold(p));
        ASSERT_GE(t, 1u);
        EXPECT_LT(double(t - 1) * 0x1.0p-53, p) << "p=" << p;
        EXPECT_FALSE(double(t) * 0x1.0p-53 < p) << "p=" << p;
    }
    EXPECT_EQ(BernoulliRate(0.5).threshold(), std::uint64_t(1) << 52);
    EXPECT_EQ(BernoulliRate(std::nextafter(1.0, 0.0)).threshold(),
              (std::uint64_t(1) << 53) - 1);
    EXPECT_THROW(BernoulliRate(std::nan("")), quest::sim::SimError);
}

/**
 * The batch engine's compatibility contract: lane t of
 * BatchRng(seed, first) is draw-for-draw identical to
 * Rng::substream(seed, first + t). Every downstream bit-identity
 * guarantee (batched sweeps reproducing scalar sweeps) rests on
 * this.
 */
TEST(BatchRandom, LanesMatchSubstreamsRawDraws)
{
    const std::uint64_t seed = 0xFEED5EEDull;
    const std::uint64_t first = 37;
    BatchRng batch(seed, first);
    for (std::size_t t = 0; t < BatchRng::lanes; ++t) {
        Rng scalar = Rng::substream(seed, first + t);
        for (int i = 0; i < 64; ++i)
            ASSERT_EQ(batch.next(t), scalar.next())
                << "lane " << t << " draw " << i;
    }
}

TEST(BatchRandom, BernoulliMaskMatchesScalarBernoulli)
{
    const std::uint64_t seed = 0xB17Bull;
    BatchRng batch(seed, 0);
    std::vector<Rng> scalars;
    for (std::size_t t = 0; t < BatchRng::lanes; ++t)
        scalars.push_back(Rng::substream(seed, t));

    // Interleave edge cases with real probabilities: the p <= 0 and
    // p >= 1 short-circuits must not consume a draw on either side,
    // or the streams drift apart at the next real site.
    const double ps[] = { 0.3, 0.0, 1.0, 0.007, -1.0, 2.0, 0.5 };
    for (int rep = 0; rep < 50; ++rep) {
        for (const double p : ps) {
            const std::uint64_t mask = batch.bernoulliMask(p);
            for (std::size_t t = 0; t < BatchRng::lanes; ++t)
                ASSERT_EQ((mask >> t) & 1u,
                          std::uint64_t(scalars[t].bernoulli(p)))
                    << "p=" << p << " lane " << t;
        }
    }
}

TEST(BatchRandom, UniformIntMatchesScalar)
{
    const std::uint64_t seed = 0xCAFEull;
    BatchRng batch(seed, 128);
    for (std::size_t t = 0; t < BatchRng::lanes; ++t) {
        Rng scalar = Rng::substream(seed, 128 + t);
        for (const std::uint64_t bound : { 3ull, 15ull, 10ull })
            for (int i = 0; i < 20; ++i)
                ASSERT_EQ(batch.uniformInt(t, bound),
                          scalar.uniformInt(bound))
                    << "lane " << t << " bound " << bound;
    }
}

} // namespace
