/**
 * @file
 * Unit and statistical tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

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

/**
 * A batch whose first substream index is not a multiple of 64 still
 * mirrors Rng::substream(seed, first + t) lane for lane, through
 * alternating dense and sparse masks.
 */
TEST(BatchRandom, MaskLanesMirrorScalarSubstreams)
{
    const std::uint64_t seed = 0x51D3Dull;
    const std::uint64_t first = 7;
    BatchRng batch(seed, first);
    std::vector<Rng> scalars;
    for (std::size_t t = 0; t < BatchRng::lanes; ++t)
        scalars.push_back(Rng::substream(seed, first + t));
    for (int rep = 0; rep < 16; ++rep) {
        const double p = rep % 2 ? 0.5 : 3e-3;
        const std::uint64_t mask = batch.bernoulliMask(p);
        for (std::size_t t = 0; t < BatchRng::lanes; ++t)
            ASSERT_EQ((mask >> t) & 1u,
                      std::uint64_t(scalars[t].bernoulli(p)))
                << "lane " << t << " rep " << rep;
    }
}

/**
 * The lane compare at the ends of the threshold range and around
 * bit 52: p = 2^-53 (threshold 1) hits only a draw whose top 53 bits
 * are zero, p one ulp under 1 (threshold 2^53 - 1) misses only the
 * all-ones draw, and one ulp either side of 0.5 splits at bit 52.
 * Every mask must agree with the scalar bernoulli lane for lane.
 */
TEST(BatchRandom, MaskAtExtremeThresholdsMatchesScalar)
{
    const std::uint64_t seed = 0x7E57ull;
    BatchRng batch(seed, 0);
    std::vector<Rng> scalars;
    for (std::size_t t = 0; t < BatchRng::lanes; ++t)
        scalars.push_back(Rng::substream(seed, t));

    const double lowest = 0x1p-53;
    const double highest = std::nextafter(1.0, 0.0);
    const double ps[] = { lowest, highest, std::nextafter(0.5, 0.0),
                          std::nextafter(0.5, 1.0), 0x1p-52 };
    for (int rep = 0; rep < 20; ++rep) {
        for (const double p : ps) {
            const std::uint64_t mask = batch.bernoulliMask(p);
            for (std::size_t t = 0; t < BatchRng::lanes; ++t)
                ASSERT_EQ((mask >> t) & 1u,
                          std::uint64_t(scalars[t].bernoulli(p)))
                    << "p=" << p << " lane " << t << " rep " << rep;
            if (p == lowest) {
                EXPECT_EQ(mask, 0u) << "rep " << rep;
            }
            if (p == highest) {
                EXPECT_EQ(mask, ~std::uint64_t(0)) << "rep " << rep;
            }
        }
    }
}

/**
 * Every lane advances exactly one draw per mask, hit or miss: after
 * a mask no lane hits and a mask every lane hits, lane t's next raw
 * draw is the third of its scalar substream.
 */
TEST(BatchRandom, MaskAdvancesEveryLaneOncePerCall)
{
    const std::uint64_t seed = 0xAD7Aull;
    BatchRng batch(seed, 64);
    EXPECT_EQ(batch.bernoulliMask(0x1p-53), 0u);
    EXPECT_EQ(batch.bernoulliMask(std::nextafter(1.0, 0.0)),
              ~std::uint64_t(0));
    for (std::size_t t = 0; t < BatchRng::lanes; ++t) {
        Rng scalar = Rng::substream(seed, 64 + t);
        scalar.next();
        scalar.next();
        ASSERT_EQ(batch.next(t), scalar.next()) << "lane " << t;
    }
}

/**
 * Each lane is an unbiased Bernoulli(p) stream independent of its
 * neighbour: over 4096 masks at p = 0.25 every lane's hit count lies
 * within 5 sigma of 1024, and every adjacent pair hits together
 * within 5 sigma of 256 times. A stuck, shifted-off or duplicated
 * bit position fails one of the two.
 */
TEST(BatchRandom, MaskHitRateMatchesProbabilityInEveryLane)
{
    constexpr int masks = 4096;
    constexpr double p = 0.25;
    BatchRng batch(0x5747ull, 0);
    std::vector<int> hits(BatchRng::lanes, 0);
    std::vector<int> pairHits(BatchRng::lanes - 1, 0);
    for (int i = 0; i < masks; ++i) {
        const std::uint64_t mask = batch.bernoulliMask(p);
        for (std::size_t t = 0; t < BatchRng::lanes; ++t)
            hits[t] += int((mask >> t) & 1u);
        for (std::size_t t = 0; t + 1 < BatchRng::lanes; ++t)
            pairHits[t] += int((mask >> t) & (mask >> (t + 1)) & 1u);
    }
    const double sigma = std::sqrt(masks * p * (1 - p));
    for (std::size_t t = 0; t < BatchRng::lanes; ++t)
        EXPECT_NEAR(hits[t], masks * p, 5 * sigma) << "lane " << t;
    const double pp = p * p;
    const double pairSigma = std::sqrt(masks * pp * (1 - pp));
    for (std::size_t t = 0; t + 1 < BatchRng::lanes; ++t)
        EXPECT_NEAR(pairHits[t], masks * pp, 5 * pairSigma)
            << "lanes " << t << "," << t + 1;
}

/**
 * Two generators with the same seed and first index give the same
 * masks and end in the same lane states, and starting one substream
 * later moves every stream down one lane: lanes 0..62 of the shifted
 * generator repeat lanes 1..63 of the first.
 */
TEST(BatchRandom, SameSeedSameMasksAndLaneStates)
{
    const std::uint64_t seed = 0x5A3Eull;
    const std::uint64_t low63 = ~std::uint64_t(0) >> 1;
    BatchRng a(seed, 128);
    BatchRng b(seed, 128);
    BatchRng shifted(seed, 129);
    for (int rep = 0; rep < 32; ++rep) {
        for (const double p : { 0.5, 2e-3, 0.25, 0.9 }) {
            const std::uint64_t mask = a.bernoulliMask(p);
            ASSERT_EQ(b.bernoulliMask(p), mask)
                << "p=" << p << " rep " << rep;
            ASSERT_EQ(shifted.bernoulliMask(p) & low63, mask >> 1)
                << "p=" << p << " rep " << rep;
        }
    }
    for (std::size_t t = 0; t < BatchRng::lanes; ++t)
        ASSERT_EQ(a.next(t), b.next(t)) << "lane " << t;
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

/**
 * Golden values recorded from the hand-written AVX-512, AVX2 and
 * portable kernels (identical on all three) that preceded
 * BatchRng's one compiler-vectorized loop: eight masks at each of
 * four probabilities, then one next() per lane folded into a
 * digest. The tests above hold batch against scalar; this pins the
 * absolute stream, so a change to the kernel's arithmetic or lane
 * order that both sides share still fails here.
 */
TEST(BatchRandom, ThresholdMaskGolden)
{
    const double ps[] = { 0.5, 2e-3, 0.25, 0.9 };
    const std::uint64_t want[4][8] = {
        { 0x17176103611434c9ull, 0x43b99162f385a953ull,
          0x8a81f9dd8f5a27f7ull, 0xcd751aee8b50153aull,
          0x3d97e8aa21b9210eull, 0x3c8db60c61abc83bull,
          0x9d6b172cc71ec5d1ull, 0x9b1fb87856a6d9c6ull },
        { 0x0000000000000000ull, 0x0000000000800000ull,
          0x0000000000000000ull, 0x0000000000000000ull,
          0x0000000000000000ull, 0x0000000000000000ull,
          0x0000000000000000ull, 0x0000000000000000ull },
        { 0x1000000503ee0029ull, 0x2580201820d00182ull,
          0x800608024a320d0eull, 0x812806390a311811ull,
          0x06080028ac800190ull, 0x1410a08090200826ull,
          0x0400805032407b05ull, 0x01090480c114c880ull },
        { 0xffff9fbb7fffffefull, 0xffffff7bffefdffdull,
          0xecfffffffffdfeffull, 0x7fbffbf7bffdfbffull,
          0xbffff9ffdfffffebull, 0xffffefedf7bf7fcfull,
          0xbeefffffffffffffull, 0xfffffffffbffffffull },
    };
    BatchRng rng(0x60D5EEDull, 1000);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t r = 0; r < 8; ++r)
            ASSERT_EQ(rng.bernoulliMask(ps[i]), want[i][r])
                << "p=" << ps[i] << " mask " << r;

    std::uint64_t fold = 0;
    for (std::size_t t = 0; t < BatchRng::lanes; ++t)
        fold = ((fold << 5) | (fold >> 59)) ^ rng.next(t);
    EXPECT_EQ(fold, 0x6d9c4c3baea7323aull);
}

} // namespace
