/**
 * @file
 * Statistical tests for the Pauli error channels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "quantum/error_model.hpp"

namespace {

using namespace quest::quantum;
using quest::sim::Rng;

TEST(ErrorRates, UniformFillsAllFields)
{
    const ErrorRates r = ErrorRates::uniform(1e-3);
    EXPECT_DOUBLE_EQ(r.idle, 1e-3);
    EXPECT_DOUBLE_EQ(r.gate2, 1e-3);
    EXPECT_DOUBLE_EQ(r.prep, 1e-3);
    EXPECT_DOUBLE_EQ(r.meas, 1e-3);
}

TEST(ErrorChannel, Depolarize1RateAndMix)
{
    Rng rng(5);
    ErrorChannel ch(ErrorRates::none(), rng);
    const int n = 300000;
    int counts[4] = {0, 0, 0, 0};
    for (int i = 0; i < n; ++i) {
        PauliFrame f(1);
        ch.depolarize1(f, 0, 0.3);
        ++counts[static_cast<int>(f.errorAt(0))];
    }
    // 70% identity; X, Y, Z each ~10%.
    EXPECT_NEAR(double(counts[0]) / n, 0.7, 0.01);
    EXPECT_NEAR(double(counts[int(Pauli::X)]) / n, 0.1, 0.01);
    EXPECT_NEAR(double(counts[int(Pauli::Y)]) / n, 0.1, 0.01);
    EXPECT_NEAR(double(counts[int(Pauli::Z)]) / n, 0.1, 0.01);
}

TEST(ErrorChannel, Depolarize2Covers15Paulis)
{
    Rng rng(6);
    ErrorChannel ch(ErrorRates::none(), rng);
    int error_counts[16] = {};
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        PauliFrame f(2);
        ch.depolarize2(f, 0, 1, 1.0); // always inject
        const int idx = static_cast<int>(f.errorAt(0))
            | (static_cast<int>(f.errorAt(1)) << 2);
        ++error_counts[idx];
    }
    EXPECT_EQ(error_counts[0], 0); // II never sampled at p=1
    for (int k = 1; k < 16; ++k)
        EXPECT_NEAR(double(error_counts[k]) / n, 1.0 / 15.0, 0.01);
}

TEST(ErrorChannel, ZeroRateIsNoiseless)
{
    Rng rng(7);
    ErrorChannel ch(ErrorRates::none(), rng);
    PauliFrame f(4);
    for (int i = 0; i < 1000; ++i) {
        ch.afterGate2(f, 1, 2);
        ch.idle(f, 3);
        ch.afterPrep(f, 0);
    }
    EXPECT_EQ(f.weight(), 0u);
    EXPECT_FALSE(ch.measurementFlip());
}

TEST(ErrorChannel, PrepErrorIsXFlip)
{
    Rng rng(8);
    ErrorChannel ch(ErrorRates{.prep = 1.0}, rng);
    PauliFrame f(1);
    ch.afterPrep(f, 0);
    EXPECT_EQ(f.errorAt(0), Pauli::X);
}

TEST(ErrorChannel, MeasurementFlipRate)
{
    Rng rng(9);
    ErrorChannel ch(ErrorRates{.meas = 0.25}, rng);
    const int n = 100000;
    int flips = 0;
    for (int i = 0; i < n; ++i)
        if (ch.measurementFlip())
            ++flips;
    EXPECT_NEAR(double(flips) / n, 0.25, 0.01);
}

TEST(ErrorChannel, RejectsNonFiniteRates)
{
    // A NaN rate has no integer Bernoulli threshold, so both channels
    // refuse non-finite rates up front, at construction and on edit.
    const double bad[] = {std::nan(""),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    Rng rng(10);
    for (const double v : bad) {
        for (double ErrorRates::*field :
             {&ErrorRates::idle, &ErrorRates::gate2, &ErrorRates::prep,
              &ErrorRates::meas}) {
            ErrorRates rates = ErrorRates::uniform(1e-3);
            rates.*field = v;
            EXPECT_THROW(ErrorChannel(rates, rng), quest::sim::SimError);
            EXPECT_THROW(BatchErrorChannel(rates, 1, 0),
                         quest::sim::SimError);

            ErrorChannel ch(ErrorRates::uniform(1e-3), rng);
            BatchErrorChannel batch(ErrorRates::uniform(1e-3), 1, 0);
            EXPECT_THROW(ch.setRates(rates), quest::sim::SimError);
            EXPECT_THROW(batch.setRates(rates), quest::sim::SimError);
            // A rejected edit leaves the previous rates in force.
            EXPECT_DOUBLE_EQ(ch.rates().*field, 1e-3);
            EXPECT_DOUBLE_EQ(batch.rates().*field, 1e-3);
        }
    }
}

TEST(ErrorChannel, OutOfRangeFiniteRatesKeepShortCircuits)
{
    // Finite rates outside [0, 1] are accepted and clamp like
    // Rng::bernoulli: below 0 never fires, above 1 always does, and
    // neither consumes a draw.
    Rng rng(11), untouched(11);
    ErrorChannel ch(ErrorRates{.idle = -1.0, .gate2 = -1.0, .prep = 2.0,
                               .meas = 2.0},
                    rng);
    PauliFrame f(1);
    ch.idle(f, 0);
    EXPECT_EQ(f.errorAt(0), Pauli::I);
    ch.afterPrep(f, 0);
    EXPECT_EQ(f.errorAt(0), Pauli::X);
    EXPECT_TRUE(ch.measurementFlip());
    EXPECT_EQ(rng.next(), untouched.next());
}

} // namespace
