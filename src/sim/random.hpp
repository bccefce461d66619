/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulator (error injection,
 * measurement collapse, workload jitter) draws from an explicitly
 * seeded Rng instance so that simulations are reproducible
 * bit-for-bit across runs and platforms. The generator is
 * xoshiro256** (Blackman & Vigna), which is small, fast and passes
 * BigCrush.
 *
 * The draw functions live in this header so that per-site noise
 * loops inline them: a hot loop that copies an Rng into a local keeps
 * the four state words in registers for the whole loop.
 */

#ifndef QUEST_SIM_RANDOM_HPP
#define QUEST_SIM_RANDOM_HPP

#include <cmath>
#include <cstdint>

#include "logging.hpp"

namespace quest::sim {

/**
 * The integer threshold of a Bernoulli(p) draw for 0 < p < 1.
 *
 * Rng::uniform() compares (r >> 11) * 2^-53 < p. With k = r >> 11 an
 * integer and p * 2^53 exact in double (power-of-two scaling), that
 * is equivalent to the integer compare k < ceil(p * 2^53): when
 * p * 2^53 is an integer m, k < m directly; otherwise k <= floor <
 * ceil. The result lies in [1, 2^53 - 1]. p must not be NaN (the
 * cast would be undefined); callers filter p <= 0 and p >= 1 first.
 */
inline std::uint64_t
bernoulliThreshold(double p)
{
    return static_cast<std::uint64_t>(
        __builtin_ceil(p * 9007199254740992.0)); // 2^53
}

/**
 * A Bernoulli probability compiled once for many draws:
 * Rng::bernoulli(BernoulliRate(p)) returns what Rng::bernoulli(p)
 * would, draw for draw, with an integer compare in place of the
 * int-to-double conversion. p <= 0 and p >= 1 keep their
 * short-circuits and consume no draw.
 */
class BernoulliRate
{
  public:
    explicit BernoulliRate(double p)
        : _threshold(p <= 0.0 ? 0 : p >= 1.0 ? always : checked(p))
    {}

    /** 0 for p <= 0, ~0 for p >= 1, else bernoulliThreshold(p). */
    std::uint64_t threshold() const { return _threshold; }

  private:
    static constexpr std::uint64_t always = ~std::uint64_t(0);

    static std::uint64_t
    checked(double p)
    {
        QUEST_ASSERT(!std::isnan(p), "Bernoulli probability is NaN");
        return bernoulliThreshold(p);
    }

    std::uint64_t _threshold;
};

/** Deterministic, explicitly-seeded random number generator. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
        const std::uint64_t t = _state[1] << 17;

        _state[2] ^= _state[0];
        _state[3] ^= _state[1];
        _state[1] ^= _state[2];
        _state[0] ^= _state[3];
        _state[2] ^= t;
        _state[3] = rotl(_state[3], 45);

        return result;
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits give a uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return a uniform integer in [0, bound) (bound must be > 0). */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        QUEST_ASSERT(bound > 0, "uniformInt bound must be positive");
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = (~bound + 1) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return true with the given probability p in [0, 1]. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** bernoulli(p) for a precompiled p: same result, same draws. */
    bool
    bernoulli(BernoulliRate rate)
    {
        const std::uint64_t threshold = rate.threshold();
        if (threshold == 0)
            return false;
        if (threshold == ~std::uint64_t(0))
            return true;
        return (next() >> 11) < threshold;
    }

    /** Reseed the generator, restoring determinism mid-run. */
    void seed(std::uint64_t seed);

    /**
     * Derive an independent substream keyed by (seed, index).
     *
     * This is the determinism contract of the parallel Monte-Carlo
     * engine (parallel.hpp): trial i of a sweep draws only from
     * `substream(seed, i)`, so its random sequence depends on the
     * trial index and never on which thread runs it or in what
     * order. The substream key is splitmix64(seed) + index, expanded
     * through splitmix64 into the four state words; splitmix64's
     * per-step bijection keeps distinct indices on distinct streams.
     */
    static Rng substream(std::uint64_t seed, std::uint64_t index);

    /**
     * Derive a new 64-bit seed keyed by (seed, salt), for layering
     * substream families: a sweep with several grid points gives
     * point k the seed `deriveSeed(seed, k)` and trial t of that
     * point the stream `substream(deriveSeed(seed, k), t)`. The
     * derivation is a splitmix64 step over the mixed key, so
     * distinct salts land on well-separated seeds and the value is
     * stable across platforms, so a (point, trial) coordinate names
     * the same stream on every host and in every run.
     */
    static std::uint64_t deriveSeed(std::uint64_t seed,
                                    std::uint64_t salt);

    /** @name UniformRandomBitGenerator interface (for <random>/shuffle). */
    ///@{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }
    result_type operator()() { return next(); }
    ///@}

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t _state[4];
};

} // namespace quest::sim

#endif // QUEST_SIM_RANDOM_HPP
