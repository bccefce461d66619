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
 */

#ifndef QUEST_SIM_RANDOM_HPP
#define QUEST_SIM_RANDOM_HPP

#include <cstdint>

namespace quest::sim {

/** Deterministic, explicitly-seeded random number generator. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** @return the next raw 64-bit value. */
    std::uint64_t next();

    /** @return a uniform double in [0, 1). */
    double uniform();

    /** @return a uniform integer in [0, bound) (bound must be > 0). */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** @return true with the given probability p in [0, 1]. */
    bool bernoulli(double p);

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
    std::uint64_t _state[4];
};

} // namespace quest::sim

#endif // QUEST_SIM_RANDOM_HPP
