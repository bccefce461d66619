/**
 * @file
 * 64-lane transposed random number generation for the bit-parallel
 * Monte-Carlo engine.
 *
 * BatchRng holds 64 independent xoshiro256** generators in
 * structure-of-arrays layout: state word k of lane t lives at
 * _s{k}[t], so stepping all lanes is a flat loop of shifts/xors over
 * contiguous arrays that the compiler vectorizes — no per-draw
 * call overhead, which is what actually bounds the batched engine's
 * trials/sec (the frame updates themselves are already one word op
 * per 64 trials).
 *
 * Compatibility contract: lane t of BatchRng(seed, first) produces
 * exactly the draw sequence of Rng::substream(seed, first + t) —
 * same seeding expansion, same xoshiro step, same bernoulli
 * short-circuits and uniform mapping — so a batched sweep that
 * assigns lane t of batch b to trial b*64 + t reproduces the scalar
 * sweep bit for bit (asserted by tests/test_random.cpp).
 */

#ifndef QUEST_SIM_BATCH_RANDOM_HPP
#define QUEST_SIM_BATCH_RANDOM_HPP

#include <cstddef>
#include <cstdint>

#include "logging.hpp"
#include "random.hpp"

namespace quest::sim {

/** 64 Rng substreams stepped together, one bit-lane per stream. */
class BatchRng
{
  public:
    static constexpr std::size_t lanes = 64;

    /** Lane t mirrors Rng::substream(seed, first_index + t). */
    BatchRng(std::uint64_t seed, std::uint64_t first_index)
    {
        for (std::size_t t = 0; t < lanes; ++t) {
            // Rng::substream's expansion: one splitmix64 of the
            // seed, plus the stream index, then four splitmix64
            // steps into the xoshiro state words.
            std::uint64_t sm = seed;
            std::uint64_t sub = splitmix64(sm) + first_index + t;
            _s0[t] = splitmix64(sub);
            _s1[t] = splitmix64(sub);
            _s2[t] = splitmix64(sub);
            _s3[t] = splitmix64(sub);
        }
    }

    /**
     * One Bernoulli(p) draw per lane, packed into a lane mask.
     * Mirrors Rng::bernoulli: p <= 0 and p >= 1 short-circuit
     * without consuming a draw from any lane; otherwise every lane
     * advances exactly once whether or not it hits.
     */
    std::uint64_t
    bernoulliMask(double p)
    {
        if (p <= 0.0)
            return 0;
        if (p >= 1.0)
            return ~std::uint64_t(0);
        // The integer form of Rng::uniform() < p, so the lane loop
        // stays free of int->double conversions and auto-vectorizes.
        return thresholdMask(bernoulliThreshold(p));
    }

    /** Scalar next() on one lane (resolving infrequent hit lanes). */
    std::uint64_t next(std::size_t lane) { return step(lane); }

    /** Rng::uniformInt on one lane: rejection-sampled [0, bound). */
    std::uint64_t
    uniformInt(std::size_t lane, std::uint64_t bound)
    {
        QUEST_ASSERT(bound > 0, "uniformInt bound must be positive");
        const std::uint64_t threshold = (~bound + 1) % bound;
        for (;;) {
            const std::uint64_t r = step(lane);
            if (r >= threshold)
                return r % bound;
        }
    }

  private:
    /**
     * Advance every lane once and pack the per-lane compares
     * (r >> 11) < threshold into a lane mask. One loop in
     * batch_random.cpp, cloned per x86 ISA level; every clone runs
     * the same arithmetic, so the mask (and the lane states) are
     * bit-identical across hosts.
     */
    std::uint64_t thresholdMask(std::uint64_t threshold);

    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        x += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** The xoshiro256** step of Rng::next() on lane t. */
    std::uint64_t
    step(std::size_t t)
    {
        const std::uint64_t result = rotl(_s1[t] * 5, 7) * 9;
        const std::uint64_t sh = _s1[t] << 17;
        _s2[t] ^= _s0[t];
        _s3[t] ^= _s1[t];
        _s1[t] ^= _s2[t];
        _s0[t] ^= _s3[t];
        _s2[t] ^= sh;
        _s3[t] = rotl(_s3[t], 45);
        return result;
    }

    alignas(64) std::uint64_t _s0[lanes];
    alignas(64) std::uint64_t _s1[lanes];
    alignas(64) std::uint64_t _s2[lanes];
    alignas(64) std::uint64_t _s3[lanes];
};

} // namespace quest::sim

#endif // QUEST_SIM_BATCH_RANDOM_HPP
