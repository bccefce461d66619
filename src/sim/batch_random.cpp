#include "batch_random.hpp"

namespace quest::sim {

namespace {

/**
 * xoshiro256** step for all 64 lanes, multiply-free (*5 and *9 as
 * shift+add: no pre-AVX-512 level has a packed 64-bit multiply), with
 * the (result >> 11) < threshold compares packed into a lane mask.
 * One plain loop the compiler vectorizes; on x86-64 ELF it is cloned
 * per ISA level and the loader picks the clone once by CPUID. Every
 * clone runs the same source, so masks and lane states are
 * bit-identical across hosts. TSan is excluded because the ifunc
 * resolver runs before the TSan runtime is initialized.
 */
#if defined(__x86_64__) && defined(__ELF__) && !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
std::uint64_t
laneThresholdMask(std::uint64_t *__restrict s0,
                  std::uint64_t *__restrict s1,
                  std::uint64_t *__restrict s2,
                  std::uint64_t *__restrict s3, std::uint64_t threshold)
{
    std::uint64_t mask = 0;
    // -O2 does not peel the vector loop, so unroll it here.
#pragma GCC unroll 8
    for (std::size_t t = 0; t < BatchRng::lanes; ++t) {
        const std::uint64_t t5 = (s1[t] << 2) + s1[t];
        const std::uint64_t r7 = (t5 << 7) | (t5 >> 57);
        const std::uint64_t result = (r7 << 3) + r7;
        const std::uint64_t sh = s1[t] << 17;
        s2[t] ^= s0[t];
        s3[t] ^= s1[t];
        s1[t] ^= s2[t];
        s0[t] ^= s3[t];
        s2[t] ^= sh;
        s3[t] = (s3[t] << 45) | (s3[t] >> 19);
        mask |= std::uint64_t((result >> 11) < threshold) << t;
    }
    return mask;
}

} // namespace

std::uint64_t
BatchRng::thresholdMask(std::uint64_t threshold)
{
    return laneThresholdMask(_s0, _s1, _s2, _s3, threshold);
}

} // namespace quest::sim
