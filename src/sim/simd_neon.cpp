/**
 * @file
 * NEON SIMD backend (2 words per op) for aarch64 hosts, where NEON
 * is architecturally guaranteed and needs no extra compile flags.
 * A nullptr stub everywhere else.
 */

#include "simd_backend.hpp"

#include <cstdint>

namespace quest::sim {

#if defined(__ARM_NEON) && defined(__aarch64__)

#define QUEST_SIMD_W WordOpsNeon
#define QUEST_SIMD_NAME "neon"
#include "simd_kernels.inc"
#undef QUEST_SIMD_W
#undef QUEST_SIMD_NAME

const SimdKernels *
questSimdNeonKernels()
{
    return &kTable;
}

#else

const SimdKernels *
questSimdNeonKernels()
{
    return nullptr;
}

#endif

} // namespace quest::sim
