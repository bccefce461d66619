/**
 * @file
 * Portable SIMD backend: the shared kernel body instantiated over
 * plain std::uint64_t words. Always available; the bit-exact
 * reference every vector backend is differentially tested against.
 */

#include "simd_backend.hpp"

#include <cstdint>

namespace quest::sim {

#define QUEST_SIMD_W WordOpsPortable
#define QUEST_SIMD_NAME "portable"
#include "simd_kernels.inc"
#undef QUEST_SIMD_W
#undef QUEST_SIMD_NAME

const SimdKernels *
questSimdPortableKernels()
{
    return &kTable;
}

} // namespace quest::sim
