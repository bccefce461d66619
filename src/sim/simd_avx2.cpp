/**
 * @file
 * AVX2 SIMD backend (4 words per op). Compiled with -mavx2 via a
 * per-source CMake property; when the toolchain or architecture
 * cannot build it, the factory degrades to a nullptr stub and the
 * dispatcher never selects this target.
 */

#include "simd_backend.hpp"

#include <cstdint>

namespace quest::sim {

#if defined(__AVX2__)

#define QUEST_SIMD_W WordOpsAvx2
#define QUEST_SIMD_NAME "avx2"
#include "simd_kernels.inc"
#undef QUEST_SIMD_W
#undef QUEST_SIMD_NAME

const SimdKernels *
questSimdAvx2Kernels()
{
    return &kTable;
}

#else

const SimdKernels *
questSimdAvx2Kernels()
{
    return nullptr;
}

#endif

} // namespace quest::sim
