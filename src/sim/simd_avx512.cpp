/**
 * @file
 * AVX-512 SIMD backend (8 words per op, mask-register compares).
 * Compiled with -mavx512{f,bw,dq,vl} via a per-source CMake
 * property; degrades to a nullptr stub when those flags are
 * unavailable.
 */

#include "simd_backend.hpp"

#include <cstdint>

namespace quest::sim {

#if defined(__AVX512F__) && defined(__AVX512BW__)                     \
    && defined(__AVX512DQ__) && defined(__AVX512VL__)

#define QUEST_SIMD_W WordOpsAvx512
#define QUEST_SIMD_NAME "avx512"
// GCC 12 raises a false -Wuninitialized (-Wmaybe-uninitialized in
// sanitizer builds) inside avx512fintrin.h for the kernels'
// intrinsics; the kernels initialise every vector.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include "simd_kernels.inc"
#pragma GCC diagnostic pop
#undef QUEST_SIMD_W
#undef QUEST_SIMD_NAME

const SimdKernels *
questSimdAvx512Kernels()
{
    return &kTable;
}

#else

const SimdKernels *
questSimdAvx512Kernels()
{
    return nullptr;
}

#endif

} // namespace quest::sim
