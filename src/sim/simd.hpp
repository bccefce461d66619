/**
 * @file
 * Explicit SIMD facade: one header owning every intrinsic in the
 * repo, a runtime-dispatched kernel table, and the word-op wrapper
 * types the shared kernel body is instantiated over.
 *
 * The one dispatched kernel is the 64-lane xoshiro step behind
 * sim::BatchRng::bernoulliMask, which bounds the batched Pauli-frame
 * sweeps: they run about 3x the trials/s vectorized that they do on
 * the portable backend. Backends —
 * AVX2, AVX-512, NEON and a portable std::uint64_t fallback — are
 * selected once at runtime by CPUID, overridable with QUEST_SIMD=
 * avx2|avx512|neon|portable for testing and CI. Every backend runs
 * the identical arithmetic, so masks and RNG draw order are
 * bit-identical across targets (asserted by tests/test_simd.cpp).
 *
 * Layering: callers see only SimdKernels (a table of function
 * pointers) via simdKernels(). The per-target translation units
 * (simd_portable.cpp, simd_avx2.cpp, simd_avx512.cpp,
 * simd_neon.cpp) are compiled with their ISA flags, define the
 * matching word-op struct from this header, and instantiate the
 * shared kernel body in simd_kernels.inc. No other file may
 * include <immintrin.h>/<arm_neon.h> or call
 * __builtin_cpu_supports — the det-simd-dispatch lint rule
 * enforces exactly that allowlist.
 */

#ifndef QUEST_SIM_SIMD_HPP
#define QUEST_SIM_SIMD_HPP

#include <cstddef>
#include <cstdint>

// Intrinsic headers are visible only inside the backend TUs, which
// are the only TUs compiled with the matching -m flags. Every other
// includer of this header sees just the dispatch API below.
#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace quest::sim {

/** Dispatch targets, best-first preference order at detection. */
enum class SimdTarget : std::uint8_t
{
    Portable = 0, ///< plain std::uint64_t words, any host
    Avx2,         ///< 256-bit, 4 words per op
    Avx512,       ///< 512-bit, 8 words per op + mask-register tests
    Neon,         ///< 128-bit, 2 words per op (aarch64)
};

/** Lowercase name as accepted by the QUEST_SIMD env override. */
const char *simdTargetName(SimdTarget t);

/** True when the backend is compiled in and the CPU supports it. */
bool simdTargetAvailable(SimdTarget t);

/**
 * The target whose kernel table simdKernels() currently returns:
 * QUEST_SIMD if set and available (an unavailable override falls
 * back with a one-time stderr warning), otherwise the best
 * available target in Avx512 > Avx2 > Neon > Portable order.
 */
SimdTarget simdActiveTarget();

/**
 * Test hook: pin the kernel table to one target (must be
 * available). The per-target differential suites cycle every
 * available backend through the same seeds with this.
 */
void simdForceTarget(SimdTarget t);

/**
 * One backend's kernel set. All pointers are always non-null and
 * all backends compute bit-identical results; only the vector
 * width and instruction selection differ.
 */
struct SimdKernels
{
    const char *name;

    /**
     * Advance all 64 BatchRng lanes once and pack the per-lane
     * (result >> 11) < threshold compares into a lane mask —
     * the bernoulliMask hot loop.
     */
    std::uint64_t (*rngThresholdMask)(std::uint64_t *s0,
                                      std::uint64_t *s1,
                                      std::uint64_t *s2,
                                      std::uint64_t *s3,
                                      std::uint64_t threshold);
};

/** The active backend's kernel table (one atomic pointer load). */
const SimdKernels &simdKernels();

/** @name CPU feature probes (x86: CPUID via the compiler builtin). */
///@{
inline bool
simdCpuHasAvx2()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") > 0;
#else
    return false;
#endif
}

inline bool
simdCpuHasAvx512()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx512f") > 0
        && __builtin_cpu_supports("avx512bw") > 0
        && __builtin_cpu_supports("avx512dq") > 0
        && __builtin_cpu_supports("avx512vl") > 0;
#else
    return false;
#endif
}
///@}

// ---------------------------------------------------------------
// Word-op wrapper types. Each is visible only to TUs compiled with
// the matching ISA; simd_kernels.inc instantiates the shared kernel
// body over exactly one of them per backend TU. load/store require
// 64-byte-aligned addresses (BatchRng's lane state is alignas(64)).
// ---------------------------------------------------------------

/** Baseline word ops: one std::uint64_t per "vector". */
struct WordOpsPortable
{
    using V = std::uint64_t;
    static constexpr std::size_t lanes = 1;

    static V load(const std::uint64_t *p) { return *p; }
    static void store(std::uint64_t *p, V v) { *p = v; }
    static V set1(std::uint64_t v) { return v; }
    static V xor_(V a, V b) { return a ^ b; }
    static V shl(V a, int k) { return a << k; }
    static V shr(V a, int k) { return a >> k; }
    template <int K> static V rotl(V a)
    {
        return (a << K) | (a >> (64 - K));
    }
    static V add(V a, V b) { return a + b; }
    /** Lane bitmask of a < b (operands < 2^63). */
    static unsigned ltMask(V a, V b) { return a < b ? 1u : 0u; }
};

#if defined(__AVX2__)
/** 256-bit ops: 4 words per vector. */
struct WordOpsAvx2
{
    using V = __m256i;
    static constexpr std::size_t lanes = 4;

    static V
    load(const std::uint64_t *p)
    {
        return _mm256_load_si256(reinterpret_cast<const __m256i *>(p));
    }
    static void
    store(std::uint64_t *p, V v)
    {
        _mm256_store_si256(reinterpret_cast<__m256i *>(p), v);
    }
    static V
    set1(std::uint64_t v)
    {
        return _mm256_set1_epi64x(std::int64_t(v));
    }
    static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
    static V shl(V a, int k) { return _mm256_slli_epi64(a, k); }
    static V shr(V a, int k) { return _mm256_srli_epi64(a, k); }
    template <int K> static V rotl(V a)
    {
        return _mm256_or_si256(_mm256_slli_epi64(a, K),
                               _mm256_srli_epi64(a, 64 - K));
    }
    static V add(V a, V b) { return _mm256_add_epi64(a, b); }
    static unsigned
    ltMask(V a, V b)
    {
        // Operands are < 2^53 here, so the signed compare agrees
        // with the unsigned one AVX2 lacks.
        const V gt = _mm256_cmpgt_epi64(b, a);
        return unsigned(
            _mm256_movemask_pd(_mm256_castsi256_pd(gt)));
    }
};
#endif // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512BW__)                     \
    && defined(__AVX512DQ__) && defined(__AVX512VL__)
/** 512-bit ops: 8 words per vector, compares into mask registers. */
struct WordOpsAvx512
{
    using V = __m512i;
    static constexpr std::size_t lanes = 8;

    static V load(const std::uint64_t *p)
    {
        return _mm512_load_si512(p);
    }
    static void store(std::uint64_t *p, V v)
    {
        _mm512_store_si512(p, v);
    }
    static V
    set1(std::uint64_t v)
    {
        return _mm512_set1_epi64(std::int64_t(v));
    }
    static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
    static V shl(V a, int k) { return _mm512_slli_epi64(a, k); }
    static V shr(V a, int k) { return _mm512_srli_epi64(a, k); }
    /** Single-instruction rotate (VPROLQ) — the xoshiro hot op.
     * The count is a template argument because the intrinsic needs
     * an 8-bit immediate even at -O0. */
    template <int K> static V rotl(V a)
    {
        return _mm512_rol_epi64(a, K);
    }
    static V add(V a, V b) { return _mm512_add_epi64(a, b); }
    static unsigned
    ltMask(V a, V b)
    {
        return _mm512_cmplt_epu64_mask(a, b);
    }
};
#endif // AVX-512

#if defined(__ARM_NEON) && defined(__aarch64__)
/** 128-bit ops: 2 words per vector. */
struct WordOpsNeon
{
    using V = uint64x2_t;
    static constexpr std::size_t lanes = 2;

    static V load(const std::uint64_t *p) { return vld1q_u64(p); }
    static void store(std::uint64_t *p, V v) { vst1q_u64(p, v); }
    static V set1(std::uint64_t v) { return vdupq_n_u64(v); }
    static V xor_(V a, V b) { return veorq_u64(a, b); }
    static V
    shl(V a, int k)
    {
        return vshlq_u64(a, vdupq_n_s64(k));
    }
    static V
    shr(V a, int k)
    {
        return vshlq_u64(a, vdupq_n_s64(-k));
    }
    template <int K> static V rotl(V a)
    {
        return vorrq_u64(vshlq_n_u64(a, K), vshrq_n_u64(a, 64 - K));
    }
    static V add(V a, V b) { return vaddq_u64(a, b); }
    static unsigned
    ltMask(V a, V b)
    {
        const V lt = vcltq_u64(a, b);
        return unsigned(vgetq_lane_u64(lt, 0) & 1u)
            | (unsigned(vgetq_lane_u64(lt, 1) & 1u) << 1);
    }
};
#endif // __ARM_NEON

} // namespace quest::sim

#endif // QUEST_SIM_SIMD_HPP
