/**
 * @file
 * Runtime SIMD dispatch: picks the kernel table once (QUEST_SIMD
 * override, else best available by CPUID) and serves it from an
 * atomic pointer so the per-call cost is one relaxed load.
 */

#include "simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "logging.hpp"
#include "simd_backend.hpp"

namespace quest::sim {

namespace {

/** The compiled-in table for a target, nullptr when not built. */
const SimdKernels *
tableFor(SimdTarget t)
{
    switch (t) {
    case SimdTarget::Portable:
        return questSimdPortableKernels();
    case SimdTarget::Avx2:
        return questSimdAvx2Kernels();
    case SimdTarget::Avx512:
        return questSimdAvx512Kernels();
    case SimdTarget::Neon:
        return questSimdNeonKernels();
    }
    return nullptr;
}

/** Best available target in Avx512 > Avx2 > Neon > Portable order. */
SimdTarget
bestAvailableTarget()
{
    for (const SimdTarget t : {SimdTarget::Avx512, SimdTarget::Avx2,
                               SimdTarget::Neon}) {
        if (simdTargetAvailable(t))
            return t;
    }
    return SimdTarget::Portable;
}

/** Parse QUEST_SIMD; falls back (with a warning) when unusable. */
SimdTarget
initialTarget()
{
    const char *env = std::getenv("QUEST_SIMD");
    if (env != nullptr && env[0] != '\0') {
        bool known = false;
        for (const SimdTarget t :
             {SimdTarget::Portable, SimdTarget::Avx2,
              SimdTarget::Avx512, SimdTarget::Neon}) {
            if (std::strcmp(env, simdTargetName(t)) != 0)
                continue;
            known = true;
            if (simdTargetAvailable(t))
                return t;
        }
        std::fprintf(stderr,
                     "quest: QUEST_SIMD=%s %s; using %s\n", env,
                     known ? "is not available on this host"
                           : "is not a known target",
                     simdTargetName(bestAvailableTarget()));
    }
    return bestAvailableTarget();
}

// Constinit so simdKernels() is one relaxed load + a never-taken
// branch in steady state — no static-local guard on the hot path
// (every BatchRng mask goes through it).
constinit std::atomic<const SimdKernels *> g_table{ nullptr };
constinit std::atomic<SimdTarget> g_target{ SimdTarget::Portable };

const SimdKernels *
initDispatch()
{
    // Racing first calls compute the same answer; both stores are
    // idempotent, so no once-guard is needed.
    const SimdTarget t = initialTarget();
    const SimdKernels *table = tableFor(t);
    g_target.store(t, std::memory_order_relaxed);
    g_table.store(table, std::memory_order_release);
    return table;
}

} // namespace

const char *
simdTargetName(SimdTarget t)
{
    switch (t) {
    case SimdTarget::Portable:
        return "portable";
    case SimdTarget::Avx2:
        return "avx2";
    case SimdTarget::Avx512:
        return "avx512";
    case SimdTarget::Neon:
        return "neon";
    }
    return "unknown";
}

bool
simdTargetAvailable(SimdTarget t)
{
    if (tableFor(t) == nullptr)
        return false;
    switch (t) {
    case SimdTarget::Portable:
        return true;
    case SimdTarget::Avx2:
        return simdCpuHasAvx2();
    case SimdTarget::Avx512:
        return simdCpuHasAvx512();
    case SimdTarget::Neon:
        // The backend only compiles on aarch64, where NEON is
        // architecturally mandatory.
        return true;
    }
    return false;
}

SimdTarget
simdActiveTarget()
{
    if (g_table.load(std::memory_order_acquire) == nullptr)
        initDispatch();
    return g_target.load(std::memory_order_relaxed);
}

void
simdForceTarget(SimdTarget t)
{
    QUEST_ASSERT(simdTargetAvailable(t),
                 "QUEST_SIMD target not available on this host");
    g_target.store(t, std::memory_order_relaxed);
    g_table.store(tableFor(t), std::memory_order_release);
}

const SimdKernels &
simdKernels()
{
    const SimdKernels *table = g_table.load(std::memory_order_acquire);
    if (__builtin_expect(table == nullptr, 0))
        table = initDispatch();
    return *table;
}

} // namespace quest::sim
