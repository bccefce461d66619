#include "batch_random.hpp"

#include "simd.hpp"

namespace quest::sim {

std::uint64_t
BatchRng::thresholdMask(std::uint64_t threshold)
{
    return simdKernels().rngThresholdMask(_s0, _s1, _s2, _s3,
                                          threshold);
}

} // namespace quest::sim
