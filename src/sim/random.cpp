#include "random.hpp"

namespace quest::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &s : _state)
        s = splitmix64(sm);
}

Rng
Rng::substream(std::uint64_t seed_value, std::uint64_t index)
{
    std::uint64_t sm = seed_value;
    std::uint64_t sub = splitmix64(sm) + index;
    Rng r;
    for (auto &s : r._state)
        s = splitmix64(sub);
    return r;
}

std::uint64_t
Rng::deriveSeed(std::uint64_t seed_value, std::uint64_t salt)
{
    // One splitmix64 step over the mixed key: the per-step bijection
    // keeps distinct (seed, salt) pairs on distinct outputs, and the
    // avalanche keeps adjacent salts uncorrelated.
    std::uint64_t sm = seed_value ^ (salt * 0xBF58476D1CE4E5B9ull);
    return splitmix64(sm);
}

} // namespace quest::sim
