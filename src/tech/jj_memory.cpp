#include "jj_memory.hpp"

#include <cmath>

#include "sim/logging.hpp"

namespace quest::tech {

namespace {

struct BankPoint
{
    std::size_t bits;
    std::uint64_t jjs;
    double power_uw;
    std::size_t latency;
};

/** Calibration points (see file header). Sorted by capacity. */
constexpr BankPoint bankPoints[] = {
    { 512, 20434, 0.700, 2 },
    { 1024, 42512, 0.525, 2 },
    { 2048, 84132, 0.550, 3 },
    { 4096, 170000, 10.000, 3 },
};

const BankPoint *
findPoint(std::size_t bank_bits)
{
    for (const auto &p : bankPoints)
        if (p.bits == bank_bits)
            return &p;
    return nullptr;
}

} // namespace

std::string
MemoryConfig::toString() const
{
    auto size_str = [](std::size_t bits) -> std::string {
        if (bits % 1024 == 0)
            return std::to_string(bits / 1024) + "Kb";
        return std::to_string(bits) + "b";
    };
    return std::to_string(channels) + " Channel = " + size_str(bankBits)
        + " x " + std::to_string(channels);
}

std::uint64_t
JJMemoryModel::bankJJCount(std::size_t bank_bits) const
{
    QUEST_ASSERT(bank_bits > 0, "bank capacity must be positive");
    if (const BankPoint *p = findPoint(bank_bits))
        return p->jjs;
    // Off-table sizes: interpolate at ~41.5 JJ per bit (the average
    // cell cost across the calibration points).
    return static_cast<std::uint64_t>(std::llround(41.5 * double(bank_bits)));
}

double
JJMemoryModel::bankPowerUw(std::size_t bank_bits) const
{
    QUEST_ASSERT(bank_bits > 0, "bank capacity must be positive");
    if (const BankPoint *p = findPoint(bank_bits))
        return p->power_uw;
    // Off-table sizes: the streaming power of the mid-size banks is
    // nearly flat (~0.55 uW); scale gently with capacity.
    return 0.55 * std::sqrt(double(bank_bits) / 2048.0);
}

std::size_t
JJMemoryModel::bankLatencyCycles(std::size_t bank_bits) const
{
    QUEST_ASSERT(bank_bits > 0, "bank capacity must be positive");
    if (const BankPoint *p = findPoint(bank_bits))
        return p->latency;
    // Latency grows roughly one pipeline stage per 4x capacity.
    std::size_t latency = 1;
    std::size_t cap = 256;
    while (cap < bank_bits) {
        cap *= 4;
        ++latency;
    }
    return std::max<std::size_t>(latency, 1);
}

double
JJMemoryModel::uopsPerSecond(const MemoryConfig &cfg,
                             std::size_t uop_bits) const
{
    QUEST_ASSERT(uop_bits > 0 && uop_bits <= microcodeWordBits,
                 "uop width %zu out of range", uop_bits);
    const double words_per_second = jjClockHz
        / double(bankLatencyCycles(cfg.bankBits));
    const double uops_per_word =
        double(microcodeWordBits / uop_bits);
    return double(cfg.channels) * words_per_second * uops_per_word;
}

std::vector<MemoryConfig>
JJMemoryModel::standardConfigs(std::size_t total_bits)
{
    std::vector<MemoryConfig> out;
    for (std::size_t channels : { 1u, 2u, 4u, 8u }) {
        if (total_bits % channels != 0)
            continue;
        out.push_back(MemoryConfig{channels, total_bits / channels});
    }
    return out;
}

} // namespace quest::tech
