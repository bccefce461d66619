/**
 * @file
 * Josephson-junction memory technology model (Section 4.5, Table 2).
 *
 * JJ technology lacks dense memory: a memory cell costs tens of
 * junctions and read latency grows with bank capacity. The model
 * below is calibrated against the pipelined RQL storage results of
 * Dorojevets et al. that the paper cites:
 *
 *   bank capacity | JJ count | read latency | streaming power
 *   --------------+----------+--------------+----------------
 *        512 b    |  20434   |   2 cycles   |   0.700 uW
 *       1 Kb      |  42512   |   2 cycles   |   0.525 uW
 *       2 Kb      |  84132   |   3 cycles   |   0.550 uW
 *       4 Kb      | 170000   |   3 cycles   |  10.000 uW
 *
 * These reproduce the paper's published design points: a 1-channel
 * 4 Kb memory has a 3-cycle access latency and costs ~170k JJ / 10 uW
 * (footnote 6), a 4-channel 4x1Kb configuration has 2-cycle latency
 * and 6x the bandwidth of the 1-channel design (Section 4.5), and
 * the Table-2 JJ/power totals follow as channels x bank cost.
 */

#ifndef QUEST_TECH_JJ_MEMORY_HPP
#define QUEST_TECH_JJ_MEMORY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "parameters.hpp"

namespace quest::tech {

/** A multi-bank JJ microcode memory configuration. */
struct MemoryConfig
{
    std::size_t channels = 1; ///< independent banks, one read port each
    std::size_t bankBits = 4096; ///< capacity per bank in bits

    std::size_t totalBits() const { return channels * bankBits; }

    /** e.g. "4 Channel = 1Kb x 4" (Table-2 notation). */
    std::string toString() const;

    bool operator==(const MemoryConfig &other) const = default;
};

/** Technology model for JJ-based microcode memories. */
class JJMemoryModel
{
  public:
    JJMemoryModel() = default;

    /** JJ count for a single bank of the given capacity. */
    std::uint64_t bankJJCount(std::size_t bank_bits) const;

    /** Streaming power of a single bank in microwatts. */
    double bankPowerUw(std::size_t bank_bits) const;

    /** Read access latency of a bank in JJ clock cycles. */
    std::size_t bankLatencyCycles(std::size_t bank_bits) const;

    /** Total JJ count of a configuration. */
    std::uint64_t
    jjCount(const MemoryConfig &cfg) const
    {
        return cfg.channels * bankJJCount(cfg.bankBits);
    }

    /** Total streaming power of a configuration in microwatts. */
    double
    powerUw(const MemoryConfig &cfg) const
    {
        return double(cfg.channels) * bankPowerUw(cfg.bankBits);
    }

    /**
     * Sustained read bandwidth of a configuration in micro-ops per
     * second: each channel returns one microcodeWordBits-wide word
     * every `latency` JJ clock cycles, and a word packs
     * wordBits / uop_bits micro-ops.
     */
    double uopsPerSecond(const MemoryConfig &cfg,
                         std::size_t uop_bits) const;

    /**
     * The channel configurations explored by the paper for a fixed
     * total capacity: 1x4Kb, 2x2Kb, 4x1Kb and 8x512b.
     */
    static std::vector<MemoryConfig>
    standardConfigs(std::size_t total_bits = 4096);
};

} // namespace quest::tech

#endif // QUEST_TECH_JJ_MEMORY_HPP
