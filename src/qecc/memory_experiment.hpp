/**
 * @file
 * The surface-code memory experiment (paper Section 4.2).
 *
 * The direct logical error rates (quest simulate, the examples, the
 * decoder benches and tests) come from one experiment: start in the
 * code space, run `rounds` noisy syndrome-extraction rounds, close
 * with one noiseless round so last-round measurement flips pair up
 * in time instead of being mistaken for data errors, decode, apply
 * the correction, and judge the shot. MemoryExperiment owns the
 * distance-d lattice, the protocol's round schedule and the
 * extractor, samples a scalar shot or a 64-lane batch, and decides
 * when a corrected shot failed. Decoding stays with the caller.
 */

#ifndef QUEST_QECC_MEMORY_EXPERIMENT_HPP
#define QUEST_QECC_MEMORY_EXPERIMENT_HPP

#include <cstdint>
#include <vector>

#include "extractor.hpp"
#include "quantum/error_model.hpp"

namespace quest::qecc {

/** A distance-d memory experiment: fixture, sampler and readout. */
class MemoryExperiment
{
  public:
    /** One sampled shot. */
    struct Shot
    {
        /** The error frame after the closing round. */
        quantum::PauliFrame frame;
        /** rounds() noisy rounds, then the noiseless closing round. */
        std::vector<SyndromeRound> history;
    };

    /**
     * @param distance Code distance d (>= 2).
     * @param protocol Syndrome-extraction circuit of every round.
     * @param rounds Noisy rounds per shot; 0 means d.
     */
    explicit MemoryExperiment(std::size_t distance,
                              Protocol protocol = Protocol::Steane,
                              std::size_t rounds = 0);

    // The schedule points into the lattice and the extractor into
    // the schedule, so a copied or moved fixture would dangle.
    MemoryExperiment(const MemoryExperiment &) = delete;
    MemoryExperiment &operator=(const MemoryExperiment &) = delete;

    /** Noisy rounds per shot. */
    std::size_t rounds() const { return _rounds; }
    const Lattice &lattice() const { return _lattice; }
    const SyndromeExtractor &extractor() const { return _extractor; }

    /**
     * Sample one shot, drawing its noise from `rng` (which advances
     * by exactly the shot's draws).
     */
    Shot sampleShot(const quantum::ErrorRates &rates,
                    sim::Rng &rng) const;

    /**
     * Sample trials 64b .. 64b+63 at once: lane t of batch b is
     * trial 64b + t and reproduces, bit for bit, the sampleShot run
     * handed Rng::substream(seed, 64b + t), so a batched sweep equals
     * the scalar sweep for any batch order or thread count. `frame`
     * and `history` are caller-owned scratch, overwritten here.
     */
    void sampleBatch(const quantum::ErrorRates &rates, std::uint64_t seed,
                     std::uint64_t batch, quantum::BatchPauliFrame &frame,
                     std::vector<BatchSyndromeRound> &history) const;

    /**
     * Did a corrected shot fail? A noiseless round runs on `frame`:
     * a residual syndrome means the decoder left the code space;
     * otherwise the shot failed when the residual error anticommutes
     * with a logical operator (an X residual with odd overlap on the
     * logical-Z support, or a Z residual with odd overlap on the
     * logical-X support).
     */
    bool logicalFailure(quantum::PauliFrame &frame) const;

  private:
    std::size_t _rounds;
    Lattice _lattice;
    RoundSchedule _schedule;
    SyndromeExtractor _extractor;
};

} // namespace quest::qecc

#endif // QUEST_QECC_MEMORY_EXPERIMENT_HPP
