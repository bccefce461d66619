/**
 * @file
 * Syndrome extraction execution (paper Figure 5 / Appendix A).
 *
 * The SyndromeExtractor runs a RoundSchedule against a PauliFrame,
 * injecting noise through an ErrorChannel, and returns the ancilla
 * measurement flips of each round. Repeated rounds build the
 * space-time syndrome history that the decoders consume.
 *
 * The round runs the way the MCE replays it (Figure 8): one
 * sub-cycle at a time, each opcode latched in lockstep onto a masked
 * set of qubits. recompile() turns every sub-cycle of the masked
 * schedule into a layer: a few word-wide steps over the PauliFrame's
 * X/Z bitplanes (reset, Hadamard, CNOT as a shifted masked XOR; a
 * lattice neighbour is a fixed index offset of +-1 or +-cols), then
 * the sub-cycle's noise and measurement sites in schedule order. A
 * layer's uops touch disjoint qubits (validateSchedule), so applying
 * its gates before its noise equals the per-uop interleaving and
 * every random stream is unchanged. The 64-lane runRoundBatch walks
 * the same site list one site at a time.
 *
 * For validation, runRoundOnTableau() executes the same schedule on
 * the full stabilizer tableau; unit tests cross-check that both
 * models report identical syndromes for identical injected errors.
 *
 * Modelling notes:
 *  - Verify slots (Shor cat-state checks) and Hadamard dressing
 *    slots (SC-13) contribute to depth, timing and micro-op counts
 *    but are functionally transparent: the canonical prepare/
 *    interact/measure semantics carry the syndrome. This mirrors
 *    the paper's use of a "simulacrum" of the published circuits
 *    (Section 4.4).
 *  - Idle (decoherence) noise is applied to data qubits once per
 *    round, matching the paper's "error rate per QECC cycle" model.
 */

#ifndef QUEST_QECC_EXTRACTOR_HPP
#define QUEST_QECC_EXTRACTOR_HPP

#include <cstdint>
#include <vector>

#include "quantum/error_model.hpp"
#include "quantum/pauli_frame.hpp"
#include "schedule.hpp"
#include "sim/metrics.hpp"

namespace quest::quantum {
class Tableau;
} // namespace quest::quantum

namespace quest::qecc {

/** Measurement flips of one round, indexed by ancilla list order. */
struct SyndromeRound
{
    /** X-stabilizer flips (detect Z errors), in sites() order. */
    std::vector<std::uint8_t> xFlips;
    /** Z-stabilizer flips (detect X errors), in sites() order. */
    std::vector<std::uint8_t> zFlips;

    bool any() const;
    std::size_t weight() const;
};

/**
 * Measurement flips of one round for all 64 batch lanes: bit t of
 * word i is lane t's flip on ancilla i (same sites() order as the
 * scalar SyndromeRound).
 */
struct BatchSyndromeRound
{
    std::vector<std::uint64_t> xFlips;
    std::vector<std::uint64_t> zFlips;

    /** Scalar view of one lane (differential tests, decode). */
    SyndromeRound lane(std::size_t lane) const;
};

/** Executes syndrome-extraction rounds on a Pauli frame. */
class SyndromeExtractor
{
  public:
    /**
     * @param schedule The lockstep round program (must outlive the
     *                 extractor).
     */
    explicit SyndromeExtractor(const RoundSchedule &schedule);

    /**
     * Recompile the round program after the schedule was edited in
     * place (same lattice). An owner that rebuilds its schedule calls
     * this instead of constructing a new extractor, so references to
     * the extractor held elsewhere stay valid. Throws sim::SimError
     * when the schedule breaks the lockstep contract
     * (validateSchedule).
     */
    void recompile();

    const Lattice &lattice() const { return _schedule->lattice(); }

    /** Ancilla coordinates in the order syndromes are reported. */
    const std::vector<Coord> &xAncillas() const { return _xAncillas; }
    const std::vector<Coord> &zAncillas() const { return _zAncillas; }

    /**
     * Execute one round.
     * @param frame Error frame to evolve.
     * @param channel Noise source; pass nullptr for noiseless
     *                execution (pure propagation of existing errors).
     * @return the ancilla flips observed this round.
     */
    SyndromeRound runRound(quantum::PauliFrame &frame,
                           quantum::ErrorChannel *channel) const;

    /**
     * Execute `rounds` rounds and collect the syndrome history.
     */
    std::vector<SyndromeRound>
    runRounds(quantum::PauliFrame &frame, quantum::ErrorChannel *channel,
              std::size_t rounds) const;

    /**
     * Execute one round on 64 trials at once. The per-lane noise
     * draw order matches runRound exactly (see BatchErrorChannel),
     * so lane t reproduces a scalar run seeded with trial t's
     * substream bit for bit.
     * @param channel Batched noise source; nullptr for noiseless
     *                propagation.
     */
    BatchSyndromeRound
    runRoundBatch(quantum::BatchPauliFrame &frame,
                  quantum::BatchErrorChannel *channel) const;

  private:
    /**
     * A noise or measurement site of the compiled round. Lattice
     * neighbours and syndrome slots are resolved at compile time;
     * timing-only slots (Nop, Hadamard/Phase dressing, Verify) have
     * no site.
     */
    struct Site
    {
        enum class Kind : std::uint8_t
        {
            Prep,
            Cnot,
            Meas,
        };

        std::uint8_t xBasis;   ///< MeasX (the batch walk applies H)
        std::uint8_t xAncilla; ///< measurement reports into xFlips
        std::uint16_t slot;    ///< measurement flip-vector index
        std::uint32_t a;       ///< prep/meas qubit, or CNOT control
        std::uint32_t b;       ///< CNOT target
    };

    /**
     * One opcode in one direction over a masked qubit set, applied
     * in place to the frame's X/Z word planes.
     */
    struct Step
    {
        enum class Kind : std::uint8_t
        {
            Reset,       ///< clear both planes under the mask
            Hadamard,    ///< swap the planes under the mask
            CnotControl, ///< masked qubit q controls q + offset
            CnotTarget,  ///< masked qubit q is the target of q + offset
        };

        Kind kind;
        std::int32_t offset; ///< CNOT partner index minus masked index
        std::uint32_t mask;  ///< first of the mask's words in _masks
    };

    /**
     * One sub-cycle with work: its steps, then its sites, all of one
     * kind (validateSchedule).
     */
    struct Layer
    {
        std::uint32_t stepEnd; ///< one past the layer's last step
        std::uint32_t siteEnd; ///< one past the layer's last site
        Site::Kind kind;
    };

    void applyStep(const Step &step, std::uint64_t *x,
                   std::uint64_t *z) const;

    const RoundSchedule *_schedule;
    std::vector<Coord> _xAncillas;
    std::vector<Coord> _zAncillas;
    std::vector<std::size_t> _dataIndices;
    /** Qubit index -> slot in the xFlips/zFlips vector (-1: none). */
    std::vector<int> _syndromeSlot;
    /** Words per frame plane. */
    std::size_t _words = 0;

    // The compiled round: sub-cycles with work, in schedule order.
    // Sites run sub-cycle major, qubit minor -- the noise draw order.
    std::vector<Layer> _layers;
    std::vector<Step> _steps;
    std::vector<std::uint64_t> _masks; ///< _words words per step
    std::vector<Site> _sites;

    // Batch-engine registry counters, bound once at construction
    // (never function-local statics -- registry-lifetime hazard).
    sim::metrics::Counter &_mBatchRounds;
    sim::metrics::Counter &_mBatchLaneRounds;
    sim::metrics::Counter &_mBatchWordUops;
    sim::metrics::Counter &_mBatchFillBits;
};

/**
 * Execute one canonical extraction round directly on a stabilizer
 * tableau (noise must be injected by the caller via applyPauli).
 * @return the raw ancilla measurement outcomes (not flips) in
 *         (xAncillas, zAncillas) order.
 */
SyndromeRound runRoundOnTableau(const RoundSchedule &schedule,
                                quantum::Tableau &tableau,
                                sim::Rng &rng);

} // namespace quest::qecc

#endif // QUEST_QECC_EXTRACTOR_HPP
