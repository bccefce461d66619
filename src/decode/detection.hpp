/**
 * @file
 * Space-time detection events (paper Appendix A.2).
 *
 * The raw output of syndrome extraction is a per-round flip bit for
 * every ancilla. Decoders do not consume these directly: a syndrome
 * that flips and stays flipped indicates one error, not one error
 * per round. A *detection event* marks a (round, ancilla) position
 * where the measured flip differs from the previous round -- the
 * classical data structure "which stores the changes in syndrome
 * measurement in space and time" that the paper's decoder consumes.
 */

#ifndef QUEST_DECODE_DETECTION_HPP
#define QUEST_DECODE_DETECTION_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qecc/extractor.hpp"
#include "qecc/lattice.hpp"

namespace quest::decode {

/** Wire size of one forwarded detection event (row, col, round). */
inline constexpr std::size_t detectionEventBytes = 4;

/** One syndrome change at a space-time position. */
struct DetectionEvent
{
    std::size_t round = 0;        ///< QECC round of the change
    qecc::Coord ancilla;          ///< lattice coordinate of the check
    qecc::SiteType type = qecc::SiteType::XAncilla;

    bool operator==(const DetectionEvent &other) const = default;
};

/** Detection events split by stabilizer type. */
struct DetectionEvents
{
    /** Events on X checks: mark Z (phase) errors. */
    std::vector<DetectionEvent> xEvents;
    /** Events on Z checks: mark X (bit-flip) errors. */
    std::vector<DetectionEvent> zEvents;

    std::size_t total() const { return xEvents.size() + zEvents.size(); }
};

/**
 * Difference consecutive syndrome rounds into detection events.
 * Round 0 is differenced against the all-zero reference (the code
 * starts in the code space).
 */
DetectionEvents extractDetectionEvents(
    const std::vector<qecc::SyndromeRound> &history,
    const qecc::SyndromeExtractor &extractor);

/**
 * As extractDetectionEvents, but difference the first round against
 * an explicit baseline (the last round of the previous decode
 * window) and offset the reported round numbers by `first_round`.
 */
DetectionEvents extractDetectionEventsWindow(
    const std::vector<qecc::SyndromeRound> &history,
    const qecc::SyndromeExtractor &extractor,
    const qecc::SyndromeRound *baseline, std::size_t first_round);

/**
 * The core of extractDetectionEventsWindow: append the events of
 * `rounds` onto `out`, each type's list in the same round-major,
 * ancilla-index order. A caller that already holds the events of
 * earlier rounds extracts only the rounds after them, with the last
 * of those rounds as `baseline`.
 */
void appendDetectionEvents(std::span<const qecc::SyndromeRound> rounds,
                           const qecc::SyndromeExtractor &extractor,
                           const qecc::SyndromeRound *baseline,
                           std::size_t first_round, DetectionEvents &out);

/**
 * Difference a batched syndrome history into per-lane detection
 * events. Lane t of the result is exactly what
 * extractDetectionEvents would return for lane t's scalar history:
 * the same events in the same round-major, ancilla-index order. The
 * round differencing itself is one XOR per ancilla word (all 64
 * lanes at once); only ancillas that changed in some lane fan out
 * to per-lane event lists.
 */
std::vector<DetectionEvents> extractDetectionEventsBatch(
    const std::vector<qecc::BatchSyndromeRound> &history,
    const qecc::SyndromeExtractor &extractor);

/**
 * Allocation-reusing core of extractDetectionEventsBatch: `out` is
 * resized to the lane count and every per-lane event vector is
 * cleared in place, so a caller that keeps `out` across batches pays
 * no allocator traffic in steady state (events are sparse at
 * physical error rates, which makes the allocator the dominant cost
 * of the by-value variant — see bench/kernel_speed `frames`). The
 * first round is differenced against `baseline` (the last batched
 * round of the previous decode window; nullptr for all-zero) and
 * round numbers are offset by `first_round` -- lane-for-lane parity
 * with extractDetectionEventsWindow.
 */
void extractDetectionEventsBatchInto(
    const std::vector<qecc::BatchSyndromeRound> &history,
    const qecc::SyndromeExtractor &extractor,
    const qecc::BatchSyndromeRound *baseline, std::size_t first_round,
    std::vector<DetectionEvents> &out);

/**
 * A correction: the set of data-qubit X flips and Z flips that, when
 * applied, should return the system to the code space.
 */
struct Correction
{
    std::vector<std::size_t> xFlips; ///< data qubits to apply X to
    std::vector<std::size_t> zFlips; ///< data qubits to apply Z to

    std::size_t weight() const { return xFlips.size() + zFlips.size(); }

    /** Merge another correction into this one (XOR semantics). */
    void merge(const Correction &other);

    /** Replace the flips with those of per-site flip maps, as
     *  fromFlipMaps() builds them, keeping this correction's
     *  capacity. */
    void assignFlipMaps(const std::vector<std::uint8_t> &xflip,
                        const std::vector<std::uint8_t> &zflip);

    /**
     * Fold per-site flip maps (one byte per lattice site, odd = flip)
     * into a canonical correction: sorted, duplicate-free.
     */
    static Correction fromFlipMaps(const std::vector<std::uint8_t> &xflip,
                                   const std::vector<std::uint8_t> &zflip);
};

/** Apply a correction to a Pauli frame. */
void applyCorrection(quantum::PauliFrame &frame, const Correction &corr);

} // namespace quest::decode

#endif // QUEST_DECODE_DETECTION_HPP
