/**
 * @file
 * Global minimum-weight perfect-matching decoder (Appendix A.2).
 *
 * "Pairs of flipped syndromes are connected to generate a weighted
 * graph. To find the exact locations of the errors, the minimum
 * weight matching algorithm is run on the graph." Each detection
 * event must be matched either to another event of the same
 * stabilizer type or to the nearest code boundary; edge weights are
 * space-time Manhattan distances (data qubits crossed plus rounds
 * spanned).
 *
 * Matching strategy: exact minimum-weight matching by bitmask
 * dynamic programming for up to `exactLimit` events (optimal), and a
 * greedy globally-shortest-edge-first matcher beyond that (the
 * standard scalable approximation). Both support boundary matches.
 */

#ifndef QUEST_DECODE_MWPM_DECODER_HPP
#define QUEST_DECODE_MWPM_DECODER_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "detection.hpp"
#include "qecc/lattice.hpp"
#include "sim/metrics.hpp"

namespace quest::decode {

/** One pairing decision made by the matcher. */
struct Match
{
    std::size_t a = 0;      ///< index into the event list
    std::size_t b = 0;      ///< partner index; ignored if boundary
    bool toBoundary = false;
    std::uint64_t weight = 0;
};

/** Result of decoding one stabilizer type's events. */
struct MatchingResult
{
    std::vector<Match> matches;
    std::uint64_t totalWeight = 0;
};

/**
 * The global decoder living in the master controller.
 *
 * Thread safety: decode()/matchEvents() and the distance/path
 * queries are const and keep their mutable working state in
 * thread-local scratch arenas, so one decoder instance may decode
 * from many threads concurrently (the parallel Monte-Carlo sweeps
 * rely on this). The setters are not synchronised; configure the
 * decoder before sharing it.
 */
class MwpmDecoder
{
  public:
    /** Predicate: is syndrome generation masked on this qubit? */
    using MaskPredicate = std::function<bool(std::size_t)>;

    /**
     * Hard cap on `exact_limit`: the bitmask DP table holds
     * 2^exact_limit entries, so anything beyond this is a multi-GiB
     * allocation (and, past 63, undefined behaviour in the shift
     * computing the table size).
     */
    static constexpr std::size_t maxExactLimit = 24;

    /**
     * @param lattice Code geometry (must outlive the decoder).
     * @param exact_limit Largest event count decoded by the exact
     *        bitmask DP; larger sets fall back to greedy matching.
     *        Must be <= maxExactLimit.
     */
    explicit MwpmDecoder(const qecc::Lattice &lattice,
                         std::size_t exact_limit = 14);

    /**
     * Make the decoder defect-aware: masked (syndrome-disabled)
     * regions act as additional open boundaries where error chains
     * can terminate, exactly like the lattice edge. The predicate is
     * re-evaluated on every decode so it may track a live mask
     * table.
     */
    void
    setMaskPredicate(MaskPredicate masked)
    {
        _masked = std::move(masked);
    }

    /** The code geometry this decoder matches on. */
    const qecc::Lattice &lattice() const { return *_lattice; }

    /**
     * Decode all detection events into a correction.
     * Z-check events yield X corrections and vice versa.
     */
    Correction decode(const DetectionEvents &events) const;

    /** Match one same-type event set (exposed for tests/benches). */
    MatchingResult matchEvents(
        const std::vector<DetectionEvent> &events) const;

    /**
     * Match one same-type event set and XOR each matched path into
     * `bits`, a flip map with one byte per lattice site. decode()
     * runs this once per stabilizer type; ClusterDecoder once per
     * cluster.
     */
    void matchInto(const std::vector<DetectionEvent> &events,
                   std::vector<std::uint8_t> &bits) const;

    /**
     * Space-time distance between two same-type events: data qubits
     * crossed between the checks plus rounds spanned.
     */
    std::uint64_t distance(const DetectionEvent &a,
                           const DetectionEvent &b) const;

    /** Data qubits crossed to reach the nearest open boundary. */
    std::uint64_t boundaryDistance(const DetectionEvent &e) const;

    /**
     * Data-qubit path between two same-type checks (L-shaped:
     * rows first, then columns).
     */
    std::vector<std::size_t> pathBetween(qecc::Coord a,
                                         qecc::Coord b) const;

    /** Data-qubit path from a check to its nearest boundary. */
    std::vector<std::size_t> pathToBoundary(qecc::Coord a) const;

    /** Allocation-free variants: append the path onto `out`. */
    void pathBetween(qecc::Coord a, qecc::Coord b,
                     std::vector<std::size_t> &out) const;
    void pathToBoundary(qecc::Coord a,
                        std::vector<std::size_t> &out) const;

  private:
    const qecc::Lattice *_lattice;
    std::size_t _exactLimit;
    MaskPredicate _masked;

    /**
     * Per-lattice distance cache, built once at construction: the
     * hot paths (exact DP precompute, greedy edge build, cluster
     * growth) query distance()/boundaryDistance() O(n^2) times per
     * decode, and recomputing the lattice geometry each time
     * dominated the profile. `_ancillaId` maps a lattice site index
     * to a compact ancilla id; `_spatial` holds (dr+dc)/2 for every
     * ancilla pair; `_edge` holds each ancilla's data-qubit count to
     * the nearest lattice edge. Empty (= disabled) when the
     * all-pairs table would be unreasonably large.
     */
    std::vector<std::uint32_t> _ancillaId;
    std::vector<std::uint32_t> _spatial;
    std::vector<std::uint32_t> _edge;
    std::size_t _numAncilla = 0;

    // Registry counters, bound once at construction rather than via
    // function-local statics (which outlive registry resets).
    sim::metrics::Counter &_mExactMatchings;
    sim::metrics::Counter &_mGreedyMatchings;
    sim::metrics::Counter &_mEventsMatched;
    sim::metrics::Counter &_mMatchedWeight;
    sim::metrics::Counter &_mDecodes;

    MatchingResult matchExact(
        const std::vector<DetectionEvent> &events) const;
    MatchingResult matchGreedy(
        const std::vector<DetectionEvent> &events) const;

    /** Distance to the lattice edge only (ignores masks). */
    std::uint64_t edgeDistance(const DetectionEvent &e) const;

    /**
     * Nearest same-type masked check, if any: defect boundaries
     * terminate chains just like lattice edges.
     * @return (distance, coord) or nullopt when nothing is masked.
     */
    std::optional<std::pair<std::uint64_t, qecc::Coord>>
    nearestMaskedCheck(const DetectionEvent &e) const;
};

} // namespace quest::decode

#endif // QUEST_DECODE_MWPM_DECODER_HPP
