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
 *
 * Greedy takes edges in one total order: by weight, then a pair
 * edge before a boundary edge, then by event indices (a, b). Under
 * that order a pair edge heavier than either endpoint's boundary
 * edge comes after it, when the endpoint is already used, so greedy
 * never generates such an edge. Since a pair weight is at least the
 * two events' round gap, each event's scan over its partners, walked
 * in round order, stops at the first gap above its boundary weight.
 * A non-Manhattan metric (a detector graph with diagonal or
 * log-likelihood weights) must keep pair weight >= round gap, or
 * that stop has to go.
 */

#ifndef QUEST_DECODE_MWPM_DECODER_HPP
#define QUEST_DECODE_MWPM_DECODER_HPP

#include <cstdint>
#include <functional>
#include <memory>
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
 * The matcher's distance tables for one lattice, built once and read
 * by every decoder of that geometry: a tile's configuration compiles
 * one (core::CompiledTile) for all of its tiles, streamers and
 * cluster fallbacks. The matchers query distances O(n^2) times per
 * decode, and recomputing the lattice geometry each time dominated
 * the profile, so they look each event's id up once and read pair
 * weights straight from `spatial`.
 */
struct MatchGeometry
{
    /** Build the tables for `lattice`, which must outlive them. */
    explicit MatchGeometry(const qecc::Lattice &lattice);

    const qecc::Lattice *lattice;
    /** Lattice site index -> compact ancilla id. */
    std::vector<std::uint32_t> ancillaId;
    /** (dr+dc)/2 for every ancilla pair, row-major by id. */
    std::vector<std::uint32_t> spatial;
    /** Each ancilla's data-qubit count to the nearest lattice edge. */
    std::vector<std::uint32_t> edge;
    /** Ancillas in the tables; all of them are empty (disabled) when
     *  the all-pairs table would be unreasonably large. */
    std::size_t numAncilla = 0;
};

/**
 * Each stabilizer type's masked checks, in Lattice::sites() order:
 * the mask predicate read in one pass (MwpmDecoder::maskedChecks).
 * matchEvents() and pathToBoundary() given one search it for the
 * nearest masked check instead of walking the lattice through the
 * predicate per query. It goes stale when the mask changes.
 */
struct MaskedChecks
{
    std::vector<qecc::Coord> zChecks;
    std::vector<qecc::Coord> xChecks;

    const std::vector<qecc::Coord> &
    of(qecc::SiteType type) const
    {
        return type == qecc::SiteType::ZAncilla ? zChecks : xChecks;
    }
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
     * @param lattice Code geometry (must outlive the decoder); the
     *        decoder builds its own MatchGeometry for it.
     * @param exact_limit Largest event count decoded by the exact
     *        bitmask DP; larger sets fall back to greedy matching.
     *        Must be <= maxExactLimit.
     */
    explicit MwpmDecoder(const qecc::Lattice &lattice,
                         std::size_t exact_limit = 14);

    /** Match on distance tables shared with other decoders. */
    explicit MwpmDecoder(std::shared_ptr<const MatchGeometry> geometry,
                         std::size_t exact_limit = 14);

    /**
     * Make the decoder defect-aware: masked (syndrome-disabled)
     * regions act as additional open boundaries where error chains
     * can terminate, exactly like the lattice edge. The predicate may
     * track a live mask table: no snapshot of it outlives the call
     * that took it. decode() reads one maskedChecks() snapshot when
     * either type's set is above `exact_limit`, ClusterDecoder one
     * per decode; every other query (smaller sets, and
     * matchEvents()/matchInto()/pathToBoundary() called without a
     * snapshot) re-evaluates it per event weight and boundary path.
     */
    void
    setMaskPredicate(MaskPredicate masked)
    {
        _masked = std::move(masked);
    }

    /** The code geometry this decoder matches on. */
    const qecc::Lattice &lattice() const { return *_lattice; }

    /** The distance tables this decoder reads. */
    const MatchGeometry &geometry() const { return *_geometry; }

    /** The checks the mask predicate masks now, in one pass (none
     *  without a predicate). */
    MaskedChecks maskedChecks() const;

    /**
     * Decode all detection events into a correction.
     * Z-check events yield X corrections and vice versa. Each type's
     * set is held to the matchEvents() precondition. With a mask
     * predicate and either set above `exact_limit`, both types match
     * through one maskedChecks() snapshot taken by this call;
     * otherwise every query reads the predicate.
     */
    Correction decode(const DetectionEvents &events) const;

    /**
     * Match one same-type event set (exposed for tests/benches).
     *
     * Sets larger than `exact_limit` go to the greedy matcher, which
     * takes at most 65 536 events (it panics on more: each edge packs
     * both event indices into 16 bits). It takes edges by weight,
     * then pair before boundary, then by (a, b), and generates only
     * pairs no heavier than both endpoints' boundary weights: no
     * other edge can be taken. The events need not be in round
     * order. The exact matcher has no size or weight limit.
     *
     * With `masked`, boundary weights read that snapshot instead of
     * the predicate; the result is the same while the mask is.
     */
    MatchingResult matchEvents(
        const std::vector<DetectionEvent> &events,
        const MaskedChecks *masked = nullptr) const;

    /**
     * Match one same-type event set and XOR each matched path into
     * `bits`, a flip map with one byte per lattice site. decode()
     * runs this once per stabilizer type; ClusterDecoder once per
     * cluster. With `masked`, both the matching and the boundary
     * paths read that snapshot, as in matchEvents(); without it, the
     * predicate per query.
     */
    void matchInto(const std::vector<DetectionEvent> &events,
                   std::vector<std::uint8_t> &bits,
                   const MaskedChecks *masked = nullptr) const;

    /**
     * Space-time distance between two same-type events: data qubits
     * crossed between the checks plus rounds spanned.
     */
    std::uint64_t distance(const DetectionEvent &a,
                           const DetectionEvent &b) const;

    /** Data qubits crossed to reach the nearest open boundary;
     *  `masked` as in matchEvents(). */
    std::uint64_t boundaryDistance(
        const DetectionEvent &e, const MaskedChecks *masked = nullptr) const;

    /**
     * Data-qubit path between two same-type checks (L-shaped:
     * rows first, then columns).
     */
    std::vector<std::size_t> pathBetween(qecc::Coord a,
                                         qecc::Coord b) const;

    /** Data-qubit path from a check to its nearest boundary. */
    std::vector<std::size_t> pathToBoundary(qecc::Coord a) const;

    /** Allocation-free variants: append the path onto `out`. The
     *  boundary path reads `masked`, when given, as matchEvents()
     *  does. */
    void pathBetween(qecc::Coord a, qecc::Coord b,
                     std::vector<std::size_t> &out) const;
    void pathToBoundary(qecc::Coord a, std::vector<std::size_t> &out,
                        const MaskedChecks *masked = nullptr) const;

  private:
    std::shared_ptr<const MatchGeometry> _geometry;
    /** The geometry's lattice, one load away on the hot paths. */
    const qecc::Lattice *_lattice;
    std::size_t _exactLimit;
    MaskPredicate _masked;

    // Registry counters, bound once at construction rather than via
    // function-local statics (which outlive registry resets).
    sim::metrics::Counter &_mExactMatchings;
    sim::metrics::Counter &_mGreedyMatchings;
    sim::metrics::Counter &_mEventsMatched;
    sim::metrics::Counter &_mMatchedWeight;
    sim::metrics::Counter &_mDecodes;

    MatchingResult matchExact(const std::vector<DetectionEvent> &events,
                              const MaskedChecks *masked) const;
    MatchingResult matchGreedy(const std::vector<DetectionEvent> &events,
                               const MaskedChecks *masked) const;

    /**
     * Per-event inputs to a matching: `ids` gets each event's
     * ancilla id (left empty when the all-pairs table is disabled)
     * and `bweight` its boundaryDistance().
     */
    void eventWeights(const std::vector<DetectionEvent> &events,
                      const MaskedChecks *masked,
                      std::vector<std::uint32_t> &ids,
                      std::vector<std::uint64_t> &bweight) const;

    /**
     * distance() from the all-pairs table: ancilla ids `a`, `b` at
     * rounds `ra`, `rb`. The table must be enabled.
     */
    std::uint64_t tableDistance(std::uint32_t a, std::size_t ra,
                                std::uint32_t b, std::size_t rb) const;

    /** distance(events[i], events[j]) from the ids eventWeights() set. */
    std::uint64_t pairWeight(const std::vector<DetectionEvent> &events,
                             const std::vector<std::uint32_t> &ids,
                             std::size_t i, std::size_t j) const;

    /** Distance to the lattice edge only (ignores masks). */
    std::uint64_t edgeDistance(const DetectionEvent &e) const;

    /**
     * Nearest same-type masked check, if any: defect boundaries
     * terminate chains just like lattice edges. Ties go to the first
     * in Lattice::sites() order. Searches `masked` when given, else
     * walks the lattice through the predicate.
     * @return (distance, coord) or nullopt when nothing is masked.
     */
    std::optional<std::pair<std::uint64_t, qecc::Coord>>
    nearestMaskedCheck(const DetectionEvent &e,
                       const MaskedChecks *masked) const;
};

} // namespace quest::decode

#endif // QUEST_DECODE_MWPM_DECODER_HPP
