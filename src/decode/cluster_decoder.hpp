/**
 * @file
 * Union-Find-style cluster decoder.
 *
 * The master controller's MWPM decoder is accurate but its exact
 * matching is exponential in the event count and even the greedy
 * fallback is O(E^2). Real-time decoding proposals (Delfosse &
 * Nickerson's Union-Find decoder) instead grow clusters around
 * detection events on the space-time graph, merge colliding
 * clusters with union-find, and stop growing a cluster as soon as
 * it is *neutral* (even event parity, or touching an open
 * boundary). Corrections are then computed locally per cluster.
 *
 * This implementation follows that scheme with one simplification:
 * intra-cluster pairing is delegated to the exact matcher (clusters
 * are tiny at any error rate where the code works, so this is both
 * fast and at least as accurate as peeling). That matcher is
 * borrowed, not owned: a tile has one MwpmDecoder, whose distance
 * tables, boundary model and mask predicate both decoders read. It
 * serves as the scalable alternative to full MWPM and as a
 * cross-check in tests: both decoders must agree on correctability
 * for all guaranteed patterns.
 */

#ifndef QUEST_DECODE_CLUSTER_DECODER_HPP
#define QUEST_DECODE_CLUSTER_DECODER_HPP

#include <cstdint>
#include <vector>

#include "mwpm_decoder.hpp"
#include "sim/metrics.hpp"

namespace quest::decode {

/** Statistics from one cluster decode (exposed for benches/tests). */
struct ClusterStats
{
    std::size_t clusters = 0;       ///< final neutral clusters
    std::size_t largestCluster = 0; ///< events in the biggest one
    std::size_t growthSteps = 0;    ///< total growth iterations
};

/** UF-style cluster decoder over space-time detection events. */
class ClusterDecoder
{
  public:
    /**
     * @param matcher The tile's matcher (must outlive the decoder):
     *        it supplies distances, boundaries, masks and the
     *        per-cluster pairing.
     */
    explicit ClusterDecoder(const MwpmDecoder &matcher)
        : _matcher(&matcher),
          _mDecodes(sim::metrics::Registry::global().counter(
              "decode.cluster.decodes",
              "calls to ClusterDecoder::decode")),
          _mClusters(sim::metrics::Registry::global().counter(
              "decode.cluster.clusters", "neutral clusters formed")),
          _mGrowthSteps(sim::metrics::Registry::global().counter(
              "decode.cluster.growth_steps",
              "cluster growth iterations")),
          _mClusterSize(sim::metrics::Registry::global().histogram(
              "decode.cluster.size", "events per resolved cluster"))
    {}

    /** Decode all events; Z-check events give X corrections. Each
     *  call reads the matcher's mask predicate once, into one
     *  maskedChecks() snapshot. */
    Correction decode(const DetectionEvents &events) const;

    /** Decode and also report clustering statistics. */
    Correction decode(const DetectionEvents &events,
                      ClusterStats &stats) const;

  private:
    const MwpmDecoder *_matcher;

    // Constructor-bound registry counters (no function-local
    // statics; they outlive registry resets).
    sim::metrics::Counter &_mDecodes;
    sim::metrics::Counter &_mClusters;
    sim::metrics::Counter &_mGrowthSteps;
    sim::metrics::Histogram &_mClusterSize;

    /**
     * Cluster one stabilizer type's events and fold the resulting
     * corrections into `bits`; boundaries read `masked`, the
     * snapshot decode() took.
     */
    void decodeType(const std::vector<DetectionEvent> &events,
                    const MaskedChecks &masked,
                    std::vector<std::uint8_t> &bits,
                    ClusterStats &stats) const;
};

} // namespace quest::decode

#endif // QUEST_DECODE_CLUSTER_DECODER_HPP
