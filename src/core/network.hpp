/**
 * @file
 * Packet-switched global interconnect (Section 4.2: "The master
 * controller delivers logical instructions to MCE using a packet
 * switched network", Figure 7's global data and instruction bus).
 *
 * The network connects the 77 K master controller (node 0) to the
 * MCE array at 4 K. Topology is a balanced radix-4 tree
 * (point-to-point wiring across thermal stages is the scarce
 * resource, so a tree matches the physical wiring plan). The model
 * is analytical per packet -- hop latency plus serialization --
 * with per-link byte accounting so utilization and the bisection
 * load can be reported. Because QuEST needs only logical-rate
 * traffic here, the interesting output is how *little* of the
 * network this uses; the same model pointed at the baseline's
 * physical-rate stream shows the wiring that QuEST avoids.
 *
 * Resilience: when a sim::FaultInjector with nonzero rates is
 * attached, every packet carries a CRC trailer and is acknowledged;
 * a lost packet times out and a corrupted one is NACKed, and the
 * sender retransmits with exponential backoff up to a bounded retry
 * budget. All retransmit bytes and latency are charged to the same
 * counts as first-try traffic, so the bandwidth figures stay honest
 * under faults. A fault-free network (no injector, or all-zero
 * rates) takes the original zero-overhead path and its accounting
 * is bit-identical to the seed model.
 */

#ifndef QUEST_CORE_NETWORK_HPP
#define QUEST_CORE_NETWORK_HPP

#include <cstdint>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace quest::sim {
class FaultInjector;
}

namespace quest::core {

/** One delivered packet's timing. */
struct PacketTiming
{
    std::size_t hops = 0;
    sim::Tick latency = 0;
    std::size_t attempts = 1;  ///< transmissions including retries
    bool delivered = true;     ///< false when the retry budget ran out
};

/** Analytical packet-switched tree network. */
class PacketNetwork
{
  public:
    static constexpr std::size_t radix = 4; ///< tree fan-out per router
    static constexpr sim::Tick hopLatency = sim::nanoseconds(5);
    static constexpr double linkBytesPerTick = 0.004; ///< 4 GB/s (B/ps)

    /** @name Link-level CRC + ACK/NACK retransmit protocol.
     *  Engaged only while an enabled FaultInjector is attached. */
    ///@{
    static constexpr std::size_t crcBytes = 2; ///< CRC trailer per packet
    static constexpr std::size_t ackBytes = 2; ///< ACK/NACK return token
    static constexpr std::size_t retryLimit = 4; ///< retransmissions
    /** First backoff step; it doubles per retry. */
    static constexpr sim::Tick retryBackoff = sim::nanoseconds(10);

    /**
     * Fraction of each backoff step randomised: step k waits
     * `base·2^k · (1 − j + j·u)` with u uniform in [0, 1). Senders
     * whose packets died together then retry apart instead of
     * re-colliding in lockstep (the classic retry-storm fix). The
     * draw comes from a dedicated stream seeded off the attached
     * FaultInjector's seed — never the wall clock — so a faulty run
     * replays bit-for-bit.
     */
    static constexpr double retryJitter = 0.5;
    ///@}

    explicit PacketNetwork(std::size_t mce_count);

    /**
     * Attach the classical fault source. Packet loss and corruption
     * (and the CRC/ACK protocol that recovers from them) are active
     * only while the injector has a nonzero rate somewhere.
     */
    void attachFaults(sim::FaultInjector *faults);

    /** Tree depth from the master to any MCE leaf. */
    std::size_t depth() const { return _depth; }

    /** Hops between the master (node 0) and an MCE leaf. */
    std::size_t hopsToMce(std::size_t mce_index) const;

    /**
     * Account one packet from the master to an MCE (or back).
     * @return hop count, end-to-end latency (including retries) and
     *         whether the retry budget sufficed to deliver it.
     */
    PacketTiming send(std::size_t mce_index, std::size_t bytes);

    /** Total bytes accepted by the network (incl. ARQ overhead). */
    double bytesCarried() const { return double(_bytes.value()); }
    double packetsCarried() const { return double(_packets.value()); }

    /** @name CRC/retry protocol accounting. */
    ///@{
    double retransmits() const { return double(_retransmits.value()); }
    double lostPackets() const { return double(_lost.value()); }
    double corruptedPackets() const
    {
        return double(_corrupted.value());
    }
    double deliveryFailures() const { return double(_failures.value()); }
    double protocolOverheadBytes() const
    {
        return double(_overheadBytes.value());
    }
    ///@}

    /** Mean packet latency in ticks. */
    double meanLatencyTicks() const;

    /**
     * Offered load on the master's root link as a fraction of its
     * capacity, over the observed interval.
     * @param interval Ticks the traffic was spread over.
     */
    double
    rootLinkUtilization(sim::Tick interval) const
    {
        if (interval == 0)
            return 0.0;
        const double capacity = linkBytesPerTick * double(interval);
        return double(_bytes.value()) / capacity;
    }

  private:
    std::size_t _mceCount;
    std::size_t _depth;
    sim::FaultInjector *_faults = nullptr;
    sim::Rng _jitterRng; ///< backoff jitter; reseeded on attachFaults

    sim::metrics::Tally _bytes;
    sim::metrics::Tally _packets;
    sim::metrics::Tally _latencyTotal;
    sim::metrics::Tally _retransmits;
    sim::metrics::Tally _lost;
    sim::metrics::Tally _corrupted;
    sim::metrics::Tally _failures;
    sim::metrics::Tally _overheadBytes;
    sim::metrics::Histogram &_latencyHist;
};

} // namespace quest::core

#endif // QUEST_CORE_NETWORK_HPP
