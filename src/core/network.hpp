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
 */

#ifndef QUEST_CORE_NETWORK_HPP
#define QUEST_CORE_NETWORK_HPP

#include <cstdint>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/types.hpp"

namespace quest::core {

/** One delivered packet's timing. */
struct PacketTiming
{
    std::size_t hops = 0;
    sim::Tick latency = 0;
    bool delivered = true; ///< always: the model loses no packet
};

/** Analytical packet-switched tree network. */
class PacketNetwork
{
  public:
    static constexpr std::size_t radix = 4; ///< tree fan-out per router
    static constexpr sim::Tick hopLatency = sim::nanoseconds(5);
    static constexpr double linkBytesPerTick = 0.004; ///< 4 GB/s (B/ps)

    explicit PacketNetwork(std::size_t mce_count);

    /** Tree depth from the master to any MCE leaf. */
    std::size_t depth() const { return _depth; }

    /** Hops between the master (node 0) and an MCE leaf. */
    std::size_t hopsToMce(std::size_t mce_index) const;

    /**
     * Account one packet from the master to an MCE (or back).
     * @return hop count and end-to-end latency.
     */
    PacketTiming send(std::size_t mce_index, std::size_t bytes);

    /** Total bytes accepted by the network. */
    double bytesCarried() const { return double(_bytes.value()); }
    double packetsCarried() const { return double(_packets.value()); }

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

    sim::metrics::Tally _bytes;
    sim::metrics::Tally _packets;
    sim::metrics::Tally _latencyTotal;
    sim::metrics::Histogram &_latencyHist;
};

} // namespace quest::core

#endif // QUEST_CORE_NETWORK_HPP
