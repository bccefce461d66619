#include "network.hpp"

#include <cmath>

#include "sim/logging.hpp"

namespace quest::core {

namespace {

/** Depth of the radix tree covering `mce_count` leaves. */
std::size_t
treeDepth(std::size_t mce_count)
{
    QUEST_ASSERT(mce_count > 0, "network needs at least one MCE");
    std::size_t depth = 1;
    std::size_t reach = PacketNetwork::radix;
    while (reach < mce_count) {
        reach *= PacketNetwork::radix;
        ++depth;
    }
    return depth;
}

} // namespace

PacketNetwork::PacketNetwork(std::size_t mce_count)
    : _mceCount(mce_count),
      _depth(treeDepth(mce_count)),
      _bytes("network.bytes", "bytes carried by the network"),
      _packets("network.packets", "packets delivered"),
      _latencyTotal("network.latency_ticks", "sum of packet latencies"),
      _latencyHist(sim::metrics::Registry::global().histogram(
          "network.latency", "packet latency (ps)"))
{}

std::size_t
PacketNetwork::hopsToMce(std::size_t mce_index) const
{
    QUEST_ASSERT(mce_index < _mceCount,
                 "MCE index %zu out of range", mce_index);
    // Balanced tree: every leaf is `depth` router hops from the
    // root plus the injection/ejection links.
    return _depth + 1;
}

PacketTiming
PacketNetwork::send(std::size_t mce_index, std::size_t bytes)
{
    QUEST_ASSERT(bytes > 0, "empty packet");
    PacketTiming timing;
    timing.hops = hopsToMce(mce_index);
    timing.latency = sim::Tick(timing.hops) * hopLatency
        + sim::Tick(std::ceil(double(bytes) / linkBytesPerTick));
    _bytes += bytes;
    ++_packets;
    _latencyTotal += timing.latency;
    _latencyHist.record(timing.latency);
    return timing;
}

double
PacketNetwork::meanLatencyTicks() const
{
    const double packets = double(_packets.value());
    return packets > 0 ? double(_latencyTotal.value()) / packets : 0.0;
}

} // namespace quest::core
