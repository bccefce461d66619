#include "network.hpp"

#include <cmath>

#include "sim/fault_injector.hpp"
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
      _retransmits("network.retransmits", "link-level retransmissions"),
      _lost("network.packets_lost", "packets dropped in flight"),
      _corrupted("network.packets_corrupted", "packets rejected by CRC"),
      _failures("network.delivery_failures",
                "packets abandoned after the retry budget"),
      _overheadBytes("network.protocol_overhead_bytes",
                     "CRC trailers and ACK/NACK tokens (bytes)"),
      _latencyHist(sim::metrics::Registry::global().histogram(
          "network.latency", "packet latency (ps)"))
{}

void
PacketNetwork::attachFaults(sim::FaultInjector *faults)
{
    _faults = faults;
    // Jitter stream keyed off the injector seed (and nothing else):
    // a retransmitting run replays bit-for-bit under a fixed fault
    // seed, and two networks attached to differently-seeded
    // injectors desynchronise their retry storms.
    if (faults != nullptr)
        _jitterRng.seed(sim::Rng::deriveSeed(
            faults->config().seed, 0xBACC0FFull));
}

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

    const auto serialization = [this](std::size_t b) {
        return sim::Tick(
            std::ceil(double(b) / linkBytesPerTick));
    };
    const sim::Tick hop_time =
        sim::Tick(timing.hops) * hopLatency;

    if (_faults == nullptr || !_faults->enabled()) {
        // Fault-free fast path: no CRC, no ACK, accounting identical
        // to the perfect-network model.
        timing.latency = hop_time + serialization(bytes);
        _bytes += bytes;
        ++_packets;
        _latencyTotal += timing.latency;
        _latencyHist.record(timing.latency);
        return timing;
    }

    // CRC-protected packet with ACK/NACK and a bounded retry budget.
    const std::size_t wire_bytes = bytes + crcBytes;
    timing.delivered = false;
    for (std::size_t attempt = 0; attempt <= retryLimit; ++attempt) {
        timing.attempts = attempt + 1;
        if (attempt > 0) {
            ++_retransmits;
            // Exponential backoff before each retransmission, with
            // a deterministic jitter fraction so concurrent senders
            // that lost packets together do not retry in lockstep.
            // The draw is seeded (attachFaults), never wall clock.
            const sim::Tick base = retryBackoff << (attempt - 1);
            timing.latency += sim::Tick(
                double(base)
                * (1.0 - retryJitter
                   + retryJitter * _jitterRng.uniform()));
        }
        _bytes += wire_bytes;
        _overheadBytes += crcBytes;
        timing.latency += hop_time + serialization(wire_bytes);

        if (_faults->fire(sim::FaultSite::NetworkLoss)) {
            // Dropped in flight: the sender times out waiting for
            // the ACK (one return trip) before retrying.
            ++_lost;
            timing.latency += hop_time;
            continue;
        }
        const bool corrupt =
            _faults->fire(sim::FaultSite::NetworkCorruption);
        // The receiver answers either way: ACK on a clean CRC, NACK
        // when the trailer flags corruption.
        _bytes += ackBytes;
        _overheadBytes += ackBytes;
        timing.latency += hop_time + serialization(ackBytes);
        if (corrupt) {
            ++_corrupted;
            continue;
        }
        timing.delivered = true;
        break;
    }
    if (!timing.delivered)
        ++_failures;

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
