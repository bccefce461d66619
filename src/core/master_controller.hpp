/**
 * @file
 * Master controller (Section 4.2, Figure 7).
 *
 * The master controller sits in the 77 K CMOS domain and
 * orchestrates all logical operations: it dispatches 2-byte logical
 * instructions to the owning MCE over the packet-switched global
 * bus, collects residual detection events from the MCEs' local
 * decoders, runs the global MWPM decode, and returns corrections.
 * Everything crossing the global bus is accounted by category so
 * the system model can reproduce the paper's bandwidth comparison.
 */

#ifndef QUEST_CORE_MASTER_CONTROLLER_HPP
#define QUEST_CORE_MASTER_CONTROLLER_HPP

#include <memory>
#include <vector>

#include "decode/mwpm_decoder.hpp"
#include "decode/streaming.hpp"
#include "mce.hpp"
#include "network.hpp"

namespace quest::core {

/** Configuration of the whole control processor. */
struct MasterConfig
{
    std::size_t numMces = 4;
    MceConfig mce;
    /** QECC rounds between global decodes; 0 means one code
     *  distance's worth (the standard decode cadence). */
    std::size_t decodeWindowRounds = 0;

    /** Streaming sliding-window decode: when nonzero, the offline
     *  collect-then-decode cadence is replaced by a per-tile
     *  decode::StreamingDecoder that consumes every round as it is
     *  extracted and commits overlapping windows of this many
     *  rounds. 0 keeps the offline path bit-identical to before. */
    std::size_t streamWindowRounds = 0;

    /** Streaming commit/slide distance; 0 picks half the window
     *  (minimum 1). streamStrideRounds == streamWindowRounds gives
     *  non-overlapping windows, the offline cadence. */
    std::size_t streamStrideRounds = 0;

    /** @name Multi-tile fetch arbitration.
     *  When sharedFetchBandwidth is nonzero, every stepRound() also
     *  runs the cycle-level arbiter: all live tiles' replay
     *  pipelines contend for that many shared JJ-memory fetch slots
     *  per cycle, producing per-tile bandwidth-wait counters and
     *  slack gauges. Purely observational — the functional replay is
     *  untouched — and off by default (0), keeping the golden traces
     *  bit-identical. */
    ///@{

    /** Shared fetch slots per cycle across all tiles (0 disables
     *  arbitration). */
    std::size_t sharedFetchBandwidth = 0;

    /** Grant policy when tiles contend. */
    ArbiterPolicy arbiterPolicy = ArbiterPolicy::RoundRobin;
    ///@}
};

/** Bytes on the bus per forwarded correction entry. */
inline constexpr std::size_t correctionEntryBytes = 4;

/** The 77 K master controller plus its array of MCEs. */
class MasterController
{
  public:
    explicit MasterController(const MasterConfig &cfg);

    std::size_t numMces() const { return _mces.size(); }
    Mce &mce(std::size_t i) { return *_mces.at(i); }
    const Mce &mce(std::size_t i) const { return *_mces.at(i); }

    /**
     * Dispatch one logical instruction. The operand's low bits
     * select the MCE (operand % numMces); the remaining bits are the
     * MCE-local logical qubit id. Charges one 2-byte packet to the
     * global bus.
     */
    void dispatch(const isa::LogicalInstr &instr);

    /**
     * Dispatch a distillation block to an MCE through its icache;
     * only the miss traffic (or a replay token) crosses the bus.
     */
    ICacheAccess dispatchBlock(std::size_t mce_idx,
                               std::uint32_t block_id,
                               const isa::LogicalTrace &body);

    /** Send one synchronization token to every MCE. */
    void broadcastSync();

    /**
     * Move a logical qubit from one MCE tile to another -- the
     * cross-MCE operation the paper leaves unevaluated (footnote 9),
     * modelled here as a teleportation-based transfer: the master
     * sends the channel-setup and measurement instructions to both
     * tiles (four 2-byte packets plus a sync token each), the
     * destination allocates fresh defects, both tiles run one code
     * distance of QECC rounds to complete the fault-tolerant hand-
     * off, and the source defects are retired.
     *
     * @return the logical qubit's id on the destination MCE.
     */
    int transferLogicalQubit(std::size_t src_mce, int src_id,
                             std::size_t dst_mce,
                             qecc::Coord dst_anchor);

    /**
     * Advance every MCE one QECC round; after each decode window,
     * collect residual events, decode globally and send corrections.
     */
    void stepRound();

    /** Run n rounds. */
    void
    runRounds(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            stepRound();
    }

    /** Force a global decode immediately. In streaming mode this
     *  flushes every tile's streaming decoder (an end-of-shot
     *  barrier), committing all buffered rounds. */
    void decodeNow();

    /** True when the streaming sliding-window decode path is on. */
    bool streamingDecode() const
    {
        return _cfg.streamWindowRounds > 0;
    }

    /** Tile i's offline matcher (offline mode only). */
    const decode::MwpmDecoder &decoder(std::size_t i) const
    {
        return _decoders.at(i);
    }

    /** Tile i's streaming decoder (streaming mode only). */
    const decode::StreamingDecoder &streamer(std::size_t i) const
    {
        return *_streamers.at(i);
    }

    /** True when the shared-bandwidth arbiter runs each round. */
    bool arbitrating() const
    {
        return _cfg.sharedFetchBandwidth > 0;
    }

    /** The arbiter's plan for the last stepRound(). Asserts that
     *  arbitration is on and at least one round has run. */
    const ArbitrationResult &lastArbitration() const;

    /** @name Global bus accounting (bytes). */
    ///@{
    double busBytesLogical() const
    {
        return double(_bytesLogical.value());
    }
    double busBytesSync() const { return double(_bytesSync.value()); }
    double busBytesSyndrome() const
    {
        return double(_bytesSyndrome.value());
    }
    double busBytesCorrections() const
    {
        return double(_bytesCorrections.value());
    }
    double busBytesCacheTraffic() const
    {
        return double(_bytesCache.value());
    }
    double totalBusBytes() const;
    ///@}

    /**
     * Bytes the baseline software-managed design would have
     * streamed for the rounds executed so far: one byte-sized
     * instruction per qubit per sub-cycle (Section 3.3).
     */
    double baselineEquivalentBytes() const;

    std::size_t roundsRun() const { return _roundsRun; }

    /** The packet-switched interconnect carrying all bus traffic. */
    PacketNetwork &network() { return _network; }

  private:
    MasterConfig _cfg;
    std::vector<std::unique_ptr<Mce>> _mces;
    /** Per-tile offline matchers; empty in streaming mode. */
    std::vector<decode::MwpmDecoder> _decoders;
    /** Per-tile streaming decoders; empty in offline mode. */
    std::vector<std::unique_ptr<decode::StreamingDecoder>> _streamers;

    std::size_t _roundsRun = 0;
    std::size_t _roundsSinceDecode = 0;

    /** Shared-bandwidth arbiter state (sharedFetchBandwidth > 0). */
    std::unique_ptr<DynamicScheduler> _arbiter;
    /** The arbiter's memoized result; null until a round has run. */
    const ArbitrationResult *_lastArbitration = nullptr;
    /** Slack inputs fixed by the tile config (every tile shares it):
     *  replay uops one round needs, and uops the JJ memory delivers
     *  in one round at a full fetch share. */
    double _slackRequiredUops = 0.0;
    double _slackFullShareUops = 0.0;
    // Per-tile contention metrics, bound at construction (registry
    // references, never function-local statics).
    std::vector<sim::metrics::Counter *> _mTileBwWait;
    std::vector<sim::metrics::Gauge *> _mTileSlack;

    PacketNetwork _network;
    /** Bus bytes by category (master.bus_bytes_* rows). */
    sim::metrics::Tally _bytesLogical;
    sim::metrics::Tally _bytesSync;
    sim::metrics::Tally _bytesSyndrome;
    sim::metrics::Tally _bytesCorrections;
    sim::metrics::Tally _bytesCache;

    std::size_t decodeWindow() const;

    /** Resolved streaming commit/slide distance. */
    std::size_t streamStride() const;

    /** Bus accounting for one streaming window commit. */
    void commitStream(std::size_t mce_idx,
                      const decode::StreamCommit &commit);

    /** Flush tile i's streaming decoder (commit everything). */
    void flushStreamTile(std::size_t mce_idx);

    /** Send one bus packet, charging `category`. */
    void sendOnBus(std::size_t mce_idx, std::size_t bytes,
                   sim::metrics::Tally &category);

    /** Run the shared-bandwidth arbiter over this round's tiles. */
    void arbitrateRound();

    /** Collect, decode and correct one tile's residual window. */
    void decodeTile(std::size_t mce_idx);
};

} // namespace quest::core

#endif // QUEST_CORE_MASTER_CONTROLLER_HPP
