#include "master_controller.hpp"

#include <algorithm>

#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "tech/jj_memory.hpp"
#include "tech/parameters.hpp"

namespace quest::core {

namespace {

/** Decoder mask predicate: masked regions of the tile are open
 *  boundaries. */
decode::MwpmDecoder::MaskPredicate
maskedOn(Mce &mce)
{
    return [&mce](std::size_t q) { return mce.maskTable().masked(q); };
}

} // namespace

MasterController::MasterController(const MasterConfig &cfg)
    : _cfg(cfg),
      _network(cfg.numMces),
      _bytesLogical("master.bus_bytes_logical",
                    "logical instruction packets (bytes)"),
      _bytesSync("master.bus_bytes_sync",
                 "synchronization tokens (bytes)"),
      _bytesSyndrome("master.bus_bytes_syndrome",
                     "residual syndrome uploads (bytes)"),
      _bytesCorrections("master.bus_bytes_corrections",
                        "correction downloads (bytes)"),
      _bytesCache("master.bus_bytes_cache",
                  "distillation block fills and replay tokens (bytes)")
{
    QUEST_ASSERT(cfg.numMces > 0, "need at least one MCE");
    if (cfg.sharedFetchBandwidth > 0) {
        _arbiter = std::make_unique<DynamicScheduler>(cfg.mce.sched);
        auto &reg = sim::metrics::Registry::global();
        for (std::size_t i = 0; i < cfg.numMces; ++i) {
            const std::string tile =
                "sched.tile" + std::to_string(i);
            _mTileBwWait.push_back(&reg.counter(
                tile + ".bw_wait_cycles",
                "cycles this tile demanded fetch slots the arbiter "
                "granted elsewhere"));
            _mTileSlack.push_back(&reg.gauge(
                tile + ".slack",
                "replay bandwidth headroom under the tile's granted "
                "share (available/required - 1)"));
        }
    }
    // Every tile shares one compiled configuration; its matcher
    // tables go to every decoder through a pointer that keeps the
    // whole compiled tile alive.
    const auto tile = CompiledTile::compile(cfg.mce);
    const std::shared_ptr<const decode::MatchGeometry> geometry(
        tile, &tile->geometry());
    for (std::size_t i = 0; i < cfg.numMces; ++i) {
        MceConfig mc = cfg.mce;
        mc.seed = cfg.mce.seed + i * 0x9E37u;
        _mces.push_back(std::make_unique<Mce>(
            "mce" + std::to_string(i), mc, tile));
    }
    if (arbitrating()) {
        const auto &spec = qecc::protocolSpec(cfg.mce.protocol);
        const std::size_t qubits = tile->lattice().numQubits();
        const double round_seconds =
            sim::ticksToSeconds(spec.roundDuration(
                tech::gateLatencies(cfg.mce.technology)));
        _slackRequiredUops = double(qubits) * double(spec.uopsPerQubit);
        _slackFullShareUops =
            tech::JJMemoryModel().uopsPerSecond(cfg.mce.memoryConfig,
                                                tile->uopBits())
            * round_seconds;
    }
    // One global decode path per tile, built only for the mode that
    // runs. Defect awareness: masked regions are open boundaries for
    // the tile's one matcher.
    if (streamingDecode()) {
        decode::StreamConfig sc;
        sc.windowRounds = _cfg.streamWindowRounds;
        sc.strideRounds = streamStride();
        for (const auto &m : _mces) {
            // The MCE stops accumulating its offline decode window:
            // every extracted round is handed to the streamer
            // instead, so nothing is double-decoded.
            m->setWindowBuffering(false);
            _streamers.push_back(
                std::make_unique<decode::StreamingDecoder>(
                    m->extractor(), geometry, sc));
            _streamers.back()->setMaskPredicate(maskedOn(*m));
        }
    } else {
        _decoders.reserve(_mces.size());
        for (const auto &m : _mces) {
            _decoders.emplace_back(geometry);
            _decoders.back().setMaskPredicate(maskedOn(*m));
        }
    }
}

std::size_t
MasterController::decodeWindow() const
{
    return _cfg.decodeWindowRounds ? _cfg.decodeWindowRounds
                                   : _cfg.mce.distance;
}

std::size_t
MasterController::streamStride() const
{
    if (_cfg.streamStrideRounds)
        return _cfg.streamStrideRounds;
    return std::max<std::size_t>(1, _cfg.streamWindowRounds / 2);
}

void
MasterController::sendOnBus(std::size_t mce_idx, std::size_t bytes,
                            sim::metrics::Tally &category)
{
    category += bytes;
    _network.send(mce_idx, bytes);
}

void
MasterController::dispatch(const isa::LogicalInstr &instr)
{
    const std::size_t target = instr.operand % _mces.size();
    isa::LogicalInstr local = instr;
    local.operand = std::uint16_t(instr.operand / _mces.size());
    if (instr.opcode == isa::LogicalOpcode::SyncToken) {
        sendOnBus(target, tech::logicalInstrBytes, _bytesSync);
        return;
    }
    sendOnBus(target, tech::logicalInstrBytes, _bytesLogical);
    _mces[target]->executeLogical(local);
}

ICacheAccess
MasterController::dispatchBlock(std::size_t mce_idx,
                                std::uint32_t block_id,
                                const isa::LogicalTrace &body)
{
    const ICacheAccess access =
        _mces.at(mce_idx)->executeBlock(block_id, body);
    sendOnBus(mce_idx, access.bytesFetched, _bytesCache);
    return access;
}

void
MasterController::broadcastSync()
{
    for (std::size_t i = 0; i < _mces.size(); ++i)
        sendOnBus(i, tech::logicalInstrBytes, _bytesSync);
}

int
MasterController::transferLogicalQubit(std::size_t src_mce,
                                       int src_id,
                                       std::size_t dst_mce,
                                       qecc::Coord dst_anchor)
{
    QUEST_ASSERT(src_mce < _mces.size() && dst_mce < _mces.size(),
                 "transfer between unknown MCEs %zu -> %zu",
                 src_mce, dst_mce);
    QUEST_ASSERT(src_mce != dst_mce,
                 "intra-MCE moves use mask instructions, not "
                 "transfers");

    // Destination defects first: the channel needs both endpoints.
    const int dst_id = _mces[dst_mce]->defineLogicalQubit(dst_anchor);

    // Channel setup + Bell measurement + Pauli fix-up commands to
    // both endpoints (4 logical packets), plus a sync token each.
    constexpr std::size_t transfer_packets = 4;
    for (std::size_t ep : { src_mce, dst_mce }) {
        sendOnBus(ep, transfer_packets * tech::logicalInstrBytes,
                  _bytesLogical);
        sendOnBus(ep, tech::logicalInstrBytes, _bytesSync);
    }

    // One code distance of rounds completes the fault-tolerant
    // hand-off; every tile keeps error-correcting meanwhile.
    runRounds(_cfg.mce.distance);

    _mces[src_mce]->releaseLogicalQubit(src_id);
    return dst_id;
}

const ArbitrationResult &
MasterController::lastArbitration() const
{
    QUEST_ASSERT(_lastArbitration != nullptr,
                 "no arbitration has run (sharedFetchBandwidth off "
                 "or no rounds stepped)");
    return *_lastArbitration;
}

void
MasterController::arbitrateRound()
{
    QUEST_TRACE_SCOPE("master", "arbitrate");
    // Mask changes reshape the per-tile programs, and a wedged engine
    // demands nothing; the arbiter re-simulates only
    // when one of those inputs changed since the last round.
    std::vector<const verify::DependencyOracle *> oracles;
    std::vector<std::uint8_t> active;
    oracles.reserve(_mces.size());
    active.reserve(_mces.size());
    for (const auto &m : _mces) {
        oracles.push_back(&m->dependencyOracle());
        active.push_back(m->hung() ? 0 : 1);
    }
    _lastArbitration = &_arbiter->arbitrate(
        oracles, active, _cfg.mce.scheduling,
        _cfg.sharedFetchBandwidth, _cfg.arbiterPolicy, 1);

    // Per-tile contention export: bandwidth-wait cycles, plus the
    // budget-pass slack math scaled by the share of fetch slots the
    // arbiter actually granted this tile.
    std::size_t total_slots = 0;
    for (const TileSchedule &t : _lastArbitration->tiles)
        total_slots += t.slotsFetched;
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        const TileSchedule &t = _lastArbitration->tiles[i];
        *_mTileBwWait[i] += t.stalls.bandwidthWait;
        if (!active[i] || total_slots == 0)
            continue;
        const double share =
            double(t.slotsFetched) / double(total_slots);
        const double available = _slackFullShareUops * share;
        _mTileSlack[i]->set(_slackRequiredUops > 0
                                ? available / _slackRequiredUops - 1.0
                                : 0.0);
    }
}

void
MasterController::stepRound()
{
    QUEST_TRACE_SCOPE("master", "step_round");
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        Mce &m = *_mces[i];
        const std::size_t before = m.roundsRun();
        const qecc::SyndromeRound &round = m.runQeccRound();
        // A wedged engine extracts nothing (roundsRun stalls); the
        // stale round it returns must not enter the stream.
        if (streamingDecode() && m.roundsRun() > before) {
            if (auto commit = _streamers[i]->pushRound(round))
                commitStream(i, *commit);
        }
    }
    if (arbitrating())
        arbitrateRound();
    ++_roundsRun;
    ++_roundsSinceDecode;
    // Streaming windows commit on their own cadence inside
    // pushRound; the offline collect-then-decode trigger stays off.
    if (!streamingDecode() && _roundsSinceDecode >= decodeWindow())
        decodeNow();
}

void
MasterController::commitStream(std::size_t mce_idx,
                               const decode::StreamCommit &commit)
{
    // The syndrome bus carries each residual event once, in the
    // window that first forwards it past the local LUT stage.
    if (commit.forwardedEvents > 0)
        sendOnBus(mce_idx,
                  commit.forwardedEvents
                      * decode::detectionEventBytes,
                  _bytesSyndrome);
    if (commit.correction.weight() > 0)
        sendOnBus(mce_idx,
                  commit.correction.weight() * correctionEntryBytes,
                  _bytesCorrections);
    _mces[mce_idx]->applyCorrection(commit.correction);
}

void
MasterController::flushStreamTile(std::size_t mce_idx)
{
    QUEST_TRACE_SCOPE("master", "stream_flush");
    if (auto commit = _streamers[mce_idx]->finish())
        commitStream(mce_idx, *commit);
}

void
MasterController::decodeTile(std::size_t mce_idx)
{
    if (streamingDecode()) {
        flushStreamTile(mce_idx);
        return;
    }
    QUEST_TRACE_SCOPE("master", "decode_tile");
    const decode::DetectionEvents residual =
        _mces[mce_idx]->collectResidualEvents();
    if (residual.total() == 0)
        return;
    sendOnBus(mce_idx, residual.total() * decode::detectionEventBytes,
              _bytesSyndrome);
    const decode::Correction corr = _decoders[mce_idx].decode(residual);
    if (corr.weight() > 0)
        sendOnBus(mce_idx, corr.weight() * correctionEntryBytes,
                  _bytesCorrections);
    _mces[mce_idx]->applyCorrection(corr);
}

void
MasterController::decodeNow()
{
    for (std::size_t i = 0; i < _mces.size(); ++i)
        decodeTile(i);
    _roundsSinceDecode = 0;
}

double
MasterController::totalBusBytes() const
{
    return double(_bytesLogical.value() + _bytesSync.value()
                  + _bytesSyndrome.value() + _bytesCorrections.value()
                  + _bytesCache.value());
}

double
MasterController::baselineEquivalentBytes() const
{
    double bytes = 0.0;
    for (const auto &m : _mces) {
        const auto &spec = qecc::protocolSpec(m->config().protocol);
        bytes += double(m->roundsRun()) * double(spec.depth())
            * double(m->lattice().numQubits())
            * double(tech::physicalInstrBytes);
    }
    return bytes;
}

} // namespace quest::core
