#include "master_controller.hpp"

#include <algorithm>

#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "tech/jj_memory.hpp"
#include "tech/parameters.hpp"

namespace quest::core {

namespace {

/**
 * The real-time budget for one global decode: the wall-clock that
 * `rounds` rounds take to extract. The offline decoder must keep up
 * with its decode cadence (decodeWindow()), a streamer with its
 * slide rate (streamStride()); with streamStrideRounds ==
 * decodeWindowRounds the two budgets coincide, which the W==S
 * equivalence tests rely on. The deadline is modelled only while
 * a fault site is enabled; overruns draw from `faults`.
 */
decode::DeadlineConfig
deadlineFor(const MasterConfig &cfg, std::size_t rounds,
            sim::FaultInjector &faults)
{
    decode::DeadlineConfig dl;
    if (!faults.enabled())
        return dl; // windowTicks 0: deadline arithmetic disabled
    const auto &spec = qecc::protocolSpec(cfg.mce.protocol);
    const auto lat = tech::gateLatencies(cfg.mce.technology);
    dl.windowTicks = sim::Tick(rounds) * spec.roundDuration(lat);
    dl.faults = &faults;
    return dl;
}

/** Decoder mask predicate: masked regions of the tile are open
 *  boundaries. */
decode::MwpmDecoder::MaskPredicate
maskedOn(Mce &mce)
{
    return [&mce](std::size_t q) { return mce.maskTable().masked(q); };
}

/** Heartbeat ping/response token size (a sync-class packet). */
constexpr std::size_t heartbeatBytes = tech::logicalInstrBytes;
/** Missed heartbeats before a tile is quarantined/re-synced. */
constexpr std::size_t watchdogMissThreshold = 2;

/** Microcode parity status poll size. */
constexpr std::size_t scrubPollBytes = tech::logicalInstrBytes;

} // namespace

MasterController::MasterController(const MasterConfig &cfg)
    : _cfg(cfg),
      _faults(cfg.faults),
      _missedHeartbeats(cfg.numMces, 0),
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
                  "distillation block fills and replay tokens (bytes)"),
      _bytesScrub("master.bus_bytes_scrub",
                  "microcode parity polls and image re-uploads (bytes)"),
      _seuInjected("faults.seu_injected",
                   "microcode SEU bit-flips injected"),
      _seuDetected("faults.seu_detected",
                   "parity-failed words caught by scrubbing"),
      _seuSilent("faults.seu_silent_repaired",
                 "parity-masked flips cleared by an image rewrite"),
      _scrubs("faults.scrubs", "microcode image re-uploads"),
      _decoderOverruns("faults.decoder_overruns",
                       "decodes past the window deadline, degraded "
                       "to the union-find cluster decoder"),
      _heartbeats("faults.heartbeats", "watchdog heartbeats sent"),
      _heartbeatsMissed("faults.heartbeats_missed",
                        "heartbeats a wedged MCE failed to answer"),
      _hangsInjected("faults.hangs_injected",
                     "MCE control hangs injected"),
      _quarantines("faults.quarantines",
                   "tiles quarantined by the watchdog"),
      _resumes("faults.resumes",
               "quarantined tiles re-synced and resumed"),
      _busEscalations(
          "faults.bus_escalations",
          "supervisor re-issues after the link retry budget failed"),
      _packetsAbandoned(
          "faults.packets_abandoned",
          "bus packets abandoned to the out-of-band slow path")
{
    QUEST_ASSERT(cfg.numMces > 0, "need at least one MCE");
    _network.attachFaults(&_faults);
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
    for (std::size_t i = 0; i < cfg.numMces; ++i) {
        MceConfig mc = cfg.mce;
        mc.seed = cfg.mce.seed + i * 0x9E37u;
        _mces.push_back(std::make_unique<Mce>(
            "mce" + std::to_string(i), mc));
        _mces.back()->attachFaults(&_faults);
    }
    if (arbitrating()) {
        const auto &spec = qecc::protocolSpec(cfg.mce.protocol);
        const std::size_t qubits = _mces.front()->lattice().numQubits();
        const std::size_t uop_bits =
            MicrocodeModel(spec, cfg.mce.technology)
                .uopBits(cfg.mce.microcodeDesign, qubits);
        const double round_seconds =
            sim::ticksToSeconds(spec.roundDuration(
                tech::gateLatencies(cfg.mce.technology)));
        _slackRequiredUops = double(qubits) * double(spec.uopsPerQubit);
        _slackFullShareUops =
            tech::JJMemoryModel().uopsPerSecond(cfg.mce.memoryConfig,
                                                uop_bits)
            * round_seconds;
    }
    // One global decode path per tile, built only for the mode that
    // runs. Defect awareness: masked regions are open boundaries for
    // the tile's one matcher, which its cluster fallback borrows.
    if (streamingDecode()) {
        decode::StreamConfig sc;
        sc.windowRounds = _cfg.streamWindowRounds;
        sc.strideRounds = streamStride();
        sc.deadline = deadlineFor(_cfg, sc.strideRounds, _faults);
        for (const auto &m : _mces) {
            // The MCE stops accumulating its offline decode window:
            // every extracted round is handed to the streamer
            // instead, so nothing is double-decoded.
            m->setWindowBuffering(false);
            _streamers.push_back(
                std::make_unique<decode::StreamingDecoder>(
                    m->extractor(), sc));
            _streamers.back()->setMaskPredicate(maskedOn(*m));
        }
    } else {
        _deadline = decode::DecodeDeadline(
            deadlineFor(_cfg, decodeWindow(), _faults));
        // Reserved up front: each cluster decoder keeps a pointer to
        // its tile's matcher.
        _decoders.reserve(_mces.size());
        _clusterDecoders.reserve(_mces.size());
        for (const auto &m : _mces) {
            _decoders.emplace_back(m->lattice());
            _decoders.back().setMaskPredicate(maskedOn(*m));
            _clusterDecoders.emplace_back(_decoders.back());
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
    PacketTiming timing = _network.send(mce_idx, bytes);
    // The link-level ARQ gives up after its retry budget; the master
    // then re-issues the whole packet (a supervisor retransmission)
    // a bounded number of times before abandoning delivery to the
    // out-of-band slow path.
    for (std::size_t esc = 0;
         !timing.delivered && esc < maxBusEscalations; ++esc) {
        ++_busEscalations;
        category += bytes;
        timing = _network.send(mce_idx, bytes);
    }
    if (!timing.delivered) {
        ++_packetsAbandoned;
        sim::warn("abandoning %zu-byte packet to MCE %zu after %zu "
                  "supervisor re-issues",
                  bytes, mce_idx, maxBusEscalations);
    }
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

void
MasterController::injectRoundFaults()
{
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        if (!_mces[i]->hung()
            && _faults.fire(sim::FaultSite::MceHang)) {
            _mces[i]->wedge();
            ++_hangsInjected;
        }
        if (_faults.fire(sim::FaultSite::MicrocodeSeu)) {
            _mces[i]->microcodeStore().flipRandomBit(
                _faults.rng(sim::FaultSite::MicrocodeSeu));
            ++_seuInjected;
        }
    }
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
    // Mask changes and quarantines reshape the per-tile programs, and
    // a wedged engine demands nothing; the arbiter re-simulates only
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
    const bool faulty = _faults.enabled();
    if (faulty)
        injectRoundFaults();
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
    if (faulty && _roundsRun % faultHeartbeatIntervalRounds == 0)
        heartbeatNow();
    if (faulty && _roundsRun % faultScrubIntervalRounds == 0)
        scrubNow();
    // Streaming windows commit on their own cadence inside
    // pushRound; the offline collect-then-decode trigger stays off.
    if (!streamingDecode() && _roundsSinceDecode >= decodeWindow())
        decodeNow();
}

void
MasterController::heartbeatNow()
{
    QUEST_TRACE_SCOPE("master", "heartbeat");
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        ++_heartbeats;
        sendOnBus(i, heartbeatBytes, _bytesSync);
        if (_mces[i]->hung()) {
            // No response: the engine is wedged.
            ++_heartbeatsMissed;
            if (++_missedHeartbeats[i] >= watchdogMissThreshold)
                quarantineAndResync(i);
            continue;
        }
        _missedHeartbeats[i] = 0;
        // Healthy engines answer with a status token.
        sendOnBus(i, heartbeatBytes, _bytesSync);
    }
}

void
MasterController::quarantineAndResync(std::size_t mce_idx)
{
    ++_quarantines;
    _missedHeartbeats[mce_idx] = 0;
    Mce &m = *_mces[mce_idx];
    // Quarantine: stop trusting the tile's state, re-upload its
    // full microcode image, reset the engine, then decode whatever
    // syndrome accumulated while it was wedged before resuming.
    sendOnBus(mce_idx, m.microcodeStore().imageBytes(), _bytesScrub);
    m.recover();
    decodeTile(mce_idx);
    ++_resumes;
}

void
MasterController::scrubNow()
{
    QUEST_TRACE_SCOPE("master", "scrub");
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        sendOnBus(i, scrubPollBytes, _bytesScrub);
        MicrocodeStore &store = _mces[i]->microcodeStore();
        if (store.parityErrorWords() == 0)
            continue; // parity-clean (even-flip corruption is silent)
        _seuDetected += store.parityErrorWords();
        _seuSilent += store.silentBits();
        sendOnBus(i, store.imageBytes(), _bytesScrub);
        store.repair();
        ++_scrubs;
    }
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
    if (commit.fallback)
        recordFallback(mce_idx, commit.stretch, streamStride());
    if (commit.correction.weight() > 0)
        sendOnBus(mce_idx,
                  commit.correction.weight() * correctionEntryBytes,
                  _bytesCorrections);
    _mces[mce_idx]->applyCorrection(commit.correction);
}

void
MasterController::recordFallback(std::size_t mce_idx, double stretch,
                                 std::size_t rounds)
{
    // The late window is charged as stretched noise on the tile.
    ++_decoderOverruns;
    _mces[mce_idx]->stretchNoise(stretch, rounds);
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

    // An overrun (injected or analytic) means the exact matcher would
    // miss the window: degrade to the union-find cluster decoder.
    const bool fallback = _deadline.overruns(residual.total());
    if (fallback)
        recordFallback(mce_idx, _deadline.stretch(residual.total()),
                       decodeWindow());
    const decode::Correction corr = fallback
        ? _clusterDecoders[mce_idx].decode(residual)
        : _decoders[mce_idx].decode(residual);
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
                  + _bytesCache.value() + _bytesScrub.value());
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
