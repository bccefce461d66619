/**
 * @file
 * End-to-end control-stack benchmark: master stepRound -> MCE
 * microcode replay -> syndrome extraction -> local LUT -> global or
 * streaming decode -> bus ledger, on six fixed workloads.
 *
 * Every workload runs in two passes:
 *
 *  - untraced: the workload goes through the real QuestSystem /
 *    MasterController. It yields the end-to-end metrics (host
 *    throughput, set-up time, peak RSS, the Fig-14 bandwidth saving)
 *    and the modelled ledger (Stable registry counters: what the
 *    simulated machine did);
 *  - traced: the same workload goes through LayeredDriver, which
 *    replays MasterController's fault-free round, decode,
 *    stream-commit and arbitration logic from the layers' public
 *    calls and times each call with the bench's own in-memory spans.
 *    It must reproduce the untraced pass bit for bit: bus bytes per
 *    category, per-tile frame and correction-ledger digests, and
 *    every Stable registry counter and stat.
 *
 * Each repeat (an "episode") runs in a freshly forked child, forked
 * before any simulation state exists, so the process-global metrics
 * registry and the peak RSS (wait4 rusage) never leak between
 * repeats. One simulation thread throughout; in-program trace scopes
 * stay runtime-disabled; faults, heartbeat and scrub stay off.
 *
 * Output: one `workload metric value unit` line per metric on
 * stdout (medians over repeats), diagnostics on stderr.
 *
 * Flags:
 *   --workload=NAME[,NAME]  workloads to run (default: all six)
 *   --seed=N[,N]            input seed(s) (default 1)
 *   --seconds=S             with --trace=0|1, keep repeating (at least
 *                           3 untraced, or one traced) while one more
 *                           repeat still fits in S seconds
 *   --trace=0|1             only the untraced pass (end-to-end
 *                           metrics) or only one untraced reference
 *                           plus traced repeats (per-layer metrics);
 *                           default both
 *   --smoke                 every workload at 1/50 length, 2 repeats
 *   --check                 exit 1 on any correctness failure
 *   --out=PATH              write medians/quartiles as JSON
 *   --trace-out=PATH        write the first traced repeat's spans as
 *                           Chrome/Perfetto JSON (PATH gets a
 *                           .<workload> infix when several run)
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/master_controller.hpp"
#include "core/system.hpp"
#include "decode/detection.hpp"
#include "decode/mwpm_decoder.hpp"
#include "decode/streaming.hpp"
#include "isa/instructions.hpp"
#include "isa/trace.hpp"
#include "qecc/protocol.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "tech/jj_memory.hpp"
#include "tech/parameters.hpp"

namespace {

using namespace quest;
using Clock = std::chrono::steady_clock;
using Record = std::map<std::string, std::string>;

// ------------------------------------------------------------ workloads

/** One benchmark workload: a fixed control-stack configuration. */
struct Workload
{
    const char *name;
    bool shots;              ///< Monte-Carlo shots instead of rounds
    std::size_t length;      ///< master rounds (or shots) per episode
    std::size_t tiles;
    std::size_t distance;
    bool logical;            ///< place qubits, dispatch app + T-factory
    bool outOfOrder;
    std::size_t sharedFetch; ///< arbiter fetch slots/cycle; 0 = off
    double maskFraction;     ///< mask edits in the app trace
    double errorRate;        ///< uniform physical error rate
    std::size_t streamWindow; ///< streaming window; 0 = offline MWPM
    std::size_t streamStride;
};

// Lengths put one episode near a second of host time on a 4-core x86
// host (RelWithDebInfo): long enough that the seed-to-seed variation
// of the simulated work averages out, short enough that a 15-s run
// still takes a median over many repeats.
const Workload kWorkloads[] = {
    {"paper_mix", false, 16000, 4, 7, true, false, 0, 0.0, 1e-3, 0, 0},
    {"ooo_contended", false, 1200, 8, 5, true, true, 16, 0.0, 1e-3, 0,
     0},
    {"mask_churn", false, 3000, 4, 5, true, true, 8, 0.3, 1e-3, 0, 0},
    {"decode_heavy", false, 9000, 4, 9, false, false, 0, 0.0, 5e-3, 0,
     0},
    {"stream_decode", false, 5400, 4, 9, false, false, 0, 0.0, 5e-3, 18,
     9},
    {"mc_shots", true, 16000, 1, 5, false, false, 0, 0.0, 1e-3, 0, 0},
};

/** Rounds between T-factory distillation blocks. */
constexpr std::size_t kDistillPeriod = 8;

/**
 * mc_shots' logical failure rate, measured over seeds 1-30 (480 000
 * shots; per-seed SD 0.08 %, the binomial SE). A run fails its check
 * when its rate lies more than kLerSigmas binomial standard errors of
 * its own shot count above this: decoding got worse. A lower rate is
 * an improvement and always passes.
 */
constexpr double kReferenceLer = 0.0173;
constexpr double kLerSigmas = 4.0;

/** Seed salts: every input is re-derived from --seed. */
constexpr std::uint64_t kSaltMce = 1;
constexpr std::uint64_t kSaltTrace = 2;
constexpr std::uint64_t kSaltShots = 3;
constexpr std::uint64_t kSaltShadow = 4;

core::MasterConfig
masterConfig(const Workload &w, std::uint64_t seed)
{
    core::MasterConfig cfg;
    cfg.numMces = w.tiles;
    if (w.logical) {
        cfg.mce = core::tileConfigForLogicalQubits(w.distance);
    } else {
        cfg.mce.distance = w.distance; // default (2d-1)^2 lattice
    }
    cfg.mce.errorRates = quantum::ErrorRates::uniform(w.errorRate);
    cfg.mce.seed = sim::Rng::deriveSeed(seed, kSaltMce);
    if (w.outOfOrder)
        cfg.mce.scheduling = core::SchedulingMode::OutOfOrder;
    cfg.sharedFetchBandwidth = w.sharedFetch;
    cfg.arbiterPolicy = core::ArbiterPolicy::RoundRobin;
    cfg.streamWindowRounds = w.streamWindow;
    cfg.streamStrideRounds = w.streamStride;
    return cfg;
}

/** The generated instruction streams of a round workload. */
struct Inputs
{
    isa::LogicalTrace app;
    isa::LogicalTrace distill;
};

Inputs
makeInputs(const Workload &w, std::size_t rounds, std::uint64_t seed)
{
    Inputs in;
    if (!w.logical)
        return in;
    isa::TraceGenConfig tg;
    tg.numInstructions = 2 * rounds; // two app instructions per round
    tg.logicalQubits = w.tiles;      // one logical qubit per tile
    tg.maskFraction = w.maskFraction;
    tg.seed = sim::Rng::deriveSeed(seed, kSaltTrace);
    in.app = isa::generateApplicationTrace(tg);
    in.distill = isa::generateDistillationRound(0);
    return in;
}

// ---------------------------------------------------------------- spans

enum Layer : std::uint8_t
{
    MceRound,
    QeccExtract,
    Arbitrate,
    Collect,
    Mwpm,
    Stream,
    Logical,
    ICache,
    Network,
    Construct,
    Teardown,
    Readout,
    NumLayers
};

const char *const kLayerNames[NumLayers] = {
    "mce.round",    "qecc.extract",  "core.arbitrate", "mce.collect",
    "decode.mwpm",  "decode.stream", "mce.logical",    "mce.icache",
    "core.network", "core.construct", "core.teardown", "bench.readout",
};

/** Track of spans that run in the master controller. */
constexpr int kMasterTrack = -1;

struct Span
{
    std::int64_t start; ///< ns since the log's origin
    std::int64_t dur;   ///< ns
    std::uint32_t round;
    std::int16_t track; ///< tile index, or kMasterTrack
    Layer layer;
};

/** In-memory span recorder; written out only after timing ends. */
class SpanLog
{
  public:
    SpanLog() : _origin(Clock::now()) {}

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _origin)
            .count();
    }

    void
    close(Layer layer, int track, std::int64_t start)
    {
        const std::int64_t end = now();
        spans.push_back(Span{start, end - start, round,
                             std::int16_t(track), layer});
    }

    std::vector<Span> spans;
    /** Master round the next spans belong to. */
    std::uint32_t round = 0;
    /** Shadow-extraction time, kept out of the traced wall time. */
    std::int64_t excludedNs = 0;

  private:
    Clock::time_point _origin;
};

// ------------------------------------------------------- layered driver

/** Bus bytes by category, as MasterController books them. */
struct BusLedger
{
    double logical = 0;
    double sync = 0;
    double syndrome = 0;
    double corrections = 0;
    double cache = 0;

    BusLedger &
    operator+=(const BusLedger &o)
    {
        logical += o.logical;
        sync += o.sync;
        syndrome += o.syndrome;
        corrections += o.corrections;
        cache += o.cache;
        return *this;
    }
};

/**
 * Outside-in replay of MasterController's fault-free path. The
 * master is used only as the owner of its tiles and its network;
 * every call its stepRound/decodeTile/commitStream/arbitrateRound
 * would make is made here, in the same order, inside a span.
 * Decoders, streamers and the arbiter are the driver's own, built
 * exactly as the master builds its private ones.
 */
class LayeredDriver
{
  public:
    LayeredDriver(const core::MasterConfig &cfg, SpanLog &log,
                  std::uint64_t shadow_seed)
        : _cfg(cfg), _log(log), _shadowSeed(shadow_seed)
    {
        if (_cfg.sharedFetchBandwidth > 0) {
            _arbiter =
                std::make_unique<core::DynamicScheduler>(cfg.mce.sched);
            auto &reg = sim::metrics::Registry::global();
            for (std::size_t i = 0; i < cfg.numMces; ++i) {
                const std::string tile =
                    "sched.tile" + std::to_string(i);
                _tileBwWait.push_back(
                    &reg.counter(tile + ".bw_wait_cycles", ""));
                _tileSlack.push_back(&reg.gauge(tile + ".slack", ""));
            }
        }
    }

    /** Drive a (freshly constructed) master from now on. */
    void
    bind(core::MasterController &master)
    {
        _master = &master;
        _roundsSinceDecode = 0;
        _streamers.clear();
        for (std::size_t i = 0; i < master.numMces(); ++i) {
            core::Mce *mce = &master.mce(i);
            auto masked = [mce](std::size_t q) {
                return mce->maskTable().masked(q);
            };
            if (_decoders.size() <= i) {
                // The decoder only reads lattice geometry, so a copy
                // of the tile's lattice lets it outlive the master
                // (one decoder serves every Monte-Carlo shot).
                _lattices.push_back(
                    std::make_unique<qecc::Lattice>(mce->lattice()));
                _decoders.push_back(
                    std::make_unique<decode::MwpmDecoder>(
                        *_lattices.back()));
                _shadows.push_back(std::make_unique<Shadow>(
                    mce->lattice().numQubits(),
                    _cfg.mce.errorRates,
                    sim::Rng::deriveSeed(_shadowSeed, i)));
            }
            _decoders[i]->setMaskPredicate(masked);
            if (streaming()) {
                decode::StreamConfig sc;
                sc.windowRounds = _cfg.streamWindowRounds;
                sc.strideRounds = streamStride();
                _streamers.push_back(
                    std::make_unique<decode::StreamingDecoder>(
                        mce->extractor(), sc));
                _streamers.back()->setMaskPredicate(masked);
            }
        }
    }

    const BusLedger &bus() const { return _bus; }

    void
    dispatch(const isa::LogicalInstr &instr)
    {
        const std::size_t n = _master->numMces();
        const std::size_t target = instr.operand % n;
        isa::LogicalInstr local = instr;
        local.operand = std::uint16_t(instr.operand / n);
        if (instr.opcode == isa::LogicalOpcode::SyncToken) {
            send(target, tech::logicalInstrBytes, _bus.sync);
            return;
        }
        send(target, tech::logicalInstrBytes, _bus.logical);
        const std::int64_t t = _log.now();
        _master->mce(target).executeLogical(local);
        _log.close(Logical, int(target), t);
    }

    void
    dispatchBlock(std::size_t i, std::uint32_t block_id,
                  const isa::LogicalTrace &body)
    {
        const std::int64_t t = _log.now();
        const core::ICacheAccess access =
            _master->mce(i).executeBlock(block_id, body);
        _log.close(ICache, int(i), t);
        send(i, access.bytesFetched, _bus.cache);
    }

    void
    broadcastSync()
    {
        for (std::size_t i = 0; i < _master->numMces(); ++i)
            send(i, tech::logicalInstrBytes, _bus.sync);
    }

    void
    stepRound()
    {
        for (std::size_t i = 0; i < _master->numMces(); ++i) {
            core::Mce &m = _master->mce(i);
            const std::size_t before = m.roundsRun();
            std::int64_t t = _log.now();
            const qecc::SyndromeRound &round = m.runQeccRound();
            _log.close(MceRound, int(i), t);
            shadowExtract(i, m);
            if (streaming() && m.roundsRun() > before) {
                t = _log.now();
                auto commit = _streamers[i]->pushRound(round);
                _log.close(Stream, kMasterTrack, t);
                if (commit)
                    commitStream(i, *commit);
            }
        }
        if (_arbiter)
            arbitrateRound();
        ++_roundsSinceDecode;
        if (!streaming() && _roundsSinceDecode >= decodeWindow())
            decodeNow();
        ++_log.round;
    }

    void
    decodeNow()
    {
        for (std::size_t i = 0; i < _master->numMces(); ++i) {
            if (streaming()) {
                const std::int64_t t = _log.now();
                auto commit = _streamers[i]->finish();
                _log.close(Stream, kMasterTrack, t);
                if (commit)
                    commitStream(i, *commit);
            } else {
                decodeTile(i);
            }
        }
        _roundsSinceDecode = 0;
    }

  private:
    /** A noisy copy of one tile, used only to time extraction. */
    struct Shadow
    {
        Shadow(std::size_t qubits, const quantum::ErrorRates &rates,
               std::uint64_t seed)
            : rng(seed), frame(qubits), channel(rates, rng)
        {}

        // channel points at rng: never copy or move.
        Shadow(const Shadow &) = delete;
        Shadow &operator=(const Shadow &) = delete;

        sim::Rng rng;
        quantum::PauliFrame frame;
        quantum::ErrorChannel channel; ///< draws from rng
    };

    core::MasterConfig _cfg;
    SpanLog &_log;
    std::uint64_t _shadowSeed;
    core::MasterController *_master = nullptr;
    std::size_t _roundsSinceDecode = 0;
    BusLedger _bus;

    std::vector<std::unique_ptr<qecc::Lattice>> _lattices;
    std::vector<std::unique_ptr<decode::MwpmDecoder>> _decoders;
    std::vector<std::unique_ptr<decode::StreamingDecoder>> _streamers;
    std::vector<std::unique_ptr<Shadow>> _shadows;
    std::unique_ptr<core::DynamicScheduler> _arbiter;
    core::ArbitrationResult _lastArbitration;
    std::vector<sim::metrics::Counter *> _tileBwWait;
    std::vector<sim::metrics::Gauge *> _tileSlack;

    bool streaming() const { return _cfg.streamWindowRounds > 0; }

    std::size_t
    decodeWindow() const
    {
        return _cfg.decodeWindowRounds ? _cfg.decodeWindowRounds
                                       : _cfg.mce.distance;
    }

    std::size_t
    streamStride() const
    {
        return _cfg.streamStrideRounds
            ? _cfg.streamStrideRounds
            : std::max<std::size_t>(1, _cfg.streamWindowRounds / 2);
    }

    /**
     * Time SyndromeExtractor::runRound alone: the tile's current
     * program on a copy of its frame with an independent noise
     * stream, so the live state is untouched. The whole detour is
     * excluded from the traced wall time.
     */
    void
    shadowExtract(std::size_t i, core::Mce &m)
    {
        const std::int64_t begin = _log.now();
        Shadow &s = *_shadows[i];
        s.frame = m.frame();
        const std::int64_t t = _log.now();
        (void)m.extractor().runRound(s.frame, &s.channel);
        _log.close(QeccExtract, int(i), t);
        _log.excludedNs += _log.now() - begin;
    }

    void
    send(std::size_t i, std::size_t bytes, double &category)
    {
        category += double(bytes);
        const std::int64_t t = _log.now();
        const core::PacketTiming timing =
            _master->network().send(i, bytes);
        _log.close(Network, kMasterTrack, t);
        if (!timing.delivered)
            sim::panic("layered driver: undelivered packet on the "
                       "fault-free path");
    }

    void
    arbitrateRound()
    {
        const std::int64_t t = _log.now();
        const std::size_t n = _master->numMces();
        std::vector<const verify::DependencyOracle *> oracles;
        std::vector<std::uint8_t> active;
        oracles.reserve(n);
        active.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            core::Mce &m = _master->mce(i);
            oracles.push_back(&m.dependencyOracle());
            active.push_back(m.hung() ? 0 : 1);
        }
        // Kept as a member, like the master's lastArbitration(), so
        // freeing the previous plan is charged to this span too.
        _lastArbitration = _arbiter->arbitrate(
            oracles, active, _cfg.mce.scheduling,
            _cfg.sharedFetchBandwidth, _cfg.arbiterPolicy, 1);
        const core::ArbitrationResult &arb = _lastArbitration;

        // Per-tile export, operation for operation as the master's.
        std::size_t total_slots = 0;
        for (const core::TileSchedule &tile : arb.tiles)
            total_slots += tile.slotsFetched;
        const tech::JJMemoryModel mem;
        for (std::size_t i = 0; i < n; ++i) {
            const core::TileSchedule &tile = arb.tiles[i];
            *_tileBwWait[i] += tile.stalls.bandwidthWait;
            if (!active[i] || total_slots == 0)
                continue;
            const core::Mce &m = _master->mce(i);
            const auto &spec = qecc::protocolSpec(m.config().protocol);
            const std::size_t uop_bits =
                m.config().microcodeDesign == core::MicrocodeDesign::Ram
                ? isa::ramUopBits(spec.opcodeCount,
                                  m.lattice().numQubits())
                : isa::fifoUopBits(spec.opcodeCount);
            const double round_seconds =
                sim::ticksToSeconds(spec.roundDuration(
                    tech::gateLatencies(m.config().technology)));
            const double required = double(m.lattice().numQubits())
                * double(spec.uopsPerQubit);
            const double share =
                double(tile.slotsFetched) / double(total_slots);
            const double available =
                mem.uopsPerSecond(m.config().memoryConfig, uop_bits)
                * round_seconds * share;
            _tileSlack[i]->set(
                required > 0 ? available / required - 1.0 : 0.0);
        }
        _log.close(Arbitrate, kMasterTrack, t);
    }

    void
    decodeTile(std::size_t i)
    {
        core::Mce &m = _master->mce(i);
        std::int64_t t = _log.now();
        const decode::DetectionEvents residual =
            m.collectResidualEvents();
        _log.close(Collect, int(i), t);
        if (residual.total() == 0)
            return;
        send(i, residual.total() * decode::detectionEventBytes,
             _bus.syndrome);
        t = _log.now();
        const decode::Correction corr = _decoders[i]->decode(residual);
        _log.close(Mwpm, kMasterTrack, t);
        if (corr.weight() > 0)
            send(i, corr.weight() * core::correctionEntryBytes,
                 _bus.corrections);
        m.applyCorrection(corr);
    }

    void
    commitStream(std::size_t i, const decode::StreamCommit &commit)
    {
        if (commit.forwardedEvents > 0)
            send(i, commit.forwardedEvents * decode::detectionEventBytes,
                 _bus.syndrome);
        if (commit.fallback)
            sim::panic("layered driver: decode-deadline fallback on "
                       "the fault-free path");
        if (commit.correction.weight() > 0)
            send(i,
                 commit.correction.weight() * core::correctionEntryBytes,
                 _bus.corrections);
        _master->mce(i).applyCorrection(commit.correction);
    }
};

/** QuestSystem::runMixedWorkload, step for step, on the driver. */
void
runMixedLayered(LayeredDriver &drv, std::size_t tiles,
                const Inputs &in, std::size_t rounds)
{
    std::size_t app_pos = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t k = 0; k < 2 && app_pos < in.app.size(); ++k)
            drv.dispatch(in.app.at(app_pos++));
        if (r % kDistillPeriod == 0 && !in.distill.empty()) {
            for (std::size_t i = 0; i < tiles; ++i)
                drv.dispatchBlock(i, /*block_id=*/0, in.distill);
        }
        drv.broadcastSync();
        drv.stepRound();
    }
    drv.decodeNow();
}

// ------------------------------------------------------------- episodes

/** FNV-1a accumulator over architectural observables. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    }

    void
    mix(const quantum::PauliFrame &f)
    {
        for (const std::uint64_t w : f.xWords())
            mix(w);
        for (const std::uint64_t w : f.zWords())
            mix(w);
    }
};

/** Fold every tile's live frame, ledger and round count. */
void
digestTiles(Digest &d, core::MasterController &master)
{
    for (std::size_t i = 0; i < master.numMces(); ++i) {
        core::Mce &m = master.mce(i);
        d.mix(m.frame());
        d.mix(m.correctionLedger());
        d.mix(m.roundsRun());
    }
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Call `fn(key, rest)` for every "key rest" line of `text`. */
void
forEachPair(const std::string &text,
            const std::function<void(const std::string &,
                                     const std::string &)> &fn)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::size_t sp = text.find(' ', pos);
        if (sp < eol)
            fn(text.substr(pos, sp - pos),
               text.substr(sp + 1, eol - sp - 1));
        pos = eol + 1;
    }
}

/**
 * The Stable registry snapshot (attached stat trees included) as
 * "snap.<name>" rows. The master's own bus_bytes_* stats are left
 * out: the layered driver books bus bytes in its ledger instead, and
 * the two ledgers are compared category by category.
 */
void
recordSnapshot(Record &rec)
{
    forEachPair(sim::metricsSnapshot(),
                [&](const std::string &name, const std::string &value) {
                    if (name.rfind("master.bus_bytes_", 0) != 0)
                        rec["snap." + name] = value;
                });
}

/**
 * Every tile's stat tree summed over tiles, as "tiles.<stat>" rows
 * (a tile's own "mce<N>." prefix becomes "mce."): the registry
 * snapshot names stats by their leaf group, so it keeps one tile's
 * exec_unit/mask_table/icache values and drops the rest.
 */
void
recordTileStats(Record &rec, core::MasterController &m)
{
    std::map<std::string, double> sums;
    for (std::size_t i = 0; i < m.numMces(); ++i) {
        const std::string own = m.mce(i).name() + ".";
        m.mce(i).stats().visitValues(
            [&](const std::string &name, double v) {
                sums[name.rfind(own, 0) == 0
                         ? "mce." + name.substr(own.size())
                         : name] += v;
            });
    }
    for (const auto &[name, v] : sums)
        rec["tiles." + name] = fmt(v);
}

BusLedger
masterBus(const core::MasterController &m)
{
    BusLedger b;
    b.logical = m.busBytesLogical();
    b.sync = m.busBytesSync();
    b.syndrome = m.busBytesSyndrome();
    b.corrections = m.busBytesCorrections();
    b.cache = m.busBytesCacheTraffic();
    return b;
}

/**
 * Simulated totals read off each master before it goes away (one per
 * round episode, one per Monte-Carlo shot), plus the bus ledger:
 * what the modelled ledger is computed from, and what both passes
 * must agree on exactly.
 */
struct SimTotals
{
    BusLedger bus;
    double baseline = 0;   ///< Fig-14 baseline-equivalent bytes
    double lutLocal = 0;   ///< detection events the tile LUTs resolved
    double packets = 0;
    double latencyTicks = 0;
    std::size_t minTileRounds = SIZE_MAX;

    void
    add(core::MasterController &m, const BusLedger &ledger)
    {
        bus += ledger;
        baseline += m.baselineEquivalentBytes();
        packets += m.network().packetsCarried();
        latencyTicks += m.network().meanLatencyTicks()
            * m.network().packetsCarried();
        for (std::size_t i = 0; i < m.numMces(); ++i) {
            lutLocal += m.mce(i).eventsResolvedLocally();
            minTileRounds = std::min(minTileRounds, m.mce(i).roundsRun());
        }
    }

    void
    record(Record &rec) const
    {
        rec["bus.logical"] = fmt(bus.logical);
        rec["bus.sync"] = fmt(bus.sync);
        rec["bus.syndrome"] = fmt(bus.syndrome);
        rec["bus.corrections"] = fmt(bus.corrections);
        rec["bus.cache"] = fmt(bus.cache);
        rec["bus.baseline"] = fmt(baseline);
        rec["sim.lut_local"] = fmt(lutLocal);
        rec["sim.packets"] = fmt(packets);
        rec["sim.latency_ticks"] = fmt(latencyTicks);
        rec["sim.min_tile_rounds"] = std::to_string(minTileRounds);
    }
};

template <class T>
T
sumOf(const std::vector<T> &v)
{
    return std::accumulate(v.begin(), v.end(), T(0));
}

/** Per-layer totals, call counts and call percentiles of a log. */
void
recordSpans(Record &rec, const SpanLog &log)
{
    std::vector<std::vector<std::int64_t>> durs(NumLayers);
    for (const Span &s : log.spans)
        durs[s.layer].push_back(s.dur);
    std::int64_t attributed = 0;
    for (std::size_t l = 0; l < NumLayers; ++l) {
        std::vector<std::int64_t> &d = durs[l];
        const std::int64_t total = sumOf(d);
        if (l != QeccExtract)
            attributed += total;
        const std::string key = std::string("host.") + kLayerNames[l];
        rec[key + ".total_ns"] = std::to_string(total);
        rec[key + ".calls"] = std::to_string(d.size());
        if (d.empty())
            continue;
        // Nearest-rank percentiles over individual calls.
        for (const double q : {0.50, 0.99}) {
            const std::size_t rank = std::size_t(
                std::max(1.0, std::ceil(q * double(d.size()))));
            std::nth_element(d.begin(), d.begin() + (rank - 1),
                             d.end());
            rec[key + (q < 0.9 ? ".p50_ns" : ".p99_ns")] =
                std::to_string(d[rank - 1]);
        }
    }
    rec["host.attributed_ns"] = std::to_string(attributed);
    rec["host.excluded_ns"] = std::to_string(log.excludedNs);
}

/** Chrome/Perfetto JSON: one track per tile plus one for the master. */
void
writeSpans(const std::string &path, const char *workload,
           const SpanLog &log, std::size_t tiles)
{
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot write span trace '%s'", path.c_str());
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"args\":{\"name\":\"" << workload << "\"}}";
    for (std::size_t t = 0; t <= tiles; ++t) {
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":" << t << ",\"args\":{\"name\":\""
           << (t == 0 ? std::string("master")
                      : "tile " + std::to_string(t - 1))
           << "\"}}";
    }
    char buf[96];
    for (const Span &s : log.spans) {
        std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                      double(s.start) / 1e3, double(s.dur) / 1e3);
        os << ",\n{\"name\":\"" << kLayerNames[s.layer]
           << "\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << (s.track + 1) << "," << buf
           << ",\"args\":{\"workload\":\"" << workload
           << "\",\"round\":" << s.round << "}}";
    }
    os << "\n]}\n";
}

/** Median and quartiles as Python's statistics.quantiles(n=4). */
struct Summary
{
    double median = 0;
    double p25 = 0;
    double p75 = 0;
    std::size_t n = 0;
};

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    if (n < 2) {
        s.p25 = s.p75 = s.median;
        return s;
    }
    // The 'exclusive' method: position i*(n+1)/4, interpolated.
    auto quartile = [&](long i) {
        const long m = long(n) + 1;
        const long j = std::clamp<long>(i * m / 4, 1, long(n) - 1);
        const double delta = double(i * m - j * 4);
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    s.p25 = quartile(1);
    s.p75 = quartile(3);
    return s;
}

/**
 * Set-up is timed this many times per episode and the median kept:
 * single millisecond-scale timings right after fork are dominated by
 * first-touch page faults.
 */
constexpr std::size_t kSetupRepeats = 5;

/** What one episode (one forked child) is asked to do. */
struct EpisodeSpec
{
    const Workload *w = nullptr;
    std::size_t length = 0;
    std::uint64_t seed = 1;
    bool traced = false;
    std::string traceOut; ///< span export path, or empty
};

/** A rounds workload: set up, run `length` master rounds, report. */
Record
runRoundsEpisode(const EpisodeSpec &spec)
{
    const Workload &w = *spec.w;
    const core::MasterConfig cfg = masterConfig(w, spec.seed);
    Record rec;

    Inputs in;
    std::unique_ptr<core::QuestSystem> sys;
    std::vector<double> setups;
    for (std::size_t k = 0; k < kSetupRepeats; ++k) {
        sys.reset();
        const Clock::time_point s0 = Clock::now();
        in = makeInputs(w, spec.length, spec.seed);
        sys = std::make_unique<core::QuestSystem>(cfg);
        if (w.logical)
            sys->placeLogicalQubits();
        setups.push_back(seconds(s0, Clock::now()));
    }
    core::MasterController &master = sys->master();

    SpanLog log;
    std::unique_ptr<LayeredDriver> drv;
    if (spec.traced) {
        log.spans.reserve(spec.length * (8 * w.tiles + 8));
        drv = std::make_unique<LayeredDriver>(
            cfg, log, sim::Rng::deriveSeed(spec.seed, kSaltShadow));
        drv->bind(master);
    }
    const Clock::time_point t0 = Clock::now();
    if (spec.traced) {
        runMixedLayered(*drv, w.tiles, in, spec.length);
    } else {
        sys->runMixedWorkload(in.app, in.distill, spec.length,
                              kDistillPeriod);
    }
    const Clock::time_point t1 = Clock::now();

    rec["setup_s"] = fmt(summarize(setups).median);
    rec["wall_s"] = fmt(seconds(t0, t1) - double(log.excludedNs) / 1e9);
    rec["work"] = std::to_string(spec.length);
    rec["rounds"] = std::to_string(spec.length);
    Digest d;
    digestTiles(d, master);
    rec["digest"] = hex(d.h);
    SimTotals totals;
    totals.add(master, spec.traced ? drv->bus() : masterBus(master));
    totals.record(rec);
    recordTileStats(rec, master);
    recordSnapshot(rec);
    if (spec.traced) {
        recordSpans(rec, log);
        if (!spec.traceOut.empty())
            writeSpans(spec.traceOut, w.name, log, w.tiles);
    }
    return rec;
}

/** End-of-shot readout with a bench-owned decoder (not timed apart
 *  in the untraced pass: it is part of every shot). */
class ShotReadout
{
  public:
    explicit ShotReadout(std::size_t distance)
        : _lattice(2 * distance - 1, 2 * distance - 1),
          _decoder(_lattice)
    {}

    // _decoder points at _lattice: never copy or move.
    ShotReadout(const ShotReadout &) = delete;
    ShotReadout &operator=(const ShotReadout &) = delete;

    /**
     * Fold the correction ledger into the frame, extract one
     * noiseless round, decode that layer and check logical parity on
     * both supports. @return true on a logical failure.
     */
    bool
    failed(core::Mce &m) const
    {
        const quantum::PauliFrame &f = m.frame();
        const quantum::PauliFrame &ledger = m.correctionLedger();
        quantum::PauliFrame res(f.numQubits());
        for (std::size_t q = 0; q < f.numQubits(); ++q) {
            if (f.xError(q) != ledger.xError(q))
                res.injectX(q);
            if (f.zError(q) != ledger.zError(q))
                res.injectZ(q);
        }
        const qecc::SyndromeExtractor &ex = m.extractor();
        const std::vector<qecc::SyndromeRound> layer{
            ex.runRound(res, nullptr)};
        decode::applyCorrection(
            res, _decoder.decode(decode::extractDetectionEvents(layer,
                                                                ex)));
        if (ex.runRound(res, nullptr).any())
            return true;
        std::size_t x = 0, z = 0;
        for (const qecc::Coord c : _lattice.logicalZSupport())
            x += res.xError(_lattice.index(c)) ? 1 : 0;
        for (const qecc::Coord c : _lattice.logicalXSupport())
            z += res.zError(_lattice.index(c)) ? 1 : 0;
        return (x % 2) || (z % 2);
    }

  private:
    qecc::Lattice _lattice;
    decode::MwpmDecoder _decoder;
};

/**
 * The Monte-Carlo workload: `length` shots, each constructing its own
 * MasterController, running d rounds, decoding and reading out.
 */
Record
runShotsEpisode(const EpisodeSpec &spec)
{
    const Workload &w = *spec.w;
    const core::MasterConfig base = masterConfig(w, spec.seed);
    const std::size_t d = w.distance;
    Record rec;

    const std::uint64_t shot_seed =
        sim::Rng::deriveSeed(spec.seed, kSaltShots);
    // Set-up: the readout machinery plus one warm-up construction, so
    // work a change moves out of the per-shot constructor shows here.
    std::unique_ptr<ShotReadout> readout;
    std::unique_ptr<core::MasterController> warm;
    std::vector<double> setups;
    for (std::size_t k = 0; k < kSetupRepeats; ++k) {
        readout.reset();
        warm.reset();
        const Clock::time_point s0 = Clock::now();
        readout = std::make_unique<ShotReadout>(d);
        warm = std::make_unique<core::MasterController>(base);
        setups.push_back(seconds(s0, Clock::now()));
    }
    warm.reset();
    SpanLog log;
    std::unique_ptr<LayeredDriver> drv;
    if (spec.traced) {
        log.spans.reserve(spec.length * (4 * d + 8));
        drv = std::make_unique<LayeredDriver>(
            base, log, sim::Rng::deriveSeed(spec.seed, kSaltShadow));
    }

    Digest digest;
    std::size_t failures = 0;
    SimTotals totals;
    std::unique_ptr<core::MasterController> last;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t shot = 0; shot < spec.length; ++shot) {
        core::MasterConfig cfg = base;
        cfg.mce.seed = shot_seed + shot;
        bool failed = false;
        std::unique_ptr<core::MasterController> m;
        if (spec.traced) {
            std::int64_t t = log.now();
            m = std::make_unique<core::MasterController>(cfg);
            log.close(Construct, kMasterTrack, t);
            drv->bind(*m);
            for (std::size_t r = 0; r < d; ++r)
                drv->stepRound();
            drv->decodeNow();
            t = log.now();
            failed = readout->failed(m->mce(0));
            log.close(Readout, kMasterTrack, t);
        } else {
            m = std::make_unique<core::MasterController>(cfg);
            m->runRounds(d);
            m->decodeNow();
            failed = readout->failed(m->mce(0));
        }
        // The driver's ledger accumulates over shots already.
        totals.add(*m, spec.traced ? BusLedger{} : masterBus(*m));
        failures += failed ? 1 : 0;
        digest.mix(failed ? 1 : 0);
        digestTiles(digest, *m);
        if (shot + 1 == spec.length) {
            last = std::move(m); // kept alive for the snapshot
        } else if (spec.traced) {
            const std::int64_t t = log.now();
            m.reset();
            log.close(Teardown, kMasterTrack, t);
        }
    }
    const Clock::time_point t1 = Clock::now();

    rec["setup_s"] = fmt(summarize(setups).median);
    rec["wall_s"] = fmt(seconds(t0, t1) - double(log.excludedNs) / 1e9);
    rec["work"] = std::to_string(spec.length);
    rec["rounds"] = std::to_string(spec.length * d);
    rec["failures"] = std::to_string(failures);
    rec["digest"] = hex(digest.h);
    if (spec.traced)
        totals.bus = drv->bus();
    totals.record(rec);
    recordTileStats(rec, *last);
    recordSnapshot(rec);
    if (spec.traced) {
        recordSpans(rec, log);
        if (!spec.traceOut.empty())
            writeSpans(spec.traceOut, w.name, log, w.tiles);
    }
    return rec;
}

// ---------------------------------------------------- child processes

/** One episode's outcome as seen by the parent. */
struct Episode
{
    bool ok = false;
    std::string error;
    double rssMb = 0;
    Record rec;

    double
    num(const std::string &key) const
    {
        auto it = rec.find(key);
        return it == rec.end() ? 0.0 : std::strtod(it->second.c_str(),
                                                   nullptr);
    }
};

void
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        off += std::size_t(n);
    }
}

/** Seconds a child may run before it is killed and counted failed. */
constexpr unsigned kChildTimeoutS = 150;

/**
 * Run one episode in a forked child and collect its record and peak
 * RSS. The child reports "key value" lines over a pipe; a crash, a
 * timeout or an exception marks the episode failed.
 */
Episode
forkEpisode(const EpisodeSpec &spec)
{
    Episode ep;
    int fds[2];
    if (::pipe(fds) != 0) {
        ep.error = "pipe failed";
        return ep;
    }
    std::cout.flush();
    std::cerr.flush();
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        ep.error = "fork failed";
        return ep;
    }
    if (pid == 0) {
        ::close(fds[0]);
        // Never outlive the bench: die with it, or after a timeout.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::alarm(kChildTimeoutS);
        std::string out;
        try {
            const Record rec = spec.w->shots ? runShotsEpisode(spec)
                                             : runRoundsEpisode(spec);
            for (const auto &[k, v] : rec)
                out += k + " " + v + "\n";
            out += "ok 1\n";
        } catch (const std::exception &e) {
            std::string msg = e.what();
            std::replace(msg.begin(), msg.end(), '\n', ' ');
            out = "error " + msg + "\n";
        } catch (...) {
            out = "error unknown exception\n";
        }
        writeAll(fds[1], out);
        ::close(fds[1]);
        ::_exit(0);
    }
    ::close(fds[1]);
    std::string text;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, std::size_t(n));
    }
    ::close(fds[0]);
    int status = 0;
    struct rusage ru = {};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {}
    ep.rssMb = double(ru.ru_maxrss) / 1024.0;

    forEachPair(text, [&](const std::string &key, const std::string &rest) {
        if (key == "error")
            ep.error = rest;
        else
            ep.rec[key] = rest;
    });
    if (WIFSIGNALED(status)) {
        ep.error = "child killed by signal "
            + std::to_string(WTERMSIG(status));
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ep.error = "child exited with status "
            + std::to_string(WEXITSTATUS(status));
    } else if (ep.error.empty() && ep.rec.count("ok") == 0) {
        ep.error = "child reported no result";
    }
    ep.ok = ep.error.empty();
    return ep;
}

struct Metric
{
    std::string name;
    std::string unit;
    Summary value;
};

/** Everything measured for one (workload, seed). */
struct WorkloadRun
{
    const Workload *w = nullptr;
    std::uint64_t seed = 0;
    std::size_t length = 0; ///< rounds (or shots) per episode
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    std::vector<Metric> metrics;

    void
    add(const std::string &name, const std::string &unit,
        const std::vector<double> &values)
    {
        metrics.push_back(Metric{name, unit, summarize(values)});
    }

    void
    add(const std::string &name, const std::string &unit, double value)
    {
        add(name, unit, std::vector<double>{value});
    }
};

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Values of the snapshot rows named snap.<prefix>*<suffix>. */
std::vector<double>
snapRows(const Episode &ep, const std::string &prefix,
         const std::string &suffix)
{
    std::vector<double> rows;
    const std::string head = "snap." + prefix;
    for (const auto &[key, value] : ep.rec) {
        if (key.rfind(head, 0) == 0
            && key.size() >= head.size() + suffix.size()
            && key.compare(key.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            rows.push_back(std::strtod(value.c_str(), nullptr));
    }
    return rows;
}


double
busTotal(const Episode &ep)
{
    return ep.num("bus.logical") + ep.num("bus.sync")
        + ep.num("bus.syndrome") + ep.num("bus.corrections")
        + ep.num("bus.cache");
}

/**
 * Differences between two episodes' simulated outcomes: digest, bus
 * ledger, and every Stable snapshot row. Empty when bit-identical.
 */
std::vector<std::string>
simulatedDiff(const Episode &a, const Episode &b)
{
    std::vector<std::string> diffs;
    std::map<std::string, std::pair<std::string, std::string>> keys;
    for (const auto &[k, v] : a.rec)
        keys[k].first = v;
    for (const auto &[k, v] : b.rec)
        keys[k].second = v;
    for (const auto &[k, v] : keys) {
        const bool simulated = k.rfind("snap.", 0) == 0
            || k.rfind("bus.", 0) == 0 || k == "digest"
            || k.rfind("sim.", 0) == 0 || k.rfind("tiles.", 0) == 0
            || k == "failures";
        if (simulated && v.first != v.second)
            diffs.push_back(k + ": " + v.first + " vs " + v.second);
    }
    return diffs;
}

/** The modelled ledger: what the simulated machine did. */
void
addModelled(WorkloadRun &run, const Episode &ep)
{
    const Workload &w = *run.w;
    const double rounds = ep.num("rounds");
    const double shots = w.shots ? ep.num("work") : 0.0;
    auto per_round = [&](const std::string &snap) {
        return ratio(ep.num("snap." + snap), rounds);
    };
    // Tile stat trees describe the live master: the whole run, or the
    // last shot's d rounds on mc_shots.
    const double tree_rounds = w.shots ? double(w.distance) : rounds;
    auto tree_per_round = [&](const std::string &stat) {
        return ratio(ep.num("tiles." + stat), tree_rounds);
    };

    run.add("mce.replay.uops", "uops/round",
            per_round("mce.replay.uops"));
    run.add("mce.replay.microcode_bits", "bits/round",
            per_round("mce.replay.microcode_bits"));
    run.add("exec_unit.latches", "latches/round",
            tree_per_round("exec_unit.latches"));
    run.add("exec_unit.master_clocks", "clocks/round",
            tree_per_round("exec_unit.master_clocks"));

    const double sched_rounds = ep.num("snap.sched.replay.rounds");
    const double cycles_per_tile_round =
        ratio(ep.num("snap.sched.replay.cycles"), sched_rounds);
    const core::MceConfig tile = masterConfig(w, 1).mce;
    const double deadline_cycles =
        sim::ticksToSeconds(
            qecc::protocolSpec(tile.protocol)
                .roundDuration(tech::gateLatencies(tile.technology)))
        * tech::jjClockHz;
    run.add("sched.replay.cycles_per_tile_round", "cycles",
            cycles_per_tile_round);
    run.add("sched.deadline_frac", "fraction",
            ratio(cycles_per_tile_round, deadline_cycles));
    run.add("sched.stall.data", "cycles/round",
            per_round("sched.stall.data"));
    run.add("sched.stall.queue_full", "cycles/round",
            per_round("sched.stall.queue_full"));
    run.add("sched.stall.fetch", "cycles/round",
            per_round("sched.stall.fetch"));
    run.add("sched.stall.bandwidth", "cycles/round",
            per_round("sched.stall.bandwidth"));
    run.add("sched.bw_wait_cycles", "cycles/round",
            ratio(sumOf(snapRows(ep, "sched.tile", ".bw_wait_cycles")),
                  rounds));
    const std::vector<double> slack =
        snapRows(ep, "sched.tile", ".slack");
    run.add("sched.slack_min", "ratio",
            slack.empty() ? 0.0
                          : *std::min_element(slack.begin(), slack.end()));
    run.add("sched.plans", "count", ep.num("snap.sched.plans"));
    run.add("mask_table.writes", "writes/round",
            tree_per_round("mask_table.writes"));

    const double local = ep.num("sim.lut_local")
        + ep.num("snap.decode.stream.events_local");
    const double forwarded =
        ep.num("bus.syndrome") / double(decode::detectionEventBytes);
    run.add("decode.lut.local_frac", "fraction",
            ratio(local, local + forwarded));
    const double exact = ep.num("snap.decode.mwpm.exact_matchings");
    const double greedy = ep.num("snap.decode.mwpm.greedy_matchings");
    run.add("decode.mwpm.events_per_decode", "events",
            ratio(ep.num("snap.decode.mwpm.events_matched"),
                  ep.num("snap.decode.mwpm.decodes")));
    run.add("decode.mwpm.greedy_frac", "fraction",
            ratio(greedy, exact + greedy));
    run.add("decode.stream.lag_p99_rounds", "rounds",
            ep.num("snap.decode.stream.lag_rounds.p99"));
    run.add("decode.stream.deferred_frac", "fraction",
            ratio(ep.num("snap.decode.stream.events_deferred"),
                  ep.num("snap.decode.stream.events")));

    run.add("master.bus_bytes.logical", "B/round",
            ratio(ep.num("bus.logical"), rounds));
    run.add("master.bus_bytes.sync", "B/round",
            ratio(ep.num("bus.sync"), rounds));
    run.add("master.bus_bytes.syndrome", "B/round",
            ratio(ep.num("bus.syndrome"), rounds));
    run.add("master.bus_bytes.corrections", "B/round",
            ratio(ep.num("bus.corrections"), rounds));
    run.add("master.bus_bytes.cache", "B/round",
            ratio(ep.num("bus.cache"), rounds));
    const double hits = ep.num("snap.mce.icache.hits");
    run.add("icache.hit_rate", "fraction",
            ratio(hits, hits + ep.num("snap.mce.icache.misses")));
    run.add("network.latency_mean_ticks", "ticks",
            ratio(ep.num("sim.latency_ticks"), ep.num("sim.packets")));
    run.add("logical_failure_rate", "fraction",
            ratio(ep.num("failures"), shots));
}

/**
 * Host time per layer from the traced episodes (medians).
 * @return the median unattributed share of traced wall time.
 */
double
addHostLayers(WorkloadRun &run, const std::vector<Episode> &traced,
              double untraced_wall)
{
    auto per_unit = [&](const std::string &layer,
                        const std::string &field) {
        std::vector<double> v;
        for (const Episode &ep : traced) {
            const double x = ep.num("host." + layer + "." + field);
            v.push_back(field == "total_ns" ? ratio(x, ep.num("work"))
                                            : x);
        }
        return v;
    };
    for (std::size_t l = 0; l < NumLayers; ++l)
        run.add(std::string(kLayerNames[l]) + ".ns", "ns",
                per_unit(kLayerNames[l], "total_ns"));
    run.add("mce.round.call_p99_ns", "ns",
            per_unit("mce.round", "p99_ns"));
    run.add("core.arbitrate.call_p99_ns", "ns",
            per_unit("core.arbitrate", "p99_ns"));
    run.add("decode.mwpm.call_p50_ns", "ns",
            per_unit("decode.mwpm", "p50_ns"));
    run.add("decode.mwpm.call_p99_ns", "ns",
            per_unit("decode.mwpm", "p99_ns"));
    run.add("decode.stream.call_p99_ns", "ns",
            per_unit("decode.stream", "p99_ns"));

    std::vector<double> replay, unattributed, walls;
    for (const Episode &ep : traced) {
        const double work = ep.num("work");
        replay.push_back(
            ratio(ep.num("host.mce.round.total_ns")
                      - ep.num("host.qecc.extract.total_ns"),
                  work));
        const double wall_ns = ep.num("wall_s") * 1e9;
        unattributed.push_back(
            ratio(wall_ns - ep.num("host.attributed_ns"), wall_ns));
        walls.push_back(ep.num("wall_s"));
    }
    run.add("mce.replay.ns", "ns", replay);
    run.add("unattributed_frac", "fraction", unattributed);
    run.add("trace_overhead_frac", "fraction",
            ratio(summarize(walls).median, untraced_wall) - 1.0);
    return summarize(unattributed).median;
}

// ----------------------------------------------------------------- driver

struct Options
{
    std::vector<const Workload *> workloads;
    std::vector<std::uint64_t> seeds{1};
    double seconds = 0;
    int trace = -1; ///< -1 both passes, 0 untraced only, 1 traced
    bool smoke = false;
    bool check = false;
    std::string out;
    std::string traceOut;
};

/** Fraction of `length` a --smoke run uses. */
constexpr std::size_t kSmokeDivisor = 50;

/** Untraced repeats of a plain run (median, p25, p75 over these). */
constexpr std::size_t kRepeats = 5;

/** Untraced repeats: fewer in a --smoke run, and under --seconds the
 *  least before the time budget decides. */
std::size_t
minRepeats(const Options &opt)
{
    if (opt.trace == 1)
        return 1;
    if (opt.smoke)
        return 2;
    return opt.seconds > 0 && opt.trace == 0 ? 3 : kRepeats;
}

std::string
traceOutPath(const Options &opt, const Workload &w, std::uint64_t seed)
{
    if (opt.traceOut.empty())
        return "";
    if (opt.workloads.size() == 1 && opt.seeds.size() == 1)
        return opt.traceOut;
    std::string infix = std::string(".") + w.name;
    if (opt.seeds.size() > 1)
        infix += ".seed" + std::to_string(seed);
    const std::size_t dot = opt.traceOut.rfind('.');
    const std::size_t slash = opt.traceOut.rfind('/');
    if (dot == std::string::npos
        || (slash != std::string::npos && dot < slash))
        return opt.traceOut + infix;
    return opt.traceOut.substr(0, dot) + infix
        + opt.traceOut.substr(dot);
}

WorkloadRun
runWorkload(const Options &opt, const Workload &w, std::uint64_t seed)
{
    WorkloadRun run;
    run.w = &w;
    run.seed = seed;

    EpisodeSpec spec;
    spec.w = &w;
    spec.seed = seed;
    spec.length = opt.smoke
        ? std::max<std::size_t>(w.length / kSmokeDivisor, 2 * w.distance)
        : w.length;
    run.length = spec.length;

    const Clock::time_point start = Clock::now();
    auto elapsed = [&] { return seconds(start, Clock::now()); };
    std::size_t episodes = 0;
    // Repeat until `min` episodes ran and, against a --seconds budget,
    // until one more (of the mean length so far) would overrun it.
    auto more = [&](std::size_t done, std::size_t min, bool budgeted) {
        if (done < min)
            return true;
        return budgeted && opt.seconds > 0
            && elapsed() * double(episodes + 1) / double(episodes)
                <= opt.seconds;
    };
    auto note = [&](const std::string &what) {
        run.problems.push_back(what);
        std::cerr << w.name << " seed " << seed << ": " << what << "\n";
    };
    // Run one episode; false when it failed or diverged from `ref`
    // (the run then stops: its metrics would mean nothing).
    auto attempt = [&](Episode &ep, const Episode *ref,
                       const char *what) {
        ep = forkEpisode(spec);
        ++episodes;
        run.attempted += spec.length;
        if (!ep.ok) {
            run.failed += spec.length;
            note("episode failed: " + ep.error);
            return false;
        }
        const auto diffs =
            ref ? simulatedDiff(*ref, ep) : std::vector<std::string>{};
        if (!diffs.empty()) {
            run.failed += spec.length;
            note(std::string(what) + ": " + diffs.front() + " ("
                 + std::to_string(diffs.size()) + " differences)");
            return false;
        }
        if (ref) // keep the parent small: only the reference's rows
            std::erase_if(ep.rec, [](const auto &kv) {
                return kv.first.rfind("snap.", 0) == 0;
            });
        return true;
    };

    // Same seed, same inputs: every repeat is bit-identical, and the
    // layered pass reproduces QuestSystem exactly.
    std::vector<Episode> untraced;
    while (more(untraced.size(), minRepeats(opt), opt.trace == 0)) {
        Episode ep;
        if (!attempt(ep, untraced.empty() ? nullptr : &untraced.front(),
                     "repeat diverged from the first"))
            return run;
        untraced.push_back(std::move(ep));
    }
    const Episode &ref = untraced.front();

    std::vector<Episode> traced;
    if (opt.trace != 0) {
        spec.traced = true;
        spec.traceOut = traceOutPath(opt, w, seed);
        while (more(traced.size(), 1, opt.trace == 1)) {
            Episode ep;
            const bool ok = attempt(
                ep, &ref, "layered pass diverged from QuestSystem");
            spec.traceOut.clear(); // export the first traced repeat
            if (!ok)
                return run;
            traced.push_back(std::move(ep));
        }
    }

    // Sanity of the simulated outcome itself.
    const double savings = ratio(ref.num("bus.baseline"), busTotal(ref));
    if (!(savings > 1.0))
        note("bandwidth savings " + fmt(savings) + " not above 1");
    const double expect_rounds =
        double(w.shots ? w.distance : spec.length);
    if (ref.num("sim.min_tile_rounds") != expect_rounds)
        note("a tile ran " + ref.rec.at("sim.min_tile_rounds")
             + " rounds, expected " + fmt(expect_rounds));
    if (w.shots) {
        const double shots = double(spec.length);
        const double ler = ratio(ref.num("failures"), shots);
        const double limit = kReferenceLer
            + kLerSigmas
                * std::sqrt(kReferenceLer * (1 - kReferenceLer) / shots);
        if (ler > limit)
            note("logical failure rate " + fmt(ler) + " above "
                 + fmt(limit) + ": decoding got worse");
    }

    std::vector<double> rps, sps, setup, rss, walls;
    for (const Episode &ep : untraced) {
        rps.push_back(ratio(ep.num("rounds"), ep.num("wall_s")));
        sps.push_back(ratio(ep.num("work"), ep.num("wall_s")));
        setup.push_back(ep.num("setup_s"));
        rss.push_back(ep.rssMb);
        walls.push_back(ep.num("wall_s"));
    }
    if (opt.trace != 1) {
        run.add("rounds_per_s", "1/s", rps);
        if (w.shots)
            run.add("shots_per_s", "1/s", sps);
        run.add("setup_s", "s", setup);
        run.add("peak_rss_mb", "MiB", rss);
        run.add("bandwidth_savings", "x", savings);
    }
    if (opt.trace != 0) {
        const double unattributed =
            addHostLayers(run, traced, summarize(walls).median);
        if (unattributed > 0.05)
            note("unattributed host time " + fmt(unattributed)
                 + " above 0.05");
        addModelled(run, ref);
    }
    return run;
}

void
writeJson(const Options &opt, const std::vector<WorkloadRun> &runs)
{
    std::ofstream os(opt.out);
    if (!os)
        sim::fatal("cannot write '%s'", opt.out.c_str());
    os << "{\n  \"bench\": \"system_throughput\",\n  \"smoke\": "
       << (opt.smoke ? "true" : "false") << ",\n  \"runs\": [";
    for (std::size_t r = 0; r < runs.size(); ++r) {
        const WorkloadRun &run = runs[r];
        os << (r ? "," : "") << "\n    {\"workload\": \"" << run.w->name
           << "\", \"seed\": " << run.seed
           << ", \"episode_length\": " << run.length
           << ", \"attempted\": " << run.attempted
           << ", \"failed\": " << run.failed << ", \"correct\": "
           << (run.problems.empty() ? "true" : "false")
           << ",\n     \"metrics\": {";
        for (std::size_t i = 0; i < run.metrics.size(); ++i) {
            const Metric &m = run.metrics[i];
            auto num = [](double v) {
                return std::isfinite(v) ? fmt(v) : std::string("null");
            };
            os << (i ? "," : "") << "\n       \"" << m.name
               << "\": {\"median\": " << num(m.value.median)
               << ", \"p25\": " << num(m.value.p25)
               << ", \"p75\": " << num(m.value.p75)
               << ", \"n\": " << m.value.n << ", \"unit\": \"" << m.unit
               << "\"}";
        }
        os << "}}";
    }
    os << "\n  ]\n}\n";
}

bool
parseList(const std::string &text,
          const std::function<bool(const std::string &)> &take)
{
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        if (!take(text.substr(pos, comma - pos)))
            return false;
        pos = comma + 1;
    }
    return true;
}

bool
parseUnsigned(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 19
        || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(s);
    return true;
}

int
usage(const std::string &why)
{
    std::cerr << "system_throughput: " << why << "\n"
              << "usage: system_throughput [--workload=NAME[,NAME]] "
                 "[--seed=N[,N]] [--seconds=S] "
                 "[--trace=0|1] [--smoke] [--check] [--out=PATH] "
                 "[--trace-out=PATH]\nworkloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        std::uint64_t n = 0;
        if (key == "--smoke" && eq == std::string::npos) {
            opt.smoke = true;
        } else if (key == "--check" && eq == std::string::npos) {
            opt.check = true;
        } else if (key == "--workload") {
            const bool ok = parseList(val, [&](const std::string &name) {
                for (const Workload &w : kWorkloads) {
                    if (name == w.name) {
                        opt.workloads.push_back(&w);
                        return true;
                    }
                }
                return false;
            });
            if (!ok)
                return usage("unknown workload in '" + val + "'");
        } else if (key == "--seed") {
            opt.seeds.clear();
            if (!parseList(val, [&](const std::string &s) {
                    std::uint64_t seed = 0;
                    if (!parseUnsigned(s, seed))
                        return false;
                    opt.seeds.push_back(seed);
                    return true;
                }))
                return usage("bad seed list '" + val + "'");
        } else if (key == "--seconds") {
            if (!parseUnsigned(val, n) || n > 3600)
                return usage("--seconds must be in [0, 3600]");
            opt.seconds = double(n);
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                return usage("--trace must be 0 or 1");
            opt.trace = val == "1" ? 1 : 0;
        } else if (key == "--out" && !val.empty()) {
            opt.out = val;
        } else if (key == "--trace-out" && !val.empty()) {
            opt.traceOut = val;
        } else {
            return usage("unknown flag '" + arg + "'");
        }
    }
    if (opt.workloads.empty()) {
        for (const Workload &w : kWorkloads)
            opt.workloads.push_back(&w);
    }

    std::vector<WorkloadRun> runs;
    bool all_ok = true;
    for (const std::uint64_t seed : opt.seeds) {
        for (const Workload *w : opt.workloads) {
            WorkloadRun run = runWorkload(opt, *w, seed);
            for (const Metric &m : run.metrics)
                std::cout << w->name << " " << m.name << " "
                          << fmt(m.value.median) << " " << m.unit << "\n";
            std::cout << w->name << " attempted " << run.attempted
                      << " count\n"
                      << w->name << " failed " << run.failed
                      << " count\n";
            all_ok = all_ok && run.problems.empty();
            runs.push_back(std::move(run));
        }
    }
    std::cout.flush();
    if (!opt.out.empty())
        writeJson(opt, runs);
    if (opt.check) {
        std::cerr << (all_ok ? "check: every workload correct\n"
                             : "check: FAILED\n");
        if (!all_ok)
            return 1;
    }
    return 0;
}
