#include "streaming.hpp"

#include <algorithm>
#include <span>
#include <tuple>

#include "sim/logging.hpp"
#include "sim/trace.hpp"

namespace quest::decode {

StreamingDecoder::StreamingDecoder(
    const qecc::SyndromeExtractor &extractor, const StreamConfig &cfg)
    : StreamingDecoder(
          extractor,
          std::make_shared<const MatchGeometry>(extractor.lattice()), cfg)
{}

StreamingDecoder::StreamingDecoder(
    const qecc::SyndromeExtractor &extractor,
    std::shared_ptr<const MatchGeometry> geometry, const StreamConfig &cfg)
    : _extractor(&extractor), _cfg(cfg), _deadline(cfg.deadline),
      _lut(extractor.lattice()), _mwpm(std::move(geometry)),
      _cluster(_mwpm),
      _mWindows(sim::metrics::Registry::global().counter(
          "decode.stream.windows", "sliding decode windows decoded")),
      _mRounds(sim::metrics::Registry::global().counter(
          "decode.stream.rounds",
          "syndrome rounds pushed into streaming decoders")),
      _mEvents(sim::metrics::Registry::global().counter(
          "decode.stream.events",
          "detection events observed in decode windows")),
      _mEventsLocal(sim::metrics::Registry::global().counter(
          "decode.stream.events_local",
          "events resolved by the in-window LUT stage")),
      _mForwarded(sim::metrics::Registry::global().counter(
          "decode.stream.events_forwarded",
          "newly-seen residual events forwarded to the global stage")),
      _mDeferred(sim::metrics::Registry::global().counter(
          "decode.stream.events_deferred",
          "carry-region events deferred to the next window")),
      _mFallbacks(sim::metrics::Registry::global().counter(
          "decode.stream.fallbacks",
          "windows the deadline degraded to the cluster decoder")),
      _mCommittedWeight(sim::metrics::Registry::global().counter(
          "decode.stream.committed_weight",
          "total weight of committed streaming corrections")),
      _mLag(sim::metrics::Registry::global().histogram(
          "decode.stream.lag_rounds",
          "rounds decoding ran behind extraction, per pushed round")),
      _mWindowEvents(sim::metrics::Registry::global().histogram(
          "decode.stream.window_events",
          "detection events per decoded window"))
{
    QUEST_ASSERT(&_mwpm.lattice() == &extractor.lattice(),
                 "stream matcher built for another lattice");
    QUEST_ASSERT(_cfg.windowRounds > 0,
                 "stream window must be nonzero");
    QUEST_ASSERT(_cfg.strideRounds > 0
                     && _cfg.strideRounds <= _cfg.windowRounds,
                 "stream stride %zu must be in (0, window %zu]",
                 _cfg.strideRounds, _cfg.windowRounds);
}

std::optional<StreamCommit>
StreamingDecoder::pushRound(const qecc::SyndromeRound &round)
{
    QUEST_TRACE_SCOPE("decode", "stream_push");
    _buffer.push_back(round);
    ++_roundsPushed;
    ++_mRounds;
    std::optional<StreamCommit> out;
    if (_buffer.size() >= _cfg.windowRounds)
        out = decodeWindow(false);
    _mLag.record(lagRounds());
    return out;
}

std::optional<StreamCommit>
StreamingDecoder::finish()
{
    QUEST_TRACE_SCOPE("decode", "stream_finish");
    std::optional<StreamCommit> out = decodeWindow(true);
    _frontier = _roundsPushed;
    return out;
}

namespace {

/** Extraction order: by round, then by check in row-major order. */
bool
extractedBefore(const DetectionEvent &a, const DetectionEvent &b)
{
    return std::tie(a.round, a.ancilla.row, a.ancilla.col)
        < std::tie(b.round, b.ancilla.row, b.ancilla.col);
}

/**
 * Per-thread scratch for decodeWindow, cleared and refilled by every
 * window: the window's commit-region and carry-region events, the
 * LUT result, the mask snapshot and the global correction, then the
 * global stage's flip maps, one type's events and one match's path.
 * One set per thread rather than per streamer: a thread decodes one
 * window at a time, and a copy per streamer would hold each
 * streamer's high-water capacity at once.
 */
struct WindowScratch
{
    DetectionEvents events;
    DetectionEvents carry;
    LocalDecodeResult local;
    MaskedChecks masked;
    Correction global;
    std::vector<std::uint8_t> xflip;
    std::vector<std::uint8_t> zflip;
    std::vector<DetectionEvent> evts;
    std::vector<std::size_t> path;
};

WindowScratch &
windowScratch()
{
    static thread_local WindowScratch s;
    return s;
}

/** Move the events of `from` at or after `round` onto `to`. */
void
moveFrom(std::vector<DetectionEvent> &from, std::size_t round,
         std::vector<DetectionEvent> &to)
{
    const auto it = std::partition_point(
        from.begin(), from.end(),
        [&](const DetectionEvent &e) { return e.round < round; });
    to.assign(it, from.end());
    from.erase(it, from.end());
}

} // namespace

void
StreamingDecoder::filterConsumed(std::vector<DetectionEvent> &events) const
{
    if (_consumed.empty())
        return;
    // A merge of two lists in extraction order; `_consumed` holds
    // both types, so entries of the other type are stepped over.
    std::size_t w = 0, c = 0;
    for (std::size_t r = 0; r < events.size(); ++r) {
        const DetectionEvent &e = events[r];
        while (c < _consumed.size()
               && (_consumed[c].type != e.type
                   || extractedBefore(_consumed[c], e)))
            ++c;
        if (c == _consumed.size() || _consumed[c] != e)
            events[w++] = e;
    }
    events.resize(w);
}

std::optional<StreamCommit>
StreamingDecoder::decodeWindow(bool flush)
{
    const std::size_t take = _buffer.size();
    if (take == 0)
        return std::nullopt;
    QUEST_ASSERT(flush || take == _cfg.windowRounds,
                 "window decode triggered with %zu of %zu rounds",
                 take, _cfg.windowRounds);
    const std::size_t commit_end =
        flush ? _firstRound + take : _firstRound + _cfg.strideRounds;

    WindowScratch &s = windowScratch();
    DetectionEvents &ev = s.events;
    DetectionEvents &carry = s.carry;
    // The previous window already extracted the first
    // `_rawCarryRounds` buffered rounds, against the same rounds
    // before them: extract only the rest, after its last one.
    ev.xEvents.assign(_rawCarry.xEvents.begin(), _rawCarry.xEvents.end());
    ev.zEvents.assign(_rawCarry.zEvents.begin(), _rawCarry.zEvents.end());
    const std::size_t kept = _rawCarryRounds;
    appendDetectionEvents(
        std::span(_buffer).subspan(kept), *_extractor,
        kept ? &_buffer[kept - 1] : _baseline ? &*_baseline : nullptr,
        _firstRound + kept, ev);
    // This window's carry region, unfiltered, is the next window's
    // first `windowRounds - strideRounds` rounds.
    moveFrom(ev.xEvents, commit_end, _rawCarry.xEvents);
    moveFrom(ev.zEvents, commit_end, _rawCarry.zEvents);
    _rawCarryRounds = flush ? 0 : take - _cfg.strideRounds;
    carry.xEvents = _rawCarry.xEvents;
    carry.zEvents = _rawCarry.zEvents;
    filterConsumed(ev.xEvents);
    filterConsumed(ev.zEvents);
    filterConsumed(carry.xEvents);
    filterConsumed(carry.zEvents);

    StreamCommit commit;
    commit.windowFirstRound = _firstRound;
    commit.commitEndRound = commit_end;
    commit.windowEvents = ev.total() + carry.total();

    // Local stage: the LUT sees the commit region only -- a carry
    // event's partner may not even be extracted yet.
    _lut.decodeLocal(ev, s.local);
    const LocalDecodeResult &local = s.local;
    const std::size_t residual_total =
        local.residual.total() + carry.total();

    // Bus accounting: an event is charged once, when the window that
    // first extracts it forwards it past the LUT (carry events skip
    // the LUT, so they are charged as soon as they are seen).
    const auto newly_seen =
        [&](const std::vector<DetectionEvent> &v) {
            return std::size_t(std::count_if(
                v.begin(), v.end(), [&](const DetectionEvent &e) {
                    return e.round >= _chargedThrough;
                }));
        };
    commit.forwardedEvents = newly_seen(local.residual.xEvents)
        + newly_seen(local.residual.zEvents)
        + newly_seen(carry.xEvents) + newly_seen(carry.zEvents);
    _chargedThrough = std::max(_chargedThrough, _firstRound + take);

    Correction &global = s.global;
    global.xFlips.clear();
    global.zFlips.clear();
    std::size_t deferred = 0;
    if (residual_total > 0 && _deadline.overruns(residual_total)) {
        // Deadline overrun: degrade to the near-linear cluster
        // decoder over the commit region; the whole carry region is
        // deferred (it reappears identically next window).
        commit.fallback = true;
        commit.stretch = _deadline.stretch(residual_total);
        global = _cluster.decode(local.residual);
        deferred = carry.total();
    } else if (residual_total > 0) {
        // Global stage, replicating MwpmDecoder::decode's flip-map
        // construction exactly so that a flush over a whole shot is
        // bit-identical to the offline pipeline. Matches whose
        // earliest endpoint is in the commit region are committed
        // now (carry-side endpoints become consumed-ahead); matches
        // wholly in the carry region are deferred. The mask cannot
        // change inside a window, so both types' matchings and
        // boundary paths read one snapshot of it.
        _mwpm.maskedChecks(s.masked);
        const MaskedChecks &masked = s.masked;
        const std::size_t n = _extractor->lattice().numQubits();
        s.xflip.assign(n, 0);
        s.zflip.assign(n, 0);
        const auto decode_type =
            [&](const std::vector<DetectionEvent> &resid,
                const std::vector<DetectionEvent> &car,
                std::vector<std::uint8_t> &bits) {
                s.evts.assign(resid.begin(), resid.end());
                s.evts.insert(s.evts.end(), car.begin(), car.end());
                if (s.evts.empty())
                    return;
                const MatchingResult mr =
                    _mwpm.matchEvents(s.evts, &masked);
                for (const Match &m : mr.matches) {
                    const DetectionEvent &ea = s.evts[m.a];
                    s.path.clear();
                    if (m.toBoundary) {
                        if (ea.round >= commit_end) {
                            ++deferred;
                            continue;
                        }
                        _mwpm.pathToBoundary(ea.ancilla, s.path, &masked);
                    } else {
                        const DetectionEvent &eb = s.evts[m.b];
                        if (std::min(ea.round, eb.round)
                            >= commit_end) {
                            deferred += 2;
                            continue;
                        }
                        _mwpm.pathBetween(ea.ancilla, eb.ancilla,
                                          s.path);
                        if (ea.round >= commit_end)
                            _consumed.push_back(ea);
                        if (eb.round >= commit_end)
                            _consumed.push_back(eb);
                    }
                    for (std::size_t q : s.path)
                        bits[q] ^= 1;
                }
            };
        // Z-check events locate X errors; X-check events locate Z
        // errors -- same order as the offline decoders.
        decode_type(local.residual.zEvents, carry.zEvents, s.xflip);
        decode_type(local.residual.xEvents, carry.xEvents, s.zflip);
        global.assignFlipMaps(s.xflip, s.zflip);
    }
    commit.deferredEvents = deferred;
    commit.correction = local.correction;
    commit.correction.merge(global);

    // Slide: the last dropped round becomes the next baseline, so
    // deferred events re-difference into existence bit for bit.
    const std::size_t drop = flush ? take : _cfg.strideRounds;
    _baseline = _buffer[drop - 1];
    _buffer.erase(_buffer.begin(),
                  _buffer.begin() + std::ptrdiff_t(drop));
    _firstRound += drop;
    _frontier = commit_end;
    // A consumed-ahead entry reappears in every window that still
    // holds its round (more than one when windowRounds exceeds twice
    // the stride); once its round slides out it is unreachable --
    // purge so the list cannot grow without bound.
    std::erase_if(_consumed, [&](const DetectionEvent &e) {
        return e.round < _firstRound;
    });
    std::sort(_consumed.begin(), _consumed.end(), extractedBefore);

    ++_windows;
    ++_mWindows;
    _mEvents += commit.windowEvents;
    _mWindowEvents.record(commit.windowEvents);
    _mEventsLocal += local.resolvedEvents;
    _mForwarded += commit.forwardedEvents;
    _mDeferred += deferred;
    _mCommittedWeight += commit.correction.weight();
    if (commit.fallback) {
        ++_fallbackCount;
        ++_mFallbacks;
    }
    return commit;
}

} // namespace quest::decode
