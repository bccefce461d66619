#include "streaming.hpp"

#include <algorithm>

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

void
StreamingDecoder::filterConsumed(std::vector<DetectionEvent> &events)
{
    if (_consumed.empty() || events.empty())
        return;
    std::size_t w = 0;
    for (std::size_t r = 0; r < events.size(); ++r) {
        const auto it = std::find(_consumed.begin(), _consumed.end(),
                                  events[r]);
        if (it != _consumed.end())
            _consumed.erase(it); // each consumed-ahead entry cancels
                                 // exactly one reappearance
        else
            events[w++] = events[r];
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

    DetectionEvents ev = extractDetectionEventsWindow(
        _buffer, *_extractor, _baseline ? &*_baseline : nullptr,
        _firstRound);
    filterConsumed(ev.xEvents);
    filterConsumed(ev.zEvents);

    StreamCommit commit;
    commit.windowFirstRound = _firstRound;
    commit.commitEndRound = commit_end;
    commit.windowEvents = ev.total();

    // Extraction order is round-major, so each type list splits into
    // a commit-region prefix and a carry-region suffix.
    const auto split = [&](std::vector<DetectionEvent> &v,
                           std::vector<DetectionEvent> &carry_out) {
        const auto it =
            std::find_if(v.begin(), v.end(),
                         [&](const DetectionEvent &e) {
                             return e.round >= commit_end;
                         });
        carry_out.assign(it, v.end());
        v.erase(it, v.end());
    };
    DetectionEvents carry;
    split(ev.xEvents, carry.xEvents);
    split(ev.zEvents, carry.zEvents);

    // Local stage: the LUT sees the commit region only -- a carry
    // event's partner may not even be extracted yet.
    const LocalDecodeResult local = _lut.decodeLocal(ev);
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

    Correction global;
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
        const MaskedChecks masked = _mwpm.maskedChecks();
        const std::size_t n = _extractor->lattice().numQubits();
        _xflip.assign(n, 0);
        _zflip.assign(n, 0);
        const auto decode_type =
            [&](const std::vector<DetectionEvent> &resid,
                const std::vector<DetectionEvent> &car,
                std::vector<std::uint8_t> &bits) {
                _evts.assign(resid.begin(), resid.end());
                _evts.insert(_evts.end(), car.begin(), car.end());
                if (_evts.empty())
                    return;
                const MatchingResult mr =
                    _mwpm.matchEvents(_evts, &masked);
                for (const Match &m : mr.matches) {
                    const DetectionEvent &ea = _evts[m.a];
                    _path.clear();
                    if (m.toBoundary) {
                        if (ea.round >= commit_end) {
                            ++deferred;
                            continue;
                        }
                        _mwpm.pathToBoundary(ea.ancilla, _path, &masked);
                    } else {
                        const DetectionEvent &eb = _evts[m.b];
                        if (std::min(ea.round, eb.round)
                            >= commit_end) {
                            deferred += 2;
                            continue;
                        }
                        _mwpm.pathBetween(ea.ancilla, eb.ancilla,
                                          _path);
                        if (ea.round >= commit_end)
                            _consumed.push_back(ea);
                        if (eb.round >= commit_end)
                            _consumed.push_back(eb);
                    }
                    for (std::size_t q : _path)
                        bits[q] ^= 1;
                }
            };
        // Z-check events locate X errors; X-check events locate Z
        // errors -- same order as the offline decoders.
        decode_type(local.residual.zEvents, carry.zEvents, _xflip);
        decode_type(local.residual.xEvents, carry.xEvents, _zflip);
        global = Correction::fromFlipMaps(_xflip, _zflip);
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
    // Consumed-ahead entries always reappear in the very next
    // extraction; anything older is unreachable -- purge so the
    // list cannot grow without bound.
    std::erase_if(_consumed, [&](const DetectionEvent &e) {
        return e.round < _firstRound;
    });

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
