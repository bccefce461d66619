/**
 * @file
 * Streaming sliding-window decoder.
 *
 * The offline DecoderPipeline needs the whole syndrome history of a
 * shot before it can decode -- an end-of-shot barrier no production
 * MCE can afford: corrections must land while the errors are still
 * correctable. Following Das et al., *A Scalable Decoder
 * Micro-architecture for Fault-Tolerant Quantum Computing*
 * (PAPERS.md), this module decodes an unbounded round stream in
 * overlapping space-time windows:
 *
 *  - rounds are buffered as they are extracted; every `windowRounds`
 *    buffered rounds form one decode window, differenced against the
 *    carried baseline round via extractDetectionEventsWindow;
 *  - the first `strideRounds` rounds of a window are the *commit
 *    region*: matches whose earliest endpoint lies there are
 *    committed now. A committed match may reach into the carry
 *    region; its carry-side endpoints are recorded as consumed-ahead
 *    and filtered from the next window's extraction;
 *  - matches lying wholly in the carry region are deferred -- the
 *    window then slides by `strideRounds`, the last dropped round
 *    becomes the next baseline, and the deferred events reappear
 *    identically in the next extraction (re-differencing against
 *    the carried baseline reproduces them bit for bit);
 *  - a window the DecodeDeadline judges overrun (its residual
 *    event count misses the budget, or an injected DecoderOverrun
 *    fault fires) degrades to the union-find ClusterDecoder over
 *    the commit region only, reporting the lateness stretch for
 *    the noise model.
 *
 * Each window runs the same LUT -> MWPM two-level pipeline as the
 * offline path, so a single window spanning the entire shot (or a
 * finish() on an unsliced buffer) reproduces DecoderPipeline's
 * correction bit for bit -- the correctness anchor the equivalence
 * suite in tests/test_streaming.cpp pins down.
 *
 * Lag accounting: after every pushed round the decoder records how
 * many extracted rounds are not yet committed in the
 * decode.stream.lag_rounds histogram, whose p50/p99 quantify how far
 * decoding runs behind extraction.
 */

#ifndef QUEST_DECODE_STREAMING_HPP
#define QUEST_DECODE_STREAMING_HPP

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cluster_decoder.hpp"
#include "lut_decoder.hpp"
#include "mwpm_decoder.hpp"
#include "pipeline.hpp"
#include "qecc/extractor.hpp"
#include "sim/metrics.hpp"

namespace quest::decode {

/** Sliding-window configuration. */
struct StreamConfig
{
    /** Rounds per decode window. */
    std::size_t windowRounds = 8;
    /** Commit region / slide distance; must be in (0, windowRounds].
     *  windowRounds == strideRounds gives non-overlapping windows
     *  (the offline master's cadence). */
    std::size_t strideRounds = 4;
    /** Real-time decode budget per window; windowTicks == 0
     *  disables the ClusterDecoder fallback (and its injected
     *  overruns). */
    DeadlineConfig deadline;
};

/** What one window decode committed. */
struct StreamCommit
{
    /** Committed corrections (canonical: sorted, duplicate-free). */
    Correction correction;
    /** First round of the decoded window. */
    std::size_t windowFirstRound = 0;
    /** Commit frontier after this window: rounds below this are
     *  fully decoded. */
    std::size_t commitEndRound = 0;
    /** Detection events in the window (after consumed-ahead
     *  filtering). */
    std::size_t windowEvents = 0;
    /** Newly-seen post-LUT events forwarded to the global stage --
     *  what the master charges against the syndrome bus. */
    std::size_t forwardedEvents = 0;
    /** Carry-region events deferred to the next window. */
    std::size_t deferredEvents = 0;
    /** True when the deadline degraded this window to the
     *  ClusterDecoder. */
    bool fallback = false;
    /** Lateness factor (>= 1) for the noise-stretch model; only
     *  meaningful when `fallback`. */
    double stretch = 1.0;
};

/**
 * Decode a continuous syndrome stream in overlapping windows.
 *
 * Not thread-safe: one instance per stream (per tile). The extractor
 * must outlive the decoder. Neither copyable nor movable: the
 * cluster fallback borrows the streamer's own matcher.
 */
class StreamingDecoder
{
  public:
    explicit StreamingDecoder(const qecc::SyndromeExtractor &extractor,
                              const StreamConfig &cfg = {});
    StreamingDecoder(const StreamingDecoder &) = delete;
    StreamingDecoder &operator=(const StreamingDecoder &) = delete;

    const StreamConfig &config() const { return _cfg; }

    /** Mask predicate for the window matcher (the cluster fallback
     *  reads it through the same matcher). */
    void
    setMaskPredicate(MwpmDecoder::MaskPredicate masked)
    {
        _mwpm.setMaskPredicate(std::move(masked));
    }

    /**
     * Feed one extracted round. When the buffer reaches a full
     * window this decodes it, commits the commit region and slides;
     * otherwise returns nullopt.
     */
    std::optional<StreamCommit>
    pushRound(const qecc::SyndromeRound &round);

    /**
     * End of stream: decode everything still buffered as one final
     * window and commit all of it. The baseline/round numbering stay
     * consistent, so the same instance can keep streaming afterwards
     * (e.g. across logical instructions within one shot).
     */
    std::optional<StreamCommit> finish();

    /** Rounds fed in so far. */
    std::size_t roundsPushed() const { return _roundsPushed; }

    /** Rounds fully decoded (the commit frontier). */
    std::size_t committedRounds() const { return _frontier; }

    /** How far decoding is behind extraction right now. */
    std::size_t lagRounds() const { return _roundsPushed - _frontier; }

    /** Windows decoded so far. */
    std::size_t windowsDecoded() const { return _windows; }

    /** Windows degraded to the ClusterDecoder. */
    std::size_t fallbacks() const { return _fallbackCount; }

  private:
    const qecc::SyndromeExtractor *_extractor;
    StreamConfig _cfg;
    DecodeDeadline _deadline;

    LutDecoder _lut;
    MwpmDecoder _mwpm;
    /** Deadline fallback; borrows _mwpm. */
    ClusterDecoder _cluster;

    /** Buffered rounds awaiting a full window; front() is round
     *  `_firstRound` of the stream. */
    std::vector<qecc::SyndromeRound> _buffer;
    /** Last round of the previous window (differencing baseline);
     *  nullopt before the first slide (difference against zero). */
    std::optional<qecc::SyndromeRound> _baseline;
    /** Stream round number of _buffer.front(). */
    std::size_t _firstRound = 0;
    std::size_t _roundsPushed = 0;
    /** Commit frontier: rounds below this are fully decoded. */
    std::size_t _frontier = 0;
    /** Events up to (exclusive) this round were already forwarded /
     *  charged in an earlier window. */
    std::size_t _chargedThrough = 0;
    /** Carry-region events already corrected by a committed match;
     *  filtered out of the next window's extraction. */
    std::vector<DetectionEvent> _consumed;

    std::size_t _windows = 0;
    std::size_t _fallbackCount = 0;

    // decode.stream.* registry metrics, bound at construction.
    sim::metrics::Counter &_mWindows;
    sim::metrics::Counter &_mRounds;
    sim::metrics::Counter &_mEvents;
    sim::metrics::Counter &_mEventsLocal;
    sim::metrics::Counter &_mForwarded;
    sim::metrics::Counter &_mDeferred;
    sim::metrics::Counter &_mFallbacks;
    sim::metrics::Counter &_mCommittedWeight;
    sim::metrics::Histogram &_mLag;
    sim::metrics::Histogram &_mWindowEvents;

    /**
     * Decode the buffered window. `flush` decodes the whole buffer
     * with an unbounded commit region; otherwise exactly
     * `windowRounds` rounds are buffered and the commit region is
     * the first `strideRounds` of them.
     */
    std::optional<StreamCommit> decodeWindow(bool flush);

    /** Drop consumed-ahead events from a fresh extraction. */
    void filterConsumed(std::vector<DetectionEvent> &events);
};

} // namespace quest::decode

#endif // QUEST_DECODE_STREAMING_HPP
