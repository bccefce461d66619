/**
 * @file
 * Two-level error-decoder pipeline (Section 4.2).
 *
 * Each MCE runs the local LUT decoder; residual (complex) patterns
 * are forwarded over the global bus to the master controller's MWPM
 * decoder. The pipeline accounts for the syndrome bytes that cross
 * the global bus so the system model can charge them against the
 * bandwidth budget.
 */

#ifndef QUEST_DECODE_PIPELINE_HPP
#define QUEST_DECODE_PIPELINE_HPP

#include <algorithm>

#include "lut_decoder.hpp"
#include "mwpm_decoder.hpp"
#include "sim/fault_injector.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace quest::decode {

/**
 * Real-time deadline model for the global decode (Section 3.4: the
 * correction must land before the errors compound). The greedy MWPM
 * matcher is O(E^2) in the residual event count, so its decode time
 * is modelled as base + perEventSq * E^2 against the decode-window
 * budget; the union-find cluster decoder is the nearly-linear
 * fallback the master degrades to when MWPM would overrun.
 */
struct DeadlineConfig
{
    /** Decode budget in ticks (the decode window); 0 disables. */
    sim::Tick windowTicks = 0;
    /** Source of injected overruns (FaultSite::DecoderOverrun);
     *  null injects none. Must outlive the deadline. */
    sim::FaultInjector *faults = nullptr;
};

/** The one overrun rule, shared by offline and streaming decode. */
class DecodeDeadline
{
  public:
    /** Fixed cost of one MWPM decode. */
    static constexpr sim::Tick mwpmBaseTicks = sim::nanoseconds(50);
    /** Quadratic MWPM cost per squared residual event. */
    static constexpr sim::Tick mwpmTicksPerEventSq =
        sim::nanoseconds(20);

    DecodeDeadline() = default;
    explicit DecodeDeadline(const DeadlineConfig &cfg) : _cfg(cfg) {}

    /** Modelled MWPM decode time for a residual batch. */
    static sim::Tick
    mwpmTicks(std::size_t events)
    {
        return mwpmBaseTicks
            + mwpmTicksPerEventSq * sim::Tick(events)
            * sim::Tick(events);
    }

    /**
     * Does an MWPM decode of this batch miss the window? Either the
     * injector's DecoderOverrun trial fires or the modelled decode
     * time exceeds the budget. With a budget the trial is drawn on
     * every call, before the analytic check; without one (windowTicks
     * == 0) nothing overruns and the injector is never touched.
     */
    bool
    overruns(std::size_t events) const
    {
        if (_cfg.windowTicks == 0)
            return false;
        const bool injected = _cfg.faults != nullptr
            && _cfg.faults->fire(sim::FaultSite::DecoderOverrun);
        return injected || mwpmTicks(events) > _cfg.windowTicks;
    }

    /**
     * Lateness as a round-stretch factor (>= 1): the same measure
     * host::DeliveryPath uses to inflate the effective error rate
     * of a tile whose correction arrived late.
     */
    double
    stretch(std::size_t events) const
    {
        if (_cfg.windowTicks == 0)
            return 1.0;
        return std::max(1.0, double(mwpmTicks(events))
                                 / double(_cfg.windowTicks));
    }

  private:
    DeadlineConfig _cfg;
};

/** Combined local + global decode with bus accounting. */
class DecoderPipeline
{
  public:
    explicit DecoderPipeline(const qecc::Lattice &lattice)
        : _local(lattice), _global(lattice),
          _eventsLocal("decode.pipeline.events_local",
                       "events resolved by the MCE-local LUT decoder"),
          _busBytes("decode.pipeline.syndrome_bus_bytes",
                    "syndrome bytes crossing the global bus"),
          _mEventsGlobal(sim::metrics::Registry::global().counter(
              "decode.pipeline.events_global",
              "residual events escalated to the global decoder"))
    {}

    /**
     * Decode a batch of detection events: LUT first, MWPM on the
     * residual. @return the combined correction.
     */
    Correction
    decode(const DetectionEvents &events)
    {
        QUEST_TRACE_SCOPE("decode", "pipeline_decode");
        _eventsTotal += events.total();

        LocalDecodeResult local = _local.decodeLocal(events);
        _eventsLocal += local.resolvedEvents;
        _mEventsGlobal += local.residual.total();
        _busBytes += local.residual.total() * detectionEventBytes;

        Correction corr = local.correction;
        corr.merge(_global.decode(local.residual));
        return corr;
    }

    /** Fraction of events the local LUT resolved. */
    double
    localCoverage() const
    {
        return _eventsTotal > 0
            ? double(_eventsLocal.value()) / double(_eventsTotal)
            : 0.0;
    }

    double busBytes() const { return double(_busBytes.value()); }

  private:
    LutDecoder _local;
    MwpmDecoder _global;

    std::uint64_t _eventsTotal = 0; ///< detection events observed

    // Registry counters are bound at construction, never in the hot
    // path: a function-local `static auto &` binds once per process
    // and silently keeps pointing at whatever entry existed at first
    // call -- a lifetime hazard the registry-lifetime regression
    // test guards against.
    sim::metrics::Tally _eventsLocal;
    sim::metrics::Tally _busBytes;
    sim::metrics::Counter &_mEventsGlobal;
};

} // namespace quest::decode

#endif // QUEST_DECODE_PIPELINE_HPP
