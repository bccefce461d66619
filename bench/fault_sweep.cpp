/**
 * @file
 * Classical fault sweep: how much classical control-plane
 * unreliability the QuEST architecture absorbs. Sweeps a uniform
 * per-site fault rate across the whole resilience stack (CRC/ACK
 * network retries, microcode parity scrubbing, decoder deadline
 * fallback, MCE watchdog) and reports residual error weight,
 * recovery-event counts and the bandwidth overhead the recovery
 * machinery adds on top of the fault-free bus traffic.
 */

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/system.hpp"
#include "sim/fault_injector.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace quest;

core::MasterConfig
sweepConfig(double fault_rate)
{
    core::MasterConfig cfg;
    cfg.numMces = 4;
    cfg.mce = core::tileConfigForLogicalQubits(3);
    cfg.mce.errorRates = quantum::ErrorRates{.idle = 1e-3, .meas = 1e-3};
    cfg.mce.seed = 9;
    cfg.faults = sim::FaultConfig::uniform(fault_rate, /*seed=*/0xFA17);
    return cfg;
}

struct SweepPoint
{
    double faultRate = 0.0;
    std::size_t residualWeight = 0;
    double retransmits = 0.0;
    double scrubs = 0.0;
    double fallbacks = 0.0;
    double quarantines = 0.0;
    double busBytes = 0.0;
};

SweepPoint
runPoint(double fault_rate)
{
    core::MasterController master(sweepConfig(fault_rate));
    master.runRounds(512);

    SweepPoint pt;
    pt.faultRate = fault_rate;
    for (std::size_t i = 0; i < master.numMces(); ++i)
        pt.residualWeight += master.mce(i).residualErrorWeight();
    pt.retransmits = master.network().retransmits();
    pt.scrubs = master.scrubCount();
    pt.fallbacks = master.decoderOverruns();
    pt.quarantines = master.quarantineCount();
    pt.busBytes = master.totalBusBytes()
        + master.network().protocolOverheadBytes();
    return pt;
}

void
printFigure()
{
    sim::Table table("Classical fault sweep: logical residual and "
                     "recovery overhead vs fault rate (4 MCEs, "
                     "d=3, 512 rounds)");
    table.header({ "fault rate", "residual wt", "retransmits",
                   "scrubs", "fallbacks", "quarantines",
                   "bus overhead" });

    // Each sweep point is an independent full-system simulation
    // with its own fixed seeds: run them concurrently, one point
    // per parallel index (chunk = 1 so points never share a chunk).
    const std::vector<double> rates{ 0.0, 1e-4, 1e-3, 1e-2 };
    const auto points = sim::parallelMap<SweepPoint>(
        rates.size(),
        [&](std::uint64_t i) { return runPoint(rates[i]); },
        /*chunk=*/1);

    const double clean_bytes = points[0].busBytes;
    for (const SweepPoint &pt : points) {
        char overhead[32];
        std::snprintf(overhead, sizeof(overhead), "%.3fx",
                      pt.busBytes / clean_bytes);
        table.row({
            sim::formatCount(pt.faultRate),
            std::to_string(pt.residualWeight),
            sim::formatCount(pt.retransmits),
            sim::formatCount(pt.scrubs),
            sim::formatCount(pt.fallbacks),
            sim::formatCount(pt.quarantines),
            overhead,
        });
    }
    table.caption("recovery machinery (ARQ retries, scrub uploads, "
                  "heartbeats) keeps the residual bounded while the "
                  "bus overhead stays a small multiple of the "
                  "fault-free traffic until rates reach ~1e-2");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
