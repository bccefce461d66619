/**
 * @file
 * Determinism study (paper Section 3.4): why instruction caches
 * cannot be used for QECC delivery in the software-managed
 * baseline. Sweeps the cache miss rate of the host->77K->4K
 * delivery path and reports deadline violations, the stretched
 * round time, and the resulting logical-error-rate inflation --
 * then contrasts with QuEST's microcode replay, which is
 * deterministic by construction (miss rate identically zero).
 */

#include "bench_util.hpp"
#include "host/delivery.hpp"
#include "qecc/distance.hpp"

namespace {

using namespace quest;
using host::CacheConfig;
using host::DeliveryJob;
using host::DeliveryPath;
using host::DeliveryReport;

DeliveryJob
makeJob()
{
    DeliveryJob job;
    // One MCE-sized tile: 2844 qubits x 9 uops over a 160 ns round
    // (ProjectedD / Steane), channel provisioned with 20% slack.
    job.instructionsPerRound = 2844 * 9;
    job.roundDeadline = sim::nanoseconds(160);
    job.channelInstrPerTick = double(job.instructionsPerRound)
        / (0.8 * double(job.roundDeadline));
    return job;
}

void
printFigure()
{
    sim::Table table("Determinism study: cached QECC delivery vs "
                     "deadline (2844-qubit tile, 160 ns round, "
                     "d=9, p=1e-4)");
    table.header({ "cache miss rate", "late rounds", "mean stretch",
                   "worst stretch", "logical error inflation" });

    sim::Rng rng(11);
    const DeliveryJob job = makeJob();
    for (double miss : { 0.0, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2 }) {
        CacheConfig cache;
        cache.missRate = miss;
        cache.missPenalty = sim::nanoseconds(100);
        const DeliveryPath path(cache, job);
        const DeliveryReport r = path.deliverRounds(20000, rng);

        char late[16], mean[16], worst[16], infl[24];
        std::snprintf(late, sizeof(late), "%.2f%%",
                      r.lateFraction() * 100.0);
        std::snprintf(mean, sizeof(mean), "%.3f", r.meanStretch);
        std::snprintf(worst, sizeof(worst), "%.2f", r.worstStretch);
        std::snprintf(infl, sizeof(infl), "%.1fx",
                      host::logicalErrorInflation(1e-4, 9,
                                                  r.meanStretch));
        table.row({ sim::formatCount(miss), late, mean, worst,
                    infl });
    }
    table.caption("paper 3.4: 'even small delay (~100ns) in the "
                  "execution of QECC can result in uncorrectable "
                  "errors' -- QuEST's microcode replay is the "
                  "miss-rate-0 row by construction");
    quest::bench::emit(table);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
