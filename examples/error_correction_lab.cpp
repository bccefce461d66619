/**
 * @file
 * Error-correction lab: Monte-Carlo study of the QECC substrate.
 *
 * Exercises the quantum layers of the library directly -- the
 * surface-code lattice, the syndrome-extraction schedules, the
 * Pauli-frame simulator and the two-level decoder -- to measure the
 * logical error rate of distance-3/5/7 codes as a function of the
 * physical error rate, and reports how much of the decoding the
 * per-MCE lookup table handles without bothering the global MWPM
 * decoder. This is the experiment behind the paper's premise that a
 * short, fixed QECC program plus a small local decoder suffices for
 * the common case.
 *
 * Run: ./build/examples/error_correction_lab [trials]
 */

#include <cstdio>
#include <iostream>

#include "decode/pipeline.hpp"
#include "example_args.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/table.hpp"

int
main(int argc, char **argv)
{
    using namespace quest;

    examples::checkArgCount(argc, argv, 1, "error_correction_lab [trials]");
    const auto trials = std::size_t(
        examples::numberArg(argc, argv, 1, "trials", 2000, 1, 1e7));
    sim::Rng rng(2027);

    sim::Table table("Logical error rate vs physical error rate "
                     "(Steane-style extraction, two-level decode)");
    table.header({ "p (physical)", "d=3", "d=5", "d=7",
                   "LUT coverage d=5" });

    // Sweep across the code's threshold (~1e-2): above it, more
    // distance hurts; below it, distance suppresses exponentially.
    for (double p : { 2e-2, 1e-2, 5e-3, 2e-3, 5e-4 }) {
        std::vector<std::string> row{ sim::formatCount(p) };
        std::string lut_coverage;
        for (std::size_t d : { 3u, 5u, 7u }) {
            const qecc::MemoryExperiment exp(d);
            decode::DecoderPipeline pipeline(exp.lattice());

            std::size_t failures = 0;
            for (std::size_t t = 0; t < trials; ++t) {
                auto shot = exp.sampleShot(
                    quantum::ErrorRates{.idle = p, .meas = p}, rng);
                decode::applyCorrection(
                    shot.frame,
                    pipeline.decode(decode::extractDetectionEvents(
                        shot.history, exp.extractor())));
                failures += exp.logicalFailure(shot.frame) ? 1 : 0;
            }
            char cell[32];
            std::snprintf(cell, sizeof(cell), "%.2e",
                          double(failures) / double(trials));
            row.push_back(cell);
            if (d == 5) {
                char cov[32];
                std::snprintf(cov, sizeof(cov), "%.0f%%",
                              pipeline.localCoverage() * 100.0);
                lut_coverage = cov;
            }
        }
        row.push_back(lut_coverage);
        table.row(std::move(row));
    }
    table.caption("expected: below threshold, higher distance "
                  "suppresses the logical rate; the MCE-local LUT "
                  "resolves most detection events");
    table.print(std::cout);
    return 0;
}
