/**
 * @file
 * Workload replay: the compile-offload-execute flow of Figure 1/3.
 *
 * The host compiles an application -- here a rotation-heavy kernel
 * whose arbitrary rotations are synthesized into Clifford+T words
 * (paper footnote 7) -- into a binary trace file, exactly the
 * executable artifact the host would hand the cryogenic DRAM. The
 * control processor then loads and replays it against the MCE array
 * while QECC runs underneath, and the bus ledger shows the QuEST
 * effect on a "real" compiled program rather than a synthetic mix.
 *
 * Run: ./build/examples/workload_replay [rotations] [precision]
 */

#include <cstdio>

#include "core/system.hpp"
#include "example_args.hpp"
#include "isa/rotations.hpp"
#include "isa/trace.hpp"
#include "sim/types.hpp"

int
main(int argc, char **argv)
{
    using namespace quest;

    examples::checkArgCount(argc, argv, 2,
                            "workload_replay [rotations] [precision]");
    const int rotations =
        int(examples::numberArg(argc, argv, 1, "rotations", 48, 1, 65536));
    const double precision = examples::numberArg(
        argc, argv, 2, "precision", 1e-10, 1e-15, 0.5, true);
    const std::size_t mces = 4;

    // --- "Compile": synthesize rotations into Clifford+T ----------
    isa::LogicalTrace program;
    for (int r = 0; r < rotations; ++r) {
        const isa::LogicalTrace word = isa::synthesizeRotation(
            std::uint16_t(r % mces), std::uint64_t(r * 1337 + 1),
            precision);
        for (const auto &instr : word)
            program.append(instr);
    }
    std::printf("compiled %d rotations @ eps=%g into %zu "
                "Clifford+T instructions (T fraction %.2f, "
                "%zu bytes)\n",
                rotations, precision, program.size(),
                program.tFraction(), program.bytes());

    // --- "Offload": write/read the executable ---------------------
    const std::string path = "/tmp/quest_workload.qtrace";
    program.saveBinary(path);
    const isa::LogicalTrace loaded = isa::LogicalTrace::loadBinary(path);
    std::printf("executable round-tripped through %s\n", path.c_str());

    // --- "Execute": replay on the control processor ---------------
    core::MasterConfig cfg;
    cfg.numMces = mces;
    cfg.mce = core::tileConfigForLogicalQubits(3);
    cfg.mce.errorRates = quantum::ErrorRates{.idle = 1e-4, .meas = 1e-4};
    core::QuestSystem system(cfg);
    system.placeLogicalQubits();

    // Enough rounds to drain the program at ILP 2.
    const std::size_t rounds = loaded.size() / 2 + 64;
    system.runMixedWorkload(loaded,
                            isa::generateDistillationRound(0),
                            rounds);

    const core::SystemReport report = system.report();
    std::printf("\n%s\n", report.toString().c_str());
    std::printf("T gates executed: %zu (each consuming a distilled "
                "magic state)\n",
                loaded.count(isa::LogicalOpcode::T));
    std::printf("interconnect: %.0f packets, mean latency %s, root "
                "link %.4f%% utilized\n",
                system.master().network().packetsCarried(),
                sim::formatSeconds(
                    sim::ticksToSeconds(sim::Tick(
                        system.master().network()
                            .meanLatencyTicks())))
                    .c_str(),
                system.master().network().rootLinkUtilization(
                    rounds * sim::nanoseconds(160))
                    * 100.0);

    std::remove(path.c_str());
    return 0;
}
