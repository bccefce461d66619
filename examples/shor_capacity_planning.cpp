/**
 * @file
 * Capacity planning for a cryptographically-relevant machine.
 *
 * The workload that motivates the paper's introduction: factoring
 * RSA moduli with Shor's algorithm. For each key size this example
 * runs the full QuRE-style estimation pipeline and then *provisions
 * the control processor*: how many MCEs (at the Table-2 optimal
 * microcode configuration) does the machine need, what is the JJ
 * and power budget of the microcode memories, and what instruction
 * bandwidth remains on the global bus once QECC is hardware-managed
 * and distillation streams are cached.
 *
 * Run: ./build/examples/shor_capacity_planning [bits...]
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/microcode.hpp"
#include "example_args.hpp"
#include "sim/table.hpp"
#include "sim/types.hpp"
#include "workloads/estimator.hpp"

int
main(int argc, char **argv)
{
    using namespace quest;

    std::vector<std::size_t> sizes = { 128, 256, 512, 1024, 2048 };
    if (argc > 1) {
        sizes.clear();
        for (int i = 1; i < argc; ++i)
            sizes.push_back(std::size_t(
                examples::numberArg(argc, argv, i, "bits", 0, 16, 65536)));
    }

    workloads::EstimatorConfig cfg;
    cfg.technology = tech::Technology::ProjectedD;
    cfg.protocol = qecc::Protocol::Steane;
    cfg.physicalErrorRate = 1e-4;
    const workloads::ResourceEstimator estimator(cfg);

    // Control-processor provisioning: qubits one MCE can service at
    // the optimal 4Kb unit-cell microcode configuration.
    const core::MicrocodeModel ucode(qecc::protocolSpec(cfg.protocol),
                                     cfg.technology);
    const tech::MemoryConfig mem = ucode.optimalConfig(4096);
    const std::size_t qubits_per_mce = ucode.servicedQubits(
        core::MicrocodeDesign::UnitCell, mem);
    const tech::JJMemoryModel jj;

    std::printf("MCE design point: %s -> %zu qubits/MCE, %llu JJs, "
                "%.1f uW each\n\n",
                mem.toString().c_str(), qubits_per_mce,
                static_cast<unsigned long long>(jj.jjCount(mem)),
                jj.powerUw(mem));

    sim::Table table("Shor capacity plan (p=1e-4, ProjectedD, "
                     "Steane)");
    table.header({ "bits", "distance", "phys qubits", "T-factories",
                   "exec time", "MCEs", "ucode power", "baseline BW",
                   "QuEST bus BW" });

    for (std::size_t bits : sizes) {
        const auto r = estimator.estimate(workloads::shor(bits));
        const double mces =
            std::ceil(r.physicalQubits / double(qubits_per_mce));
        char power[32];
        std::snprintf(power, sizeof(power), "%.1f mW",
                      mces * jj.powerUw(mem) / 1000.0);
        table.row({
            std::to_string(bits),
            std::to_string(r.codeDistance),
            sim::formatCount(r.physicalQubits),
            std::to_string(r.tPlan.factories),
            sim::formatSeconds(r.execTimeSeconds),
            sim::formatCount(mces),
            power,
            sim::formatRate(r.baselineBandwidth),
            sim::formatRate(r.cachedBandwidth),
        });
    }
    table.caption("QuEST bus BW includes application instructions, "
                  "sync tokens and icache fills; QECC and "
                  "distillation bodies stay inside the MCEs");
    table.print(std::cout);
    return 0;
}
