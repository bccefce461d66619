#include "verifier.hpp"

#include "passes.hpp"
#include "qecc/protocol.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace quest::verify {

namespace {

/** The standard passes in run order, under their report names. */
struct NamedPass
{
    const char *name;
    void (*run)(const TileArtifacts &, Report &);
};

constexpr NamedPass standardPasses[] = {
    {"equivalence", checkEquivalence},
    {"budget", checkBudget},
    {"hazard", checkHazards},
    {"mask", checkMask},
    {"isa", checkIsa},
    {"timing", checkTiming},
    {"contention", checkContention},
};

} // namespace

Verifier::Verifier()
    : _mRuns(sim::metrics::Registry::global().counter(
          "verify.runs", "static verification runs executed")),
      _mPasses(sim::metrics::Registry::global().counter(
          "verify.passes", "verification passes executed")),
      _mDiagnostics(sim::metrics::Registry::global().counter(
          "verify.diagnostics", "verification findings emitted")),
      _mErrors(sim::metrics::Registry::global().counter(
          "verify.errors", "error-severity verification findings")),
      _mFailedRuns(sim::metrics::Registry::global().counter(
          "verify.failed_runs",
          "verification runs with at least one error"))
{}

Report
Verifier::run(const TileArtifacts &artifacts) const
{
    QUEST_TRACE_SCOPE("verify", "run");

    Report report;
    for (const NamedPass &pass : standardPasses) {
        pass.run(artifacts, report);
        report.notePass(pass.name);
        ++_mPasses;
    }
    ++_mRuns;
    _mDiagnostics += report.diagnostics().size();
    _mErrors += report.errorCount();
    if (!report.ok())
        ++_mFailedRuns;
    return report;
}

TileBundle
buildTileBundle(const core::MceConfig &cfg, std::string label)
{
    TileBundle bundle;
    bundle.lattice = std::make_unique<qecc::Lattice>(
        cfg.latticeRows ? cfg.latticeRows : 2 * cfg.distance - 1,
        cfg.latticeCols ? cfg.latticeCols : 2 * cfg.distance - 1);
    const qecc::ProtocolSpec &spec = qecc::protocolSpec(cfg.protocol);
    bundle.schedule = std::make_unique<qecc::RoundSchedule>(
        qecc::buildRoundSchedule(*bundle.lattice, spec));

    TileArtifacts &a = bundle.artifacts;
    a.label = std::move(label);
    a.lattice = bundle.lattice.get();
    a.spec = &spec;
    a.technology = cfg.technology;
    a.design = cfg.microcodeDesign;
    a.memory = cfg.memoryConfig;
    a.ram = compileRam(*bundle.schedule);
    a.fifo = compileFifo(*bundle.schedule);
    a.cell = compileUnitCell(*bundle.schedule);
    a.icacheCapacity = cfg.icacheCapacity;
    a.timing.sched = cfg.sched;
    a.timing.scheduling = cfg.scheduling;
    return bundle;
}

Report
verifyConfig(const core::MceConfig &cfg, std::string label)
{
    const TileBundle bundle = buildTileBundle(cfg, std::move(label));
    return Verifier().run(bundle.artifacts);
}

} // namespace quest::verify
