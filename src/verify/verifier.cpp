#include "verifier.hpp"

#include "qecc/protocol.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "timing.hpp"

namespace quest::verify {

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
{
    _passes.push_back(makeEquivalencePass());
    _passes.push_back(makeBudgetPass());
    _passes.push_back(makeHazardPass());
    _passes.push_back(makeMaskPass());
    _passes.push_back(makeIsaPass());
    _passes.push_back(makeTimingPass());
    _passes.push_back(makeContentionPass());
}

Report
Verifier::run(const TileArtifacts &artifacts) const
{
    QUEST_TRACE_SCOPE("verify", "run");

    Report report;
    for (const auto &pass : _passes) {
        pass->run(artifacts, report);
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

namespace {

/**
 * The load-path gate: compile the live tile's artifacts from its
 * own base schedule and reject the Mce on any error.
 */
void
preflightGate(const core::Mce &mce)
{
    QUEST_TRACE_SCOPE("verify", "preflight");
    const core::MceConfig &cfg = mce.config();
    const qecc::ProtocolSpec &spec =
        qecc::protocolSpec(cfg.protocol);

    TileArtifacts a;
    a.label = mce.name();
    a.lattice = &mce.lattice();
    a.spec = &spec;
    a.technology = cfg.technology;
    a.design = cfg.microcodeDesign;
    a.memory = cfg.memoryConfig;
    a.ram = compileRam(mce.baseSchedule());
    a.fifo = compileFifo(mce.baseSchedule());
    a.cell = compileUnitCell(mce.baseSchedule());
    a.icacheCapacity = cfg.icacheCapacity;
    a.timing.sched = cfg.sched;
    a.timing.scheduling = cfg.scheduling;

    const Report report = Verifier().run(a);
    if (!report.ok()) {
        // Cold path (aborts the load): a per-call registry lookup is
        // fine and avoids the static-binding lifetime hazard.
        ++sim::metrics::Registry::global().counter(
            "verify.preflight_rejections",
            "tiles rejected by the verify-on-load gate");
        sim::fatal("%s: pre-flight verification failed\n%s",
                   mce.name().c_str(), report.toString().c_str());
    }
}

} // namespace

void
installPreflightGate()
{
    core::setPreflightVerifier(&preflightGate);
}

} // namespace quest::verify
