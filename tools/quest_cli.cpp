/**
 * @file
 * quest — command-line front end to the QuEST library.
 *
 * Subcommands:
 *   estimate   QuRE-style resource & bandwidth estimation for a
 *              workload (the Figure 2/6/13/14 pipeline).
 *   microcode  microcode design-space report for every syndrome
 *              protocol (the Table-2 search).
 *   trace-gen  synthesize an application trace to a binary file.
 *   replay     run a trace file through the cycle-level system and
 *              print the bus ledger.
 *   simulate   surface-code memory experiment (logical error rate).
 *   verify     static verification of control-plane artifacts
 *              (microcode equivalence, budgets, hazards, ISA) with
 *              machine-readable diagnostics.
 *
 * Run `quest <subcommand> --help` for the flags of each.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "decode/pipeline.hpp"
#include "decode/streaming.hpp"
#include "isa/trace.hpp"
#include "qecc/distance.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/table.hpp"
#include "sim/trace.hpp"
#include "verify/program.hpp"
#include "verify/timing.hpp"
#include "verify/verifier.hpp"
#include "workloads/estimator.hpp"

namespace {

using namespace quest;

/**
 * Tiny --flag=value / --flag value option parser. Every accessor
 * records the flag it asked about, and done() rejects the rest, so
 * a misspelt flag stops the run instead of leaving a default.
 */
class Options
{
  public:
    Options(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0) {
                std::fprintf(stderr, "unexpected argument '%s'\n",
                             arg.c_str());
                std::exit(2);
            }
            arg = arg.substr(2);
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                _values[arg.substr(0, eq)] = arg.substr(eq + 1);
            } else if (i + 1 < argc
                       && std::strncmp(argv[i + 1], "--", 2) != 0) {
                _values[arg] = argv[++i];
            } else {
                // Move-assign a temporary: assigning the literal trips
                // GCC 12's -Wrestrict false positive at -O3.
                _values[arg] = std::string("1");
            }
        }
    }

    bool has(const std::string &key) const
    {
        _asked.insert(key);
        return _values.contains(key);
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        const auto it = find(key);
        return it == _values.end() ? fallback : it->second;
    }

    /** A finite number; anything else is a fatal usage error. */
    double
    getDouble(const std::string &key, double fallback) const
    {
        const auto it = find(key);
        if (it == _values.end())
            return fallback;
        const char *text = it->second.c_str();
        char *end = nullptr;
        const double value = std::strtod(text, &end);
        if (end == text || *end != '\0' || !std::isfinite(value))
            sim::fatal("--%s expects a number, got '%s'", key.c_str(),
                       text);
        return value;
    }

    /** A probability in [0, 1]. */
    double
    getRate(const std::string &key, double fallback) const
    {
        const double value = getDouble(key, fallback);
        if (value < 0.0 || value > 1.0)
            sim::fatal("--%s must be in [0, 1], got %g", key.c_str(),
                       value);
        return value;
    }

    /** A non-negative integer: a count, a size or a seed. */
    std::uint64_t
    getCount(const std::string &key, std::uint64_t fallback) const
    {
        const auto it = find(key);
        if (it == _values.end())
            return fallback;
        const std::string &text = it->second;
        const char *last = text.data() + text.size();
        std::uint64_t value = 0;
        const auto [end, ec] =
            std::from_chars(text.data(), last, value);
        if (ec != std::errc() || end != last)
            sim::fatal("--%s expects a non-negative integer, got '%s'",
                       key.c_str(), text.c_str());
        return value;
    }

    /** A getCount() value of at least `min`. */
    std::uint64_t
    getCountAtLeast(const std::string &key, std::uint64_t fallback,
                    std::uint64_t min) const
    {
        const std::uint64_t value = getCount(key, fallback);
        if (value < min)
            sim::fatal("--%s must be at least %llu, got %llu",
                       key.c_str(), static_cast<unsigned long long>(min),
                       static_cast<unsigned long long>(value));
        return value;
    }

    /** --distance: an odd code distance of at least 3. */
    std::size_t
    getDistance(std::size_t fallback) const
    {
        const std::uint64_t d = getCount("distance", fallback);
        if (d < 3 || d % 2 == 0)
            sim::fatal("--distance must be odd and at least 3, got %llu",
                       static_cast<unsigned long long>(d));
        return std::size_t(d);
    }

    /**
     * Fail on a flag no accessor asked about. A subcommand calls
     * this once it has read all its flags, before any work runs;
     * main() reads the observability flags for every subcommand.
     */
    void
    done() const
    {
        for (const auto &[key, value] : _values)
            if (!_asked.contains(key) && key != "trace-out"
                && key != "metrics-out")
                sim::fatal("--%s is not a known flag", key.c_str());
    }

  private:
    std::map<std::string, std::string> _values;
    mutable std::set<std::string> _asked;

    std::map<std::string, std::string>::const_iterator
    find(const std::string &key) const
    {
        _asked.insert(key);
        return _values.find(key);
    }
};

tech::Technology
parseTechnology(const std::string &name)
{
    for (tech::Technology t : tech::allTechnologies)
        if (tech::technologyName(t) == name)
            return t;
    sim::fatal("unknown technology '%s' (ExperimentalS, ProjectedF, "
               "ProjectedD)", name.c_str());
}

qecc::Protocol
parseProtocol(const std::string &name)
{
    for (qecc::Protocol p : qecc::allProtocols)
        if (qecc::protocolName(p) == name)
            return p;
    sim::fatal("unknown protocol '%s' (Steane, Shor, SC-17, SC-13)",
               name.c_str());
}

core::MicrocodeDesign
parseDesign(const std::string &name)
{
    for (core::MicrocodeDesign d : core::allMicrocodeDesigns)
        if (core::microcodeDesignName(d) == name)
            return d;
    sim::fatal("unknown design '%s' (RAM, FIFO, Unit-cell)",
               name.c_str());
}

workloads::Workload
parseWorkload(const Options &opts)
{
    const std::string name = opts.get("workload", "SHOR-512");
    if (opts.has("shor"))
        return workloads::shor(
            std::size_t(opts.getCountAtLeast("shor", 512, 16)));
    for (const auto &w : workloads::workloadSuite())
        if (w.name == name)
            return w;
    sim::fatal("unknown workload '%s' (BWT, BF, GSE, FeMoCo, QLS, "
               "SHOR-512, TFP; or --shor BITS)", name.c_str());
}

int
cmdEstimate(const Options &opts)
{
    workloads::EstimatorConfig cfg;
    cfg.physicalErrorRate = opts.getRate("error-rate", 1e-4);
    // Code distance selection and distillation need a rate strictly
    // between 0 and the surface-code threshold.
    if (cfg.physicalErrorRate <= 0.0
        || cfg.physicalErrorRate >= qecc::surfaceCodeThreshold)
        sim::fatal("--error-rate must be above 0 and below the "
                   "surface-code threshold %g, got %g",
                   qecc::surfaceCodeThreshold, cfg.physicalErrorRate);
    cfg.technology = parseTechnology(opts.get("tech", "ProjectedD"));
    cfg.protocol = parseProtocol(opts.get("protocol", "Steane"));

    const workloads::Workload w = parseWorkload(opts);
    opts.done();
    const auto r = workloads::ResourceEstimator(cfg).estimate(w);

    sim::Table table("estimate: " + w.name);
    table.header({ "quantity", "value" });
    table.row({ "logical qubits (app)",
                sim::formatCount(r.appLogicalQubits) });
    table.row({ "logical qubits (factories)",
                sim::formatCount(r.factoryLogicalQubits) });
    table.row({ "code distance", std::to_string(r.codeDistance) });
    table.row({ "physical qubits",
                sim::formatCount(r.physicalQubits) });
    table.row({ "T factories",
                std::to_string(r.tPlan.factories) });
    table.row({ "execution time",
                sim::formatSeconds(r.execTimeSeconds) });
    table.row({ "baseline bandwidth",
                sim::formatRate(r.baselineBandwidth) });
    table.row({ "QuEST (MCE) bandwidth",
                sim::formatRate(r.mceBandwidth) });
    table.row({ "QuEST (+icache) bandwidth",
                sim::formatRate(r.cachedBandwidth) });
    table.row({ "MCE-only savings",
                sim::formatCount(r.mceSavings()) });
    table.row({ "total savings",
                sim::formatCount(r.totalSavings()) });
    table.print(std::cout);
    return 0;
}

int
cmdMicrocode(const Options &opts)
{
    const auto capacity =
        std::size_t(opts.getCount("capacity", 4096));
    const tech::Technology technology =
        parseTechnology(opts.get("tech", "ProjectedD"));
    opts.done();
    const tech::JJMemoryModel mem;

    sim::Table table("microcode design space @ "
                     + std::to_string(capacity) + " bits");
    table.header({ "syndrome", "optimal config", "qubits/MCE",
                   "JJs", "power (uW)" });
    for (qecc::Protocol p : qecc::allProtocols) {
        const core::MicrocodeModel model(qecc::protocolSpec(p),
                                         technology);
        if (capacity < model.unitCellProgramBits())
            sim::fatal("--capacity %zu bits cannot hold the %s "
                       "unit-cell program (%zu bits)",
                       capacity, qecc::protocolName(p).c_str(),
                       model.unitCellProgramBits());
        const tech::MemoryConfig best = model.optimalConfig(capacity);
        char power[32];
        std::snprintf(power, sizeof(power), "%.1f",
                      mem.powerUw(best));
        table.row({
            qecc::protocolName(p),
            best.toString(),
            std::to_string(model.servicedQubits(
                core::MicrocodeDesign::UnitCell, best)),
            std::to_string(mem.jjCount(best)),
            power,
        });
    }
    table.print(std::cout);
    return 0;
}

int
cmdTraceGen(const Options &opts)
{
    isa::TraceGenConfig cfg;
    cfg.numInstructions =
        std::size_t(opts.getCount("instructions", 10000));
    cfg.logicalQubits =
        std::size_t(opts.getCountAtLeast("qubits", 16, 2));
    cfg.seed = opts.getCount("seed", 1);
    cfg.maskFraction = opts.getRate("mask-fraction", 0.0);
    const std::string out = opts.get("out", "trace.qtrace");
    opts.done();

    const isa::LogicalTrace trace = generateApplicationTrace(cfg);
    trace.saveBinary(out);
    std::printf("wrote %zu instructions (%zu bytes, T fraction "
                "%.2f) to %s\n",
                trace.size(), trace.bytes(), trace.tFraction(),
                out.c_str());
    return 0;
}

int
cmdReplay(const Options &opts)
{
    const std::string path = opts.get("trace", "trace.qtrace");
    const auto mces = std::size_t(opts.getCountAtLeast("mces", 4, 1));
    const auto rounds =
        std::size_t(opts.getCountAtLeast("rounds", 1024, 1));
    const std::size_t distance = opts.getDistance(3);
    const double p = opts.getRate("error-rate", 1e-4);
    const bool verify_on_load = opts.has("verify-on-load");
    opts.done();

    const isa::LogicalTrace trace = isa::LogicalTrace::loadBinary(path);
    // placeLogicalQubits() puts logical qubit 0 on every tile, and the
    // master routes operand q to tile q % mces as its local qubit
    // q / mces: only operands below --mces reach a placed qubit.
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const isa::LogicalInstr &instr = trace.at(i);
        if (instr.opcode != isa::LogicalOpcode::Nop
            && instr.opcode != isa::LogicalOpcode::SyncToken
            && instr.operand >= mces)
            sim::fatal("%s: instruction %zu (%s) targets a qubit "
                       "that --mces %zu does not place (one per "
                       "tile, L0..L%zu); raise --mces or regenerate "
                       "the trace with --qubits %zu",
                       path.c_str(), i, instr.toString().c_str(),
                       mces, mces - 1, mces);
    }

    core::MasterConfig cfg;
    cfg.numMces = mces;
    cfg.mce = core::tileConfigForLogicalQubits(distance);
    cfg.mce.errorRates = quantum::ErrorRates{.idle = p, .meas = p};

    // Pre-flight: statically verify every tile's microcode, budget
    // and hazard properties before the system is built.
    if (verify_on_load) {
        for (std::size_t i = 0; i < mces; ++i) {
            const std::string label = "mce" + std::to_string(i);
            const verify::Report report =
                verify::verifyConfig(cfg.mce, label);
            if (report.ok())
                continue;
            ++sim::metrics::Registry::global().counter(
                "verify.preflight_rejections",
                "tiles rejected by the verify-on-load pre-flight");
            sim::fatal("%s: pre-flight verification failed\n%s",
                       label.c_str(), report.toString().c_str());
        }
    }

    core::QuestSystem system(cfg);
    system.placeLogicalQubits();
    system.runMixedWorkload(trace,
                            isa::generateDistillationRound(0),
                            rounds);
    std::printf("%s\n", system.report().toString().c_str());
    return 0;
}

int
cmdSimulate(const Options &opts)
{
    const std::size_t d = opts.getDistance(5);
    const double p = opts.getRate("error-rate", 1e-3);
    const auto trials =
        std::size_t(opts.getCountAtLeast("trials", 2000, 1));
    // --stream-window N decodes each shot through the streaming
    // sliding-window decoder instead of the offline pipeline;
    // --stream-stride M sets the commit distance (default N/2).
    const auto stream_window =
        std::size_t(opts.getCount("stream-window", 0));
    const auto stream_stride =
        std::size_t(opts.getCount("stream-stride", 0));
    if (opts.has("stream-stride") && !stream_window)
        sim::fatal("--stream-stride needs --stream-window");
    if (stream_stride > stream_window)
        sim::fatal("--stream-stride %zu must not exceed --stream-window "
                   "%zu", stream_stride, stream_window);
    decode::StreamConfig stream_cfg;
    if (stream_window) {
        stream_cfg.windowRounds = stream_window;
        stream_cfg.strideRounds = stream_stride
            ? stream_stride
            : std::max<std::size_t>(1, stream_window / 2);
    }
    const qecc::Protocol protocol =
        parseProtocol(opts.get("protocol", "Steane"));
    sim::Rng rng(opts.getCount("seed", 1));
    opts.done();

    const qecc::MemoryExperiment exp(d, protocol);
    const quantum::ErrorRates rates{.idle = p, .meas = p};
    decode::DecoderPipeline pipeline(exp.lattice());

    std::size_t failures = 0;
    for (std::size_t t = 0; t < trials; ++t) {
        auto shot = exp.sampleShot(rates, rng);
        decode::Correction corr;
        if (stream_window) {
            // One streamer per shot: rounds are pushed as extracted
            // and the committed corrections accumulate.
            decode::StreamingDecoder streamer(exp.extractor(),
                                              stream_cfg);
            for (const auto &round : shot.history)
                if (auto commit = streamer.pushRound(round))
                    corr.merge(commit->correction);
            if (auto commit = streamer.finish())
                corr.merge(commit->correction);
        } else {
            corr = pipeline.decode(decode::extractDetectionEvents(
                shot.history, exp.extractor()));
        }
        decode::applyCorrection(shot.frame, corr);
        failures += exp.logicalFailure(shot.frame) ? 1 : 0;
    }
    if (stream_window) {
        const auto &lag =
            sim::metrics::Registry::global().histogram(
                "decode.stream.lag_rounds",
                "rounds decoding ran behind extraction, per pushed "
                "round");
        std::printf(
            "d=%zu p=%g trials=%zu window=%zu stride=%zu "
            "logical_error_rate=%.3e lag_p50=%.0f lag_p99=%.0f\n",
            d, p, trials, stream_cfg.windowRounds,
            stream_cfg.strideRounds,
            double(failures) / double(trials), lag.percentile(0.5),
            lag.percentile(0.99));
        return 0;
    }
    std::printf("d=%zu p=%g trials=%zu logical_error_rate=%.3e "
                "lut_coverage=%.1f%%\n",
                d, p, trials, double(failures) / double(trials),
                pipeline.localCoverage() * 100.0);
    return 0;
}

/** One --timing differential row: static bound vs dynamic run. */
struct TimingRow
{
    std::string protocol;
    std::string design;
    std::string mode;
    std::size_t tiles = 1;
    std::size_t rounds = 1;
    verify::TimingBound bound;
    std::size_t observedCycles = 0;
    std::size_t deadlineCycles = 0; // budget over all rounds
    bool sound = false;
    bool tight = false;
};

/** Syndrome-round deadline of a tile config, in JJ-clock cycles. */
std::size_t
roundDeadlineCycles(const core::MceConfig &cfg)
{
    const qecc::ProtocolSpec &spec = qecc::protocolSpec(cfg.protocol);
    return std::size_t(
        sim::ticksToSeconds(
            spec.roundDuration(tech::gateLatencies(cfg.technology)))
        * tech::jjClockHz);
}

/**
 * Largest --timing run the CLI accepts, in uop instances (tiles x
 * rounds x uops per round). The static out-of-order bound keeps
 * seven 8-byte words per instance and the dynamic run about as much
 * again (Steane, 64 uops a round, peaks near 7.4 KiB per round), so
 * 2^21 instances stay near 250 MiB.
 */
constexpr double kMaxTimingUops = double(std::uint64_t(1) << 21);

/**
 * Why the --timing differential cannot run `rounds` rounds of this
 * config's program on `tiles` tiles, or an empty string when it
 * can. Both checks read one round's program and allocate nothing
 * per round. The state the run holds grows with its uop instances,
 * which kMaxTimingUops bounds. The dynamic scheduler stops at
 * core::kMaxSimCycles: the shared fetch delivers at most fetchWidth
 * slots a cycle, so the slot demand is a floor on the cycles
 * (checked in floating point, so no flag value overflows it); the
 * in-order run, the slower mode on every shipped configuration,
 * takes at most its static bound.
 */
std::string
timingRunRefusal(const core::MceConfig &cfg, std::size_t tiles,
                 std::size_t rounds)
{
    const verify::TileBundle bundle = verify::buildTileBundle(cfg);
    const verify::ExpandedStream stream =
        verify::expandRam(bundle.artifacts.ram);
    const verify::DependencyOracle dep(
        *bundle.artifacts.lattice, stream.qubits, stream.subCycles);
    const std::string protocol = qecc::protocolName(cfg.protocol);
    char why[160];
    const double uops =
        double(tiles) * double(rounds) * double(dep.uops().size());
    if (uops > kMaxTimingUops) {
        std::snprintf(why, sizeof(why),
                      "holds %.0f %s uops, past the timing model's "
                      "%.0f-uop state budget",
                      uops, protocol.c_str(), kMaxTimingUops);
        return why;
    }
    const core::SchedulerConfig &scfg = cfg.sched;
    const double demand = double(tiles) * double(rounds)
        * double(dep.depth() * dep.numQubits())
        / double(scfg.fetchWidth);
    const verify::FetchGrant grant =
        verify::worstCaseGrant(tiles, scfg.fetchWidth, scfg.fetchWidth);
    if (demand > double(core::kMaxSimCycles)
        || verify::TimingOracle(scfg)
                   .bound(dep, core::SchedulingMode::InOrder, rounds,
                          grant)
                   .totalBoundCycles
            > core::kMaxSimCycles) {
        std::snprintf(why, sizeof(why),
                      "runs %s past the scheduler model's %llu-cycle "
                      "cap",
                      protocol.c_str(),
                      static_cast<unsigned long long>(
                          core::kMaxSimCycles));
        return why;
    }
    return {};
}

/**
 * The --timing differential for one tile config: bound the round
 * program statically under `mode`, run the dynamic scheduler on the
 * same program (arbitrated over shared fetch when --tiles > 1) and
 * compare. Soundness (bound >= observed) must hold everywhere; the
 * 1.5x tightness gate applies uncontended, where the bound claims
 * to track the real pipeline rather than a worst-case grant phase.
 */
TimingRow
runTimingDifferential(const core::MceConfig &cfg,
                      const verify::TileBundle &bundle,
                      core::SchedulingMode mode, std::size_t tiles,
                      std::size_t rounds)
{
    const verify::ExpandedStream stream =
        verify::expandRam(bundle.artifacts.ram);
    const verify::DependencyOracle dep(
        *bundle.artifacts.lattice, stream.qubits, stream.subCycles);
    const core::SchedulerConfig &scfg = cfg.sched;
    const std::size_t bandwidth = scfg.fetchWidth;

    TimingRow row;
    row.protocol = qecc::protocolName(cfg.protocol);
    row.design = core::microcodeDesignName(cfg.microcodeDesign);
    row.mode = core::schedulingModeName(mode);
    row.tiles = tiles;
    row.rounds = rounds;
    row.deadlineCycles = roundDeadlineCycles(cfg) * rounds;

    const verify::FetchGrant grant =
        verify::worstCaseGrant(tiles, scfg.fetchWidth, bandwidth);
    row.bound = verify::TimingOracle(scfg).bound(
        dep, mode, rounds, grant);

    const core::DynamicScheduler sched(scfg);
    if (tiles <= 1) {
        row.observedCycles =
            sched.schedule(dep, mode, rounds).cycles.size();
    } else {
        const std::vector<const verify::DependencyOracle *> oracles(
            tiles, &dep);
        const std::vector<std::uint8_t> active(tiles, 1);
        const core::ArbitrationResult r = sched.arbitrate(
            oracles, active, mode, bandwidth,
            core::ArbiterPolicy::RoundRobin, rounds);
        for (const core::TileSchedule &t : r.tiles)
            row.observedCycles =
                std::max(row.observedCycles, t.cycles.size());
    }

    row.sound = row.bound.totalBoundCycles >= row.observedCycles;
    row.tight = tiles > 1
        || double(row.bound.totalBoundCycles)
            <= 1.5 * double(row.observedCycles);
    return row;
}

/** Serialize the --timing rows as the JSON "timing" section. */
std::string
timingJsonSection(const std::vector<TimingRow> &rows)
{
    std::ostringstream os;
    os << "\"timing\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const TimingRow &r = rows[i];
        os << (i ? "," : "") << "\n    {"
           << "\"protocol\": \"" << r.protocol << "\", "
           << "\"design\": \"" << r.design << "\", "
           << "\"mode\": \"" << r.mode << "\", "
           << "\"tiles\": " << r.tiles << ", "
           << "\"rounds\": " << r.rounds << ", "
           << "\"critical_path_cycles\": "
           << r.bound.criticalPathCycles << ", "
           << "\"width_bound_cycles\": "
           << r.bound.widthBoundCycles << ", "
           << "\"bound_cycles\": " << r.bound.totalBoundCycles
           << ", "
           << "\"observed_cycles\": " << r.observedCycles << ", "
           << "\"ratio\": "
           << (r.observedCycles
                   ? double(r.bound.totalBoundCycles)
                       / double(r.observedCycles)
                   : 0.0)
           << ", "
           << "\"deadline_cycles\": " << r.deadlineCycles << ", "
           << "\"slack_cycles\": "
           << (long(r.deadlineCycles)
               - long(r.bound.totalBoundCycles))
           << ", "
           << "\"sound\": " << (r.sound ? "true" : "false") << ", "
           << "\"tight\": " << (r.tight ? "true" : "false") << "}";
    }
    if (!rows.empty())
        os << "\n  ";
    os << "]";
    return os.str();
}

int
cmdVerify(const Options &opts)
{
    std::vector<qecc::Protocol> protocols;
    if (opts.has("protocol"))
        protocols.push_back(
            parseProtocol(opts.get("protocol", "Steane")));
    else
        protocols.assign(std::begin(qecc::allProtocols),
                         std::end(qecc::allProtocols));

    std::vector<core::MicrocodeDesign> designs;
    if (opts.has("design"))
        designs.push_back(parseDesign(opts.get("design", "RAM")));
    else
        designs.assign(std::begin(core::allMicrocodeDesigns),
                       std::end(core::allMicrocodeDesigns));

    std::optional<isa::LogicalTrace> trace;
    if (opts.has("trace"))
        trace = isa::LogicalTrace::loadBinary(
            opts.get("trace", "trace.qtrace"));

    const bool timing = opts.has("timing");
    const auto timingTiles =
        std::size_t(opts.getCountAtLeast("tiles", 1, 1));
    const auto timingRounds =
        std::size_t(opts.getCountAtLeast("rounds", 1, 1));
    core::MceConfig base;
    base.distance = opts.getDistance(3);
    base.technology = parseTechnology(opts.get("tech", "ProjectedD"));
    base.memoryConfig.channels =
        std::size_t(opts.getCount("channels", 4));
    base.memoryConfig.bankBits =
        std::size_t(opts.getCountAtLeast("bank-bits", 1024, 1));
    base.icacheCapacity = std::size_t(opts.getCount("icache", 1024));
    const double epsilon = opts.getDouble("epsilon", 0.0);
    const bool json = opts.has("json");
    const std::string json_path = opts.get("json", "verify.json");
    opts.done();
    // The differential's program depends on the protocol alone, so
    // one check per protocol refuses a run before any of it starts.
    if (timing)
        for (const qecc::Protocol p : protocols) {
            core::MceConfig cfg = base;
            cfg.protocol = p;
            const std::string why =
                timingRunRefusal(cfg, timingTiles, timingRounds);
            if (!why.empty())
                sim::fatal("--rounds %zu on %zu tile(s) %s", timingRounds,
                           timingTiles, why.c_str());
        }
    std::vector<TimingRow> timingRows;

    verify::Report combined;
    for (const qecc::Protocol p : protocols) {
        for (const core::MicrocodeDesign d : designs) {
            core::MceConfig cfg = base;
            cfg.protocol = p;
            cfg.microcodeDesign = d;

            const std::string label = qecc::protocolName(p) + "/"
                + core::microcodeDesignName(d);
            verify::TileBundle bundle =
                verify::buildTileBundle(cfg, label);
            bundle.artifacts.trace = trace;
            bundle.artifacts.rotationEpsilon = epsilon;
            if (timing) {
                bundle.artifacts.timing.rounds = timingRounds;
                bundle.artifacts.timing.contentionTiles =
                    timingTiles;
            }
            combined.merge(
                verify::Verifier().run(bundle.artifacts));
            if (timing)
                for (const core::SchedulingMode mode :
                     {core::SchedulingMode::InOrder,
                      core::SchedulingMode::OutOfOrder})
                    timingRows.push_back(runTimingDifferential(
                        cfg, bundle, mode, timingTiles,
                        timingRounds));
        }
    }

    bool timingGatesPass = true;
    if (timing) {
        sim::Table table("timing: static bound vs dynamic run ("
                         + std::to_string(timingTiles) + " tile(s), "
                         + std::to_string(timingRounds)
                         + " round(s))");
        table.header({ "config", "mode", "cp", "width", "bound",
                       "observed", "ratio", "deadline", "slack" });
        for (const TimingRow &r : timingRows) {
            char ratio[32];
            std::snprintf(ratio, sizeof(ratio), "%.3f",
                          r.observedCycles
                              ? double(r.bound.totalBoundCycles)
                                  / double(r.observedCycles)
                              : 0.0);
            table.row({
                r.protocol + "/" + r.design,
                r.mode,
                std::to_string(r.bound.criticalPathCycles),
                std::to_string(r.bound.widthBoundCycles),
                std::to_string(r.bound.totalBoundCycles),
                std::to_string(r.observedCycles),
                ratio,
                std::to_string(r.deadlineCycles),
                std::to_string(long(r.deadlineCycles)
                               - long(r.bound.totalBoundCycles)),
            });
            if (!r.sound) {
                timingGatesPass = false;
                std::fprintf(stderr,
                             "timing: UNSOUND bound for %s/%s %s: "
                             "bound %zu < observed %zu\n",
                             r.protocol.c_str(), r.design.c_str(),
                             r.mode.c_str(),
                             r.bound.totalBoundCycles,
                             r.observedCycles);
            }
            if (!r.tight) {
                timingGatesPass = false;
                std::fprintf(stderr,
                             "timing: LOOSE bound for %s/%s %s: "
                             "bound %zu > 1.5x observed %zu\n",
                             r.protocol.c_str(), r.design.c_str(),
                             r.mode.c_str(),
                             r.bound.totalBoundCycles,
                             r.observedCycles);
            }
        }
        table.print(std::cout);
    }

    if (json) {
        std::ofstream os(json_path);
        if (!os)
            sim::fatal("cannot write diagnostics to %s",
                       json_path.c_str());
        combined.writeJson(os, 0,
                           timing ? timingJsonSection(timingRows)
                                  : std::string());
        std::fprintf(stderr, "wrote diagnostics to %s\n",
                     json_path.c_str());
    }
    std::printf("%s\n", combined.toString().c_str());
    return combined.ok() && timingGatesPass ? 0 : 1;
}

void
usage()
{
    std::puts(
        "usage: quest <subcommand> [--flag value ...]\n"
        "\n"
        "subcommands:\n"
        "  estimate   --workload NAME | --shor BITS  [--error-rate P]\n"
        "             [--tech T] [--protocol S]\n"
        "  microcode  [--capacity BITS] [--tech T]\n"
        "  trace-gen  [--out FILE] [--instructions N] [--qubits N]\n"
        "             [--seed S]\n"
        "  replay     --trace FILE [--mces N] [--rounds N]\n"
        "             [--distance D] [--error-rate P]\n"
        "             [--verify-on-load]\n"
        "  simulate   [--distance D] [--error-rate P] [--trials N]\n"
        "             [--protocol S] [--seed S]\n"
        "             [--stream-window N [--stream-stride M]]\n"
        "  verify     [--protocol S] [--design D] [--distance D]\n"
        "             [--tech T] [--channels N] [--bank-bits N]\n"
        "             [--trace FILE] [--epsilon E] [--json FILE]\n"
        "             [--timing [--tiles N] [--rounds R]]\n"
        "             (defaults sweep every protocol x design;\n"
        "             --timing cross-checks the static WCET bound\n"
        "             against the dynamic scheduler and gates\n"
        "             soundness and 1.5x tightness)\n"
        "\n"
        "observability (any subcommand):\n"
        "  --trace-out FILE    write a Chrome-trace JSON of the run\n"
        "                      (open in Perfetto / chrome://tracing)\n"
        "  --metrics-out FILE  write the metrics registry as JSON");
}

/**
 * Write the --trace-out / --metrics-out artifacts after a
 * subcommand finished. The tracer was enabled before dispatch when
 * --trace-out was given.
 */
void
writeObservabilityOutputs(const Options &opts)
{
    if (opts.has("trace-out")) {
        const std::string path = opts.get("trace-out", "trace.json");
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         path.c_str());
        } else {
            sim::Tracer::instance().exportChromeTrace(os);
            std::fprintf(stderr, "wrote trace to %s\n", path.c_str());
        }
    }
    if (opts.has("metrics-out")) {
        const std::string path =
            opts.get("metrics-out", "metrics.json");
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "cannot write metrics to %s\n",
                         path.c_str());
        } else {
            sim::metricsWriteJson(os);
            std::fprintf(stderr, "wrote metrics to %s\n",
                         path.c_str());
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    const Options opts(argc, argv, 2);
    if (opts.has("trace-out"))
        sim::Tracer::instance().setEnabled(true);
    try {
        int rc = 2;
        if (cmd == "estimate")
            rc = cmdEstimate(opts);
        else if (cmd == "microcode")
            rc = cmdMicrocode(opts);
        else if (cmd == "trace-gen")
            rc = cmdTraceGen(opts);
        else if (cmd == "replay")
            rc = cmdReplay(opts);
        else if (cmd == "simulate")
            rc = cmdSimulate(opts);
        else if (cmd == "verify")
            rc = cmdVerify(opts);
        else {
            usage();
            return 2;
        }
        writeObservabilityOutputs(opts);
        return rc;
    } catch (const quest::sim::SimError &e) {
        // A panic already printed its `panic:` line; a fatal error
        // is reported here, once.
        if (e.kind() == quest::sim::SimError::Kind::Fatal)
            std::fprintf(stderr, "error: %s\n", e.what());
        // What the run counted before it failed (for instance
        // verify.preflight_rejections) still reaches the files.
        writeObservabilityOutputs(opts);
        return 1;
    }
}
