#include "mce.hpp"

#include <algorithm>

#include "qecc/braiding.hpp"
#include "qecc/schedule.hpp"
#include "sim/fault_injector.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace quest::core {

using isa::LogicalInstr;
using isa::LogicalOpcode;
using isa::PhysOpcode;
using qecc::Coord;
using qecc::LogicalQubit;
using qecc::RoundSchedule;
using qecc::SubCycle;

namespace {

/** Stored image size of the tile's QECC program under its design. */
std::size_t
microcodeImageBits(const MceConfig &cfg, std::size_t qubits)
{
    const MicrocodeModel model(qecc::protocolSpec(cfg.protocol),
                               cfg.technology);
    return model.capacityBits(cfg.microcodeDesign, qubits);
}

/** The installed pre-flight verification hook (none by default). */
PreflightVerifier g_preflightVerifier = nullptr;

} // namespace

void
setPreflightVerifier(PreflightVerifier fn)
{
    g_preflightVerifier = fn;
}

PreflightVerifier
preflightVerifier()
{
    return g_preflightVerifier;
}

Mce::ExecUnitStats::ExecUnitStats(sim::StatGroup &parent)
    : group("exec_unit"),
      latches(group.scalar("latches", "uops latched onto switches")),
      masterClocks(group.scalar("master_clocks",
                                "master clock firings")),
      fired(group.scalar("fired_instructions",
                         "non-NOP quantum instructions executed"))
{
    parent.addChild(group);
}

Mce::Mce(std::string name, const MceConfig &cfg)
    : _name(std::move(name)), _cfg(cfg),
      _lattice(std::make_unique<qecc::Lattice>(
          cfg.latticeRows ? cfg.latticeRows : 2 * cfg.distance - 1,
          cfg.latticeCols ? cfg.latticeCols : 2 * cfg.distance - 1)),
      _uopBits(MicrocodeModel(qecc::protocolSpec(cfg.protocol),
                              cfg.technology)
                   .uopBits(cfg.microcodeDesign,
                            _lattice->numQubits())),
      _rng(cfg.seed),
      _frame(_lattice->numQubits()),
      _ledger(_lattice->numQubits()),
      _channel(cfg.errorRates, _rng),
      _microcodeStore(microcodeImageBits(cfg, _lattice->numQubits())),
      _stats(_name),
      _mask(*_lattice, cfg.maskLayout, cfg.distance, _stats),
      _execUnit(_stats),
      _icache(cfg.icacheCapacity, _stats),
      _lutDecoder(*_lattice),
      _microcodeBits(_stats.scalar(
          "microcode_bits",
          "bits streamed out of the local microcode memory")),
      _qeccUops(_stats.scalar("qecc_uops",
                              "QECC uops issued to the exec unit")),
      _logicalUops(_stats.scalar(
          "logical_uops", "logical (transverse) uops issued")),
      _eventsLocal(_stats.scalar(
          "events_local", "detection events resolved by the LUT")),
      _roundsStat(_stats.scalar("qecc_rounds", "QECC rounds executed")),
      _seuUopErrors(_stats.scalar(
          "seu_uop_errors",
          "stray errors from SEU-corrupted microcode words")),
      _mReplayRounds(sim::metrics::Registry::global().counter(
          "mce.replay.rounds",
          "QECC rounds replayed from microcode")),
      _mReplayUops(sim::metrics::Registry::global().counter(
          "mce.replay.uops", "non-Nop uops streamed per replay")),
      _mReplayUcodeBits(sim::metrics::Registry::global().counter(
          "mce.replay.microcode_bits",
          "bits read out of the local microcode memory")),
      _mReplayHungRounds(sim::metrics::Registry::global().counter(
          "mce.replay.hung_rounds",
          "rounds skipped because the engine was wedged")),
      _mReplaySeuErrors(sim::metrics::Registry::global().counter(
          "mce.replay.seu_uop_errors",
          "stray errors replayed from SEU-corrupted words")),
      _mLogicalInstrs(sim::metrics::Registry::global().counter(
          "mce.pipeline.logical_instrs",
          "logical instructions entering the MCE pipeline")),
      _mSchedRounds(sim::metrics::Registry::global().counter(
          "sched.replay.rounds",
          "QECC rounds replayed through the dynamic scheduler")),
      _mSchedCycles(sim::metrics::Registry::global().counter(
          "sched.replay.cycles",
          "pipeline cycles spent replaying scheduled rounds"))
{
    const auto &spec = qecc::protocolSpec(cfg.protocol);
    _baseSchedule = std::make_unique<RoundSchedule>(
        qecc::buildRoundSchedule(*_lattice, spec));
    rebuildMaskedSchedule();

    if (_cfg.verifyOnLoad) {
        if (PreflightVerifier fn = preflightVerifier())
            fn(*this);
        else
            sim::fatal("%s: verify-on-load requested but no "
                       "pre-flight verifier is installed (link "
                       "quest_verify and call "
                       "verify::installPreflightGate())",
                       _name.c_str());
    }
}

void
Mce::rebuildMaskedSchedule()
{
    // Copy the base program and blank every uop addressed to a
    // masked qubit: syndrome generation is suppressed there and the
    // slot is available to the logical-uop path instead.
    RoundSchedule masked(*_lattice, _baseSchedule->spec());
    for (std::size_t s = 0; s < _baseSchedule->depth(); ++s) {
        SubCycle sc = _baseSchedule->subCycle(s);
        for (std::size_t q = 0; q < sc.uops.size(); ++q)
            if (_mask.masked(q))
                sc.uops[q] = PhysOpcode::Nop;
        masked.addSubCycle(std::move(sc));
    }
    // Rebuild in place: streaming decoders hold the extractor's
    // address, so the schedule and extractor outlive every mask edit.
    if (_extractor) {
        *_maskedSchedule = std::move(masked);
        _extractor->recompile();
    } else {
        _maskedSchedule =
            std::make_unique<RoundSchedule>(std::move(masked));
        _extractor = std::make_unique<qecc::SyndromeExtractor>(
            *_maskedSchedule);
    }
    // The dependence graph changed with the program; the next
    // scheduled round (or oracle consumer) re-plans lazily.
    _oracle.reset();
    _planValid = false;

    // In-order replay latches every qubit on every sub-cycle and
    // fires the master clock once per sub-cycle; every slot, Nops
    // included, is read out of the microcode memory.
    if (_cfg.scheduling == SchedulingMode::InOrder) {
        const RoundSchedule &program = *_maskedSchedule;
        _charge = ReplayCharge{
            .uops = program.activeUopCount(),
            .latches = program.totalUopSlots(),
            .clocks = program.depth(),
            .bits = program.totalUopSlots() * _uopBits};
    }
}

const verify::DependencyOracle &
Mce::dependencyOracle()
{
    if (!_oracle)
        _oracle = std::make_unique<verify::DependencyOracle>(
            verify::DependencyOracle::fromSchedule(
                *_maskedSchedule));
    return *_oracle;
}

const TileSchedule &
Mce::lastIssuePlan() const
{
    QUEST_ASSERT(_planValid,
                 "%s: no out-of-order round has been planned",
                 _name.c_str());
    return _issuePlan;
}

void
Mce::planOutOfOrder()
{
    const verify::DependencyOracle &oracle = dependencyOracle();
    if (!_scheduler)
        _scheduler = std::make_unique<DynamicScheduler>(_cfg.sched);
    _issuePlan = _scheduler->schedule(oracle, SchedulingMode::OutOfOrder,
                                      1);
    _planValid = true;

    // Each non-empty issue cycle latches its uops and fires the
    // master clock. Issue order is a pure timing reshuffle: the
    // functional effects retire in program order through the
    // extractor, exactly as in in-order replay. Fetch still visits
    // every slot (Nops cost bandwidth and are discarded at decode),
    // so the microcode-bit totals match in-order replay.
    const auto &cycles = _issuePlan.cycles;
    _charge = ReplayCharge{
        .uops = _issuePlan.issued,
        .latches = _issuePlan.issued,
        .clocks = std::uint64_t(std::count_if(
            cycles.begin(), cycles.end(),
            [](const auto &issued) { return !issued.empty(); })),
        .bits = std::uint64_t(_issuePlan.slotsFetched) * _uopBits,
        .schedCycles = cycles.size()};
}

void
Mce::rebuildMask()
{
    _mask.clear();
    for (const auto &[id, lq] : _logical)
        _mask.apply(lq, true);
    rebuildMaskedSchedule();
}

int
Mce::defineLogicalQubit(Coord anchor)
{
    LogicalQubit lq(*_lattice, anchor, _cfg.distance);
    QUEST_ASSERT(lq.fits(),
                 "logical qubit at (%d,%d) does not fit the %zux%zu tile",
                 anchor.row, anchor.col, _lattice->rows(),
                 _lattice->cols());
    const int id = _nextLogicalId++;
    _logical.emplace(id, lq);
    rebuildMask();
    return id;
}

void
Mce::releaseLogicalQubit(int id)
{
    auto it = _logical.find(id);
    QUEST_ASSERT(it != _logical.end(), "unknown logical qubit %d", id);
    _logical.erase(it);
    rebuildMask();
}

void
Mce::applyTransverse(LogicalOpcode op, const LogicalQubit &lq)
{
    for (std::size_t q : lq.footprint()) {
        if (!_lattice->isData(_lattice->coord(q)))
            continue;
        switch (op) {
          case LogicalOpcode::PrepZ:
          case LogicalOpcode::PrepX:
            _frame.reset(q);
            if (_cfg.errorRates.prep > 0.0)
                _channel.afterPrep(_frame, q);
            break;
          case LogicalOpcode::Hadamard:
            _frame.h(q);
            break;
          case LogicalOpcode::Phase:
            _frame.s(q);
            break;
          case LogicalOpcode::X:
          case LogicalOpcode::Z:
          case LogicalOpcode::MeasZ:
          case LogicalOpcode::MeasX:
            // Pauli gates commute through the error frame, and
            // measurement reads it; neither changes the frame.
            break;
          default:
            sim::panic("opcode %s is not transverse",
                       isa::logicalOpcodeName(op).c_str());
        }
        ++_execUnit.latches; // the switch drops back to Nop
        ++_logicalUops;
    }
}

void
Mce::executeLogical(const LogicalInstr &instr)
{
    QUEST_TRACE_SCOPE("mce", "logical_instr");
    ++_mLogicalInstrs;
    if (instr.opcode == LogicalOpcode::Nop
        || instr.opcode == LogicalOpcode::SyncToken)
        return;

    if (isa::isTransverse(instr.opcode)) {
        auto it = _logical.find(int(instr.operand));
        QUEST_ASSERT(it != _logical.end(),
                     "logical instruction targets unknown qubit L%u",
                     instr.operand);
        applyTransverse(instr.opcode, it->second);
        return;
    }

    if (isa::isMaskInstruction(instr.opcode)) {
        auto it = _logical.find(int(instr.operand));
        QUEST_ASSERT(it != _logical.end(),
                     "mask instruction targets unknown qubit L%u",
                     instr.operand);
        LogicalQubit &lq = it->second;
        // Reshape a trial copy first; an instruction that would push
        // the defect off the tile (or annihilate it) is dropped with
        // a warning rather than corrupting the mask.
        LogicalQubit trial = lq;
        switch (instr.opcode) {
          case LogicalOpcode::MaskExpand:
          case LogicalOpcode::Braid:
            trial.expandA(1);
            break;
          case LogicalOpcode::MaskContract:
            if (trial.defectA().size <= 2) {
                sim::warn("dropping %s: defect A too small",
                          instr.toString().c_str());
                return;
            }
            trial.contractA(1);
            break;
          case LogicalOpcode::MaskMove:
            trial.move(0, 2);
            break;
          default:
            sim::panic("unhandled mask opcode");
        }
        if (!trial.fits()) {
            sim::warn("dropping %s: footprint leaves the tile",
                      instr.toString().c_str());
            return;
        }
        lq = trial;
        rebuildMask();
        return;
    }

    if (instr.opcode == LogicalOpcode::T
        || instr.opcode == LogicalOpcode::Cnot) {
        // T consumes a distilled magic state; CNOT is a braiding
        // sequence. Both are multi-step macro-operations whose
        // instruction-delivery cost is what this model accounts:
        // charge one logical uop per footprint qubit.
        auto it = _logical.find(int(instr.operand));
        QUEST_ASSERT(it != _logical.end(),
                     "instruction targets unknown logical qubit L%u",
                     instr.operand);
        _logicalUops += double(it->second.footprint().size());
        return;
    }

    sim::panic("unhandled logical opcode %s",
               isa::logicalOpcodeName(instr.opcode).c_str());
}

ICacheAccess
Mce::executeBlock(std::uint32_t block_id, const isa::LogicalTrace &body)
{
    const ICacheAccess access = _icache.execute(block_id, body);
    // Whether hit or miss, the block executes locally. The block
    // bodies operate on factory qubits modelled outside this tile,
    // so only delivery is accounted here.
    _logicalUops += double(body.size());
    return access;
}

std::size_t
Mce::braidCnot(int control_id, int target_id)
{
    auto cit = _logical.find(control_id);
    auto tit = _logical.find(target_id);
    QUEST_ASSERT(cit != _logical.end() && tit != _logical.end(),
                 "braid between unknown logical qubits %d, %d",
                 control_id, target_id);
    QUEST_ASSERT(control_id != target_id,
                 "braid needs two distinct logical qubits");
    LogicalQubit &control = cit->second;
    LogicalQubit &target = tit->second;

    // Thread the channel between the target's defects: contract the
    // moving defect so (size + clearance) fits the d-column gap.
    const qecc::MaskSquare original = control.defectA();
    const std::size_t gap = _cfg.distance; // defect separation - size
    const std::size_t moving_size =
        std::min(original.size, gap > 2 ? gap - 2 : 1);

    const qecc::BraidPlanner planner(*_lattice);
    const qecc::MaskSquare moving{original.topLeft, moving_size};
    const qecc::BraidPlan plan =
        planner.planLoop(moving, target.defectA());

    // Everything the loop must steer clear of: the stationary
    // defects of both qubits (it circles target A at clearance 1).
    std::vector<qecc::MaskSquare> obstacles{ control.defectB(),
                                             target.defectB() };
    for (const auto &[id, lq] : _logical) {
        if (id == control_id || id == target_id)
            continue;
        obstacles.push_back(lq.defectA());
        obstacles.push_back(lq.defectB());
    }
    if (!planner.validate(plan, moving_size, obstacles)) {
        sim::warn("dropping braid CNOT L%d->L%d: no valid loop on "
                  "this tile", control_id, target_id);
        return 0;
    }

    // Execute: one mask update + d QECC rounds per step.
    auto place = [&](const qecc::MaskSquare &square) {
        control.setDefectA(square);
        rebuildMask();
    };
    place(moving); // contract to travel size
    for (std::size_t i = 1; i < plan.positions.size(); ++i) {
        place(qecc::MaskSquare{plan.positions[i], moving_size});
        for (std::size_t r = 0; r < _cfg.distance; ++r)
            runQeccRound();
    }
    place(original); // restore the full-distance defect
    return plan.steps();
}

void
Mce::stretchNoise(double factor, std::size_t rounds)
{
    QUEST_ASSERT(factor >= 1.0, "noise stretch below 1 (%g)", factor);
    _stretchFactor = factor;
    _stretchRounds = rounds;
}

const qecc::SyndromeRound &
Mce::runQeccRound()
{
    QUEST_TRACE_SCOPE("mce", "qecc_round");
    if (_hung) {
        ++_mReplayHungRounds;
        // A wedged engine streams nothing: the tile idles
        // uncorrected and decoheres for the round. No syndrome is
        // extracted (nothing read the ancillas), so the errors
        // surface in the first window after recovery.
        for (std::size_t q = 0; q < _lattice->numQubits(); ++q)
            _channel.idle(_frame, q);
        return _lastRound;
    }

    // Decoder-deadline fallback: a tile whose correction landed
    // late decoheres for the stretched interval (host::delivery's
    // stretch model applied at the channel).
    if (_stretchRounds > 0) {
        quantum::ErrorRates stretched = _cfg.errorRates;
        stretched.idle =
            std::min(1.0, stretched.idle * _stretchFactor);
        stretched.gate1 =
            std::min(1.0, stretched.gate1 * _stretchFactor);
        stretched.gate2 =
            std::min(1.0, stretched.gate2 * _stretchFactor);
        stretched.prep =
            std::min(1.0, stretched.prep * _stretchFactor);
        stretched.meas =
            std::min(1.0, stretched.meas * _stretchFactor);
        _channel.setRates(stretched);
    }

    // SEU-corrupted microcode: every parity-failed word streams one
    // wrong uop per replay, landing as a stray X on a random data
    // qubit until the master's scrub loop rewrites the image.
    if (_faults != nullptr
        && _microcodeStore.parityErrorWords() > 0) {
        const auto data = _lattice->sites(qecc::SiteType::Data);
        sim::Rng &placement =
            _faults->rng(sim::FaultSite::MicrocodeSeu);
        for (std::size_t k = 0;
             k < _microcodeStore.parityErrorWords(); ++k) {
            _frame.injectX(_lattice->index(
                data[placement.uniformInt(data.size())]));
            ++_seuUopErrors;
            ++_mReplaySeuErrors;
        }
    }

    // Microcode pipeline: charge the epoch's per-round replay cost.
    if (_cfg.scheduling == SchedulingMode::OutOfOrder) {
        if (!_planValid)
            planOutOfOrder();
        ++_mSchedRounds;
        _mSchedCycles += _charge.schedCycles;
    }
    _execUnit.latches += double(_charge.latches);
    _execUnit.masterClocks += double(_charge.clocks);
    _execUnit.fired += double(_charge.uops);
    _microcodeBits += double(_charge.bits);
    _mReplayUcodeBits += _charge.bits;
    _qeccUops += double(_charge.uops);
    _mReplayUops += _charge.uops;

    // Functional effect: evolve the frame and read the syndromes.
    _lastRound = _extractor->runRound(_frame, &_channel);
    // Streaming mode hands rounds off as extracted; buffering them
    // here too would grow _window without bound.
    if (_windowBuffering)
        _window.push_back(_lastRound);
    ++_roundsRun;
    ++_roundsStat;
    ++_mReplayRounds;

    if (_stretchRounds > 0 && --_stretchRounds == 0)
        _channel.setRates(_cfg.errorRates);
    return _lastRound;
}

decode::DetectionEvents
Mce::collectResidualEvents()
{
    const decode::DetectionEvents events =
        decode::extractDetectionEventsWindow(
            _window, *_extractor,
            _windowBaseline ? &*_windowBaseline : nullptr,
            _windowFirstRound);

    decode::LocalDecodeResult local = _lutDecoder.decodeLocal(events);
    decode::applyCorrection(_ledger, local.correction);
    _eventsLocal += double(local.resolvedEvents);

    if (!_window.empty()) {
        _windowBaseline = _window.back();
        _windowFirstRound = _roundsRun;
        _window.clear();
    }
    return local.residual;
}

void
Mce::applyCorrection(const decode::Correction &corr)
{
    decode::applyCorrection(_ledger, corr);
}

std::size_t
Mce::residualErrorWeight() const
{
    // Only protected data qubits matter: ancillas are re-prepared
    // every round, and a data qubit all of whose checks are masked
    // has error correction deliberately disabled -- its errors are
    // the logical qubit's business, not the decoder's.
    std::size_t w = 0;
    for (std::size_t q = 0; q < _frame.numQubits(); ++q) {
        const qecc::Coord c = _lattice->coord(q);
        if (!_lattice->isData(c))
            continue;
        bool protected_qubit = false;
        for (qecc::Direction dir : qecc::allDirections) {
            const auto n = _lattice->neighbour(c, dir);
            if (n && _lattice->isAncilla(*n)
                && !_mask.masked(_lattice->index(*n))) {
                protected_qubit = true;
                break;
            }
        }
        if (!protected_qubit)
            continue;
        const bool x = _frame.xError(q) != _ledger.xError(q);
        const bool z = _frame.zError(q) != _ledger.zError(q);
        if (x || z)
            ++w;
    }
    return w;
}

} // namespace quest::core
