/**
 * @file
 * Microcoded Control Engine (paper Section 4, Figures 7-8).
 *
 * An MCE owns a tiled subsection of the quantum substrate and is
 * solely responsible for its QECC instruction delivery: the
 * microcode pipeline replays the QECC-uop program every round with
 * no master-controller involvement; the mask table suppresses
 * syndrome generation where logical qubits live; the instruction
 * pipeline decodes 2-byte logical instructions into transverse
 * physical uops or mask updates; the error decoder pipeline runs the
 * local LUT decode and forwards residual detection events upward.
 *
 * The MCE here is cycle-faithful at QECC-round granularity: every
 * round evolves a Pauli frame under the configured noise and records
 * real syndromes. The microcode program is fixed between mask edits,
 * so its delivery cost (uops streamed, switch latches, master-clock
 * firings, microcode bits) is computed once per schedule epoch and
 * charged per round.
 */

#ifndef QUEST_CORE_MCE_HPP
#define QUEST_CORE_MCE_HPP

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "compiled_tile.hpp"
#include "decode/detection.hpp"
#include "decode/lut_decoder.hpp"
#include "icache.hpp"
#include "isa/instructions.hpp"
#include "isa/trace.hpp"
#include "mask_table.hpp"
#include "microcode.hpp"
#include "qecc/extractor.hpp"
#include "qecc/logical_mask.hpp"
#include "quantum/error_model.hpp"
#include "scheduler.hpp"
#include "sim/metrics.hpp"

namespace quest::core {

/** Configuration of one MCE tile. */
struct MceConfig
{
    std::size_t distance = 3;  ///< code distance of the tile
    /** Tile dimensions; 0 means the (2d-1)x(2d-1) default. */
    std::size_t latticeRows = 0;
    std::size_t latticeCols = 0;

    qecc::Protocol protocol = qecc::Protocol::Steane;
    tech::Technology technology = tech::Technology::ProjectedD;
    MicrocodeDesign microcodeDesign = MicrocodeDesign::UnitCell;
    tech::MemoryConfig memoryConfig{4, 1024};

    quantum::ErrorRates errorRates = quantum::ErrorRates::none();
    std::size_t icacheCapacity = 1024; ///< instructions; 0 disables
    std::uint64_t seed = 1;

    /**
     * Pipeline timing model for the per-round microcode replay.
     * Out-of-order issue changes *when* uops fire (the issue plan),
     * never *what* retires: functional effects always apply in
     * program order, so every architectural observable is
     * bit-identical between modes.
     */
    SchedulingMode scheduling = SchedulingMode::InOrder;
    /** Width/capacity knobs of the dynamic pipeline (OoO only). */
    SchedulerConfig sched;
};

/**
 * One tile's counts of the prime-line execution unit (Section 2.3,
 * Figure 4) and its mask table. The registry rows of the same names
 * sum these over every tile.
 */
struct TileStats
{
    std::uint64_t latches = 0;      ///< uops latched onto the switches
    std::uint64_t masterClocks = 0; ///< master-clock firings
    std::uint64_t fired = 0;        ///< non-Nop instructions fired
    std::uint64_t maskWrites = 0;   ///< mask-table write operations

    /** Call `emit(name, value)` once per count, under its registry
     *  row name (exec_unit.latches, ..., mask_table.writes). */
    template <typename Emit>
    void
    visitValues(Emit &&emit) const
    {
        emit(std::string("exec_unit.latches"), double(latches));
        emit(std::string("exec_unit.master_clocks"),
             double(masterClocks));
        emit(std::string("exec_unit.fired_instructions"),
             double(fired));
        emit(std::string("mask_table.writes"), double(maskWrites));
    }
};

/**
 * One Microcoded Control Engine.
 *
 * Neither copyable nor movable: the noise channel draws from the
 * tile's own RNG, and streamers hold the address of its extractor.
 */
class Mce
{
  public:
    /** A tile that compiles its own configuration. */
    Mce(std::string name, const MceConfig &cfg);

    /** A tile replaying `tile`, compiled from a configuration that
     *  differs from `cfg` at most in per-tile fields
     *  (CompiledTile::compiledFrom). */
    Mce(std::string name, const MceConfig &cfg,
        std::shared_ptr<const CompiledTile> tile);

    Mce(const Mce &) = delete;
    Mce &operator=(const Mce &) = delete;
    Mce(Mce &&) = delete;
    Mce &operator=(Mce &&) = delete;

    const std::string &name() const { return _name; }
    const MceConfig &config() const { return _cfg; }
    const qecc::Lattice &lattice() const { return _tile->lattice(); }

    /** The compiled configuration this tile shares with its
     *  system's other tiles. */
    const std::shared_ptr<const CompiledTile> &compiledTile() const
    {
        return _tile;
    }

    /** The canonical (unmasked) QECC microcode program this tile
     *  replays. */
    const qecc::RoundSchedule &baseSchedule() const
    {
        return _tile->baseSchedule();
    }

    /** The mask-filtered program actually replayed each round (what
     *  the dynamic scheduler and the arbiter plan against): the base
     *  schedule until the first mask edit. */
    const qecc::RoundSchedule &maskedSchedule() const
    {
        return _extractor.schedule();
    }

    /**
     * Qubit-dependence oracle of the masked program — lazily built
     * (and rebuilt after every mask change). Available in either
     * scheduling mode; the OoO replay path and the master's
     * bandwidth arbiter consume it.
     */
    const verify::DependencyOracle &dependencyOracle();

    /** The issue plan the last OoO round replayed. Asserts that at
     *  least one out-of-order round has run. */
    const TileSchedule &lastIssuePlan() const;

    quantum::PauliFrame &frame() { return _frame; }
    LogicalInstructionCache &icache() { return _icache; }
    MaskTable &maskTable() { return _mask; }
    const MaskTable &maskTable() const { return _mask; }

    /** This tile's execution-unit and mask-table counts. */
    TileStats
    stats() const
    {
        return { _latches.value(), _masterClocks.value(),
                 _fired.value(), _mask.writeCount() };
    }

    /** @name Logical qubit management (mask instructions). */
    ///@{

    /**
     * Create a double-defect logical qubit anchored at `anchor`.
     * @return the logical qubit id used by later instructions.
     */
    int defineLogicalQubit(qecc::Coord anchor);

    /** Remove a logical qubit and re-enable QECC on its footprint. */
    void releaseLogicalQubit(int id);

    std::size_t logicalQubitCount() const { return _logical.size(); }
    ///@}

    /**
     * Execute one 2-byte logical instruction (the instruction
     * pipeline path, steps 4-6 of Figure 8a). Transverse
     * instructions act across the operand logical qubit's footprint;
     * mask instructions reshape its boundary.
     */
    void executeLogical(const isa::LogicalInstr &instr);

    /** Run a block of logical instructions through the icache. */
    ICacheAccess executeBlock(std::uint32_t block_id,
                              const isa::LogicalTrace &body);

    /**
     * Execute a braided logical CNOT (Section 5.1, Figure 12c):
     * drag the control qubit's defect A around the target qubit's
     * defect A along a planned loop, one mask update plus d QECC
     * rounds per step. The moving defect is temporarily contracted
     * to thread the channel between the target's defects (a
     * distance/routing trade the defect encoding permits).
     *
     * @return the number of braid steps executed, or 0 when no
     *         valid loop exists on this tile (the instruction is
     *         dropped with a warning, like any other infeasible
     *         mask instruction).
     */
    std::size_t braidCnot(int control_id, int target_id);

    /**
     * Run one full QECC round: the microcode pipeline is charged the
     * current schedule epoch's replay cost (a uop slot per qubit per
     * sub-cycle of the masked program), the Pauli frame evolves
     * under noise and the ancilla syndromes are recorded.
     */
    const qecc::SyndromeRound &runQeccRound();

    /** Rounds executed so far. */
    std::size_t roundsRun() const { return _roundsRun; }

    /**
     * Drain the accumulated syndrome window into detection events
     * and run the local LUT decode. Locally-resolved corrections go
     * into the correction ledger; the residual events are returned
     * for the master controller's global decoder.
     */
    decode::DetectionEvents collectResidualEvents();

    /**
     * Streaming hand-off: when buffering is off, extracted rounds
     * are not accumulated into the offline decode window -- the
     * master feeds each round to a decode::StreamingDecoder as it is
     * extracted instead, and collectResidualEvents() drains nothing.
     */
    void setWindowBuffering(bool on) { _windowBuffering = on; }

    /** The syndrome extractor replaying this tile's microcode. Its
     *  address is stable: mask edits recompile it in place. */
    const qecc::SyndromeExtractor &extractor() const
    {
        return _extractor;
    }

    /**
     * Record a global-decoder correction. Following the paper
     * (Appendix A.2), corrections are not executed on the qubits:
     * they accumulate in a classical Pauli ledger that is folded in
     * when a qubit is finally measured. This keeps syndrome
     * differencing consistent across decode windows.
     */
    void applyCorrection(const decode::Correction &corr);

    /** The classical correction ledger. */
    const quantum::PauliFrame &correctionLedger() const
    {
        return _ledger;
    }

    /**
     * Residual error weight after folding the ledger into the live
     * frame (0 means every tracked error has been cancelled).
     */
    std::size_t residualErrorWeight() const;

    /** @name Accounting. */
    ///@{
    double microcodeBitsStreamed() const
    {
        return double(_microcodeBits.value());
    }
    /** Every streamed non-Nop uop fires once: the fired count. */
    double qeccUopsIssued() const { return double(_fired.value()); }
    double logicalUopsIssued() const
    {
        return double(_logicalUops.value());
    }
    double eventsResolvedLocally() const
    {
        return double(_eventsLocal.value());
    }
    ///@}

    /** @name Control hang. */
    ///@{

    /**
     * Wedge the engine: it stops streaming microcode and its tile
     * idles uncorrected, extracting nothing, until recover(). The
     * master's arbiter grants a wedged tile no fetch slots.
     */
    void wedge() { _hung = true; }

    bool hung() const { return _hung; }

    /** Clear the hang: the next round replays as before. */
    void recover() { _hung = false; }
    ///@}

  private:
    /** One round's replay charges; constant within a schedule
     *  epoch. Each streamed non-Nop uop fires once, so fired ==
     *  uops. */
    struct ReplayCharge
    {
        std::uint64_t uops = 0;    ///< non-Nop uops streamed
        std::uint64_t latches = 0; ///< switch latches
        std::uint64_t clocks = 0;  ///< master-clock firings
        std::uint64_t bits = 0;    ///< microcode bits read out
        std::uint64_t schedCycles = 0; ///< OoO issue-plan cycles
    };

    std::string _name;
    MceConfig _cfg;

    std::shared_ptr<const CompiledTile> _tile;
    /** The masked schedule after the first mask edit (null before):
     *  the extractor's private program replays it. */
    std::unique_ptr<qecc::RoundSchedule> _privateSchedule;
    /** Replays the compiled tile's program until a mask edit
     *  compiles a private one into it. */
    qecc::SyndromeExtractor _extractor;

    /** Dependence oracle + issue plan for the masked program;
     *  invalidated by every mask change, rebuilt on demand. */
    std::unique_ptr<verify::DependencyOracle> _oracle;
    std::unique_ptr<DynamicScheduler> _scheduler;
    TileSchedule _issuePlan;
    bool _planValid = false;

    /** The current epoch's per-round charges (for OoO, valid only
     *  while _planValid). */
    ReplayCharge _charge;

    sim::Rng _rng;
    quantum::PauliFrame _frame;
    quantum::PauliFrame _ledger; ///< decoded-but-unexecuted corrections
    quantum::ErrorChannel _channel;
    bool _hung = false;

    MaskTable _mask;
    LogicalInstructionCache _icache;
    decode::LutDecoder _lutDecoder;

    std::map<int, qecc::LogicalQubit> _logical;
    int _nextLogicalId = 0;

    std::size_t _roundsRun = 0;
    bool _windowBuffering = true;
    std::vector<qecc::SyndromeRound> _window;
    std::optional<qecc::SyndromeRound> _windowBaseline;
    std::size_t _windowFirstRound = 0;
    qecc::SyndromeRound _lastRound;

    // Counts and registry counters bound at construction; never
    // function-local statics (those outlive registry resets -- see
    // the registry-lifetime regression test).
    sim::metrics::Tally _latches;
    sim::metrics::Tally _masterClocks;
    sim::metrics::Tally _fired;
    sim::metrics::Tally _microcodeBits;
    sim::metrics::Tally _logicalUops;
    sim::metrics::Tally _eventsLocal;
    sim::metrics::Counter &_mReplayRounds;
    sim::metrics::Counter &_mReplayUops;
    sim::metrics::Counter &_mReplayHungRounds;
    sim::metrics::Counter &_mLogicalInstrs;
    sim::metrics::Counter &_mSchedRounds;
    sim::metrics::Counter &_mSchedCycles;

    /** (Re)plan the OoO issue schedule after a mask edit and derive
     *  the epoch's charges from it. Lazy, so the several edits of a
     *  braid step cost one plan. */
    void planOutOfOrder();

    /** Rebuild the mask-filtered schedule after mask changes. */
    void rebuildMaskedSchedule();

    /** Start a schedule epoch: drop the last program's oracle and
     *  issue plan, and derive the in-order replay charges. */
    void startEpoch();

    /**
     * Recompute the mask table from every live logical qubit, then
     * rebuild the schedule. Overlapping footprints (e.g. a braiding
     * defect passing another qubit's perimeter) make incremental
     * unmasking unsound, so all mask mutations funnel through here.
     */
    void rebuildMask();

    /** Apply a transverse gate across a logical footprint. */
    void applyTransverse(isa::LogicalOpcode op,
                         const qecc::LogicalQubit &lq);
};

} // namespace quest::core

#endif // QUEST_CORE_MCE_HPP
