/**
 * @file
 * Pass-based static verifier for control-plane artifacts.
 *
 * The verifier runs entirely without simulation: it takes the
 * artifacts an MCE loads — the compiled microcode images for the
 * three storage designs, the JJ memory configuration, the mask-table
 * rows and (optionally) a logical instruction trace — and proves
 * static properties about them:
 *
 *   equivalence  symbolic replay: the FIFO and unit-cell images are
 *                address-for-address equal to the RAM baseline
 *                expansion (the paper's Figure 10/11 equivalence
 *                claim, machine-checked);
 *   budget       the stored image fits the JJ memory and its replay
 *                bandwidth meets the syndrome-cycle deadline, with
 *                slack reported;
 *   hazard       the expanded uop stream is schedulable: no ancilla
 *                read-before-reset, no interaction after
 *                measurement, no two-qubit address aliasing, no
 *                partner off the lattice;
 *   mask         mask-table rows stay on the lattice and do not
 *                overlap;
 *   isa          logical traces carry only known opcodes and
 *                in-range operands, and rotation decompositions fit
 *                the icache line budget;
 *   timing       the static worst-case issue bound (TimingOracle's
 *                abstract interpretation of the dynamic scheduler)
 *                meets the syndrome-cycle deadline;
 *   contention   co-resident tiles sharing the fetch substrate all
 *                still meet the deadline under worst-case
 *                arbitration.
 *
 * Every run bumps the process-wide `verify.*` metrics, so a run's
 * --metrics-out output records its pre-flight failures.
 */

#ifndef QUEST_VERIFY_VERIFIER_HPP
#define QUEST_VERIFY_VERIFIER_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mce.hpp"
#include "core/microcode.hpp"
#include "diagnostics.hpp"
#include "isa/trace.hpp"
#include "program.hpp"
#include "qecc/logical_mask.hpp"
#include "sim/metrics.hpp"
#include "tech/jj_memory.hpp"

namespace quest::verify {

/** One mask-table row: a logical qubit's two defect squares. */
struct MaskRow
{
    int id = 0;
    qecc::MaskSquare a;
    qecc::MaskSquare b;
};

/** Everything the verifier inspects about one MCE tile. */
struct TileArtifacts
{
    std::string label = "tile"; ///< report label, e.g. "mce0"

    const qecc::Lattice *lattice = nullptr;
    const qecc::ProtocolSpec *spec = nullptr;
    tech::Technology technology = tech::Technology::ProjectedD;
    core::MicrocodeDesign design = core::MicrocodeDesign::UnitCell;
    tech::MemoryConfig memory{4, 1024};

    /** The three compiled microcode images. `ram` is the baseline
     *  the equivalence pass expands the others against. */
    RamProgram ram;
    FifoProgram fifo;
    UnitCellProgram cell;

    /** Mask-table rows (one per live logical qubit). */
    std::vector<MaskRow> maskRows;

    /** Optional logical instruction trace to validate. */
    std::optional<isa::LogicalTrace> trace;

    /** Icache line budget for the rotation check (0 skips). */
    std::size_t icacheCapacity = 0;
    /** Rotation synthesis precision for the budget check (0 skips). */
    double rotationEpsilon = 0.0;

    /** What the timing/contention passes analyse (see timing.hpp). */
    struct TimingSpec
    {
        /** Pipeline widths/capacity of the tile under analysis. */
        core::SchedulerConfig sched;
        core::SchedulingMode scheduling =
            core::SchedulingMode::InOrder;
        /** Rounds the bound covers (deadline scales with it). */
        std::size_t rounds = 1;
        /** Co-resident copies the contention pass models. */
        std::size_t contentionTiles = 1;
        /** Shared fetch slots/cycle; 0 means sched.fetchWidth. */
        std::size_t sharedFetchBandwidth = 0;
        core::ArbiterPolicy arbiterPolicy =
            core::ArbiterPolicy::RoundRobin;
        /** Per-round deadline override in cycles; 0 derives the
         *  syndrome-cycle deadline from spec + technology. */
        std::size_t deadlineCycles = 0;
    };
    TimingSpec timing;
};

/** One verification pass. */
class Pass
{
  public:
    virtual ~Pass() = default;
    virtual std::string name() const = 0;
    virtual void run(const TileArtifacts &artifacts,
                     Report &report) const = 0;
};

/** @name The standard passes (timing/contention: see timing.hpp). */
///@{
std::unique_ptr<Pass> makeEquivalencePass();
std::unique_ptr<Pass> makeBudgetPass();
std::unique_ptr<Pass> makeHazardPass();
std::unique_ptr<Pass> makeMaskPass();
std::unique_ptr<Pass> makeIsaPass();
///@}

/** Pass pipeline over tile artifacts. */
class Verifier
{
  public:
    /** Constructs the standard seven-pass pipeline. */
    Verifier();

    /** Run every pass and collect the findings. */
    Report run(const TileArtifacts &artifacts) const;

  private:
    std::vector<std::unique_ptr<Pass>> _passes;

    // Constructor-bound registry counters (no function-local
    // statics; they outlive registry resets).
    sim::metrics::Counter &_mRuns;
    sim::metrics::Counter &_mPasses;
    sim::metrics::Counter &_mDiagnostics;
    sim::metrics::Counter &_mErrors;
    sim::metrics::Counter &_mFailedRuns;
};

/**
 * Owning bundle: the artifacts plus the geometry they view. Use
 * this when verifying a configuration (rather than a live Mce, whose
 * lattice and schedule already exist).
 */
struct TileBundle
{
    std::unique_ptr<qecc::Lattice> lattice;
    std::unique_ptr<qecc::RoundSchedule> schedule;
    TileArtifacts artifacts;
};

/**
 * Compile the verification artifacts an MCE with this configuration
 * would load: lattice, canonical schedule, and the three microcode
 * images.
 */
TileBundle buildTileBundle(const core::MceConfig &cfg,
                           std::string label = "tile");

/**
 * Verify a configuration end to end (build + run). The convenience
 * entry the CLI and the pre-flight gate share.
 */
Report verifyConfig(const core::MceConfig &cfg,
                    std::string label = "tile");

/**
 * Install the pre-flight verification hook into the core load path:
 * after this call, constructing an Mce whose config sets
 * `verifyOnLoad` runs the verifier over the tile's artifacts and
 * raises SimError on any error-severity diagnostic.
 */
void installPreflightGate();

} // namespace quest::verify

#endif // QUEST_VERIFY_VERIFIER_HPP
