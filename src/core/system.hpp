/**
 * @file
 * End-to-end QuEST system facade.
 *
 * Wires the master controller, its MCE array, the logical
 * instruction cache and the distillation stream generator into one
 * object that examples and integration tests can drive: place
 * logical qubits, feed an application trace interleaved with
 * T-factory blocks, run QECC rounds, and read back the bandwidth
 * ledger that the paper's Figure-14 comparison is about.
 */

#ifndef QUEST_CORE_SYSTEM_HPP
#define QUEST_CORE_SYSTEM_HPP

#include <string>

#include "master_controller.hpp"

namespace quest::core {

/** Bandwidth outcome of a system run. */
struct SystemReport
{
    std::size_t rounds = 0;
    double baselineBytes = 0;  ///< software-managed QECC equivalent
    double questBusBytes = 0;  ///< bytes QuEST actually moved
    double bytesLogical = 0;
    double bytesSync = 0;
    double bytesSyndrome = 0;
    double bytesCorrections = 0;
    double bytesCache = 0;

    /** Bandwidth reduction factor (Figure 14, cycle-level). */
    double
    savings() const
    {
        return questBusBytes > 0 ? baselineBytes / questBusBytes : 0.0;
    }

    std::string toString() const;
};

/** The full control processor plus quantum substrate model. */
class QuestSystem
{
  public:
    explicit QuestSystem(const MasterConfig &cfg)
        : _master(cfg)
    {}

    MasterController &master() { return _master; }

    /**
     * Place one double-defect logical qubit on every MCE tile.
     * Tiles must be at least (d+3) x (3d+3) sites; configure
     * MceConfig::latticeRows/Cols accordingly.
     * @return the anchor used.
     */
    qecc::Coord placeLogicalQubits();

    /**
     * Run a mixed workload: dispatch `app` round-robin across the
     * run, execute `distill_body` through each MCE's icache every
     * `distill_period` rounds (the continuously-running T-factory
     * pattern), and keep QECC rounds flowing throughout.
     */
    void runMixedWorkload(const isa::LogicalTrace &app,
                          const isa::LogicalTrace &distill_body,
                          std::size_t rounds,
                          std::size_t distill_period = 8);

    /** Snapshot the bandwidth ledger. */
    SystemReport report() const;

  private:
    MasterController _master;
};

/**
 * A MceConfig sized so a distance-d double-defect logical qubit
 * (plus braiding headroom) fits the tile.
 */
MceConfig tileConfigForLogicalQubits(std::size_t distance);

} // namespace quest::core

#endif // QUEST_CORE_SYSTEM_HPP
