#include "microcode.hpp"

#include <algorithm>
#include <limits>

#include "sim/logging.hpp"

namespace quest::core {

std::string
microcodeDesignName(MicrocodeDesign design)
{
    switch (design) {
      case MicrocodeDesign::Ram: return "RAM";
      case MicrocodeDesign::Fifo: return "FIFO";
      case MicrocodeDesign::UnitCell: return "Unit-cell";
    }
    sim::panic("invalid microcode design %d", int(design));
}

std::size_t
MicrocodeModel::uopBits(MicrocodeDesign design, std::size_t qubits) const
{
    switch (design) {
      case MicrocodeDesign::Ram:
        return isa::ramUopBits(_spec->opcodeCount, qubits);
      case MicrocodeDesign::Fifo:
      case MicrocodeDesign::UnitCell:
        return isa::fifoUopBits(_spec->opcodeCount);
    }
    sim::panic("invalid microcode design %d", int(design));
}

std::size_t
MicrocodeModel::capacityBits(MicrocodeDesign design,
                             std::size_t qubits) const
{
    switch (design) {
      case MicrocodeDesign::Ram:
      case MicrocodeDesign::Fifo:
        return qubits * _spec->uopsPerQubit * uopBits(design, qubits);
      case MicrocodeDesign::UnitCell:
        // One stored unit-cell program regardless of N.
        return _spec->unitCellUops * uopBits(design, qubits);
    }
    sim::panic("invalid microcode design %d", int(design));
}

std::size_t
MicrocodeModel::capacityLimitedQubits(MicrocodeDesign design,
                                      std::size_t total_bits) const
{
    if (design == MicrocodeDesign::UnitCell) {
        // Fits or it doesn't; once it fits, capacity never binds.
        if (capacityBits(design, 1) <= total_bits)
            return std::numeric_limits<std::size_t>::max();
        return 0;
    }
    // capacityBits is monotone in N: scan upward geometrically, then
    // binary search the boundary.
    if (capacityBits(design, 1) > total_bits)
        return 0;
    std::size_t lo = 1, hi = 2;
    while (capacityBits(design, hi) <= total_bits) {
        lo = hi;
        hi *= 2;
        QUEST_ASSERT(hi < (std::size_t(1) << 40),
                     "capacity search diverged");
    }
    while (lo + 1 < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (capacityBits(design, mid) <= total_bits)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

std::size_t
MicrocodeModel::bandwidthLimitedQubits(const tech::MemoryConfig &cfg) const
{
    const auto lat = tech::gateLatencies(_technology);
    const double round_seconds =
        sim::ticksToSeconds(_spec->roundDuration(lat));
    const double uops_per_second =
        _mem.uopsPerSecond(cfg, isa::fifoUopBits(_spec->opcodeCount));
    const double qubits = round_seconds * uops_per_second
        / double(_spec->uopsPerQubit);
    return static_cast<std::size_t>(qubits);
}

std::size_t
MicrocodeModel::servicedQubits(MicrocodeDesign design,
                               const tech::MemoryConfig &cfg) const
{
    const std::size_t cap =
        capacityLimitedQubits(design, cfg.totalBits());
    const std::size_t bw = bandwidthLimitedQubits(cfg);
    return std::min(cap, bw);
}

std::size_t
MicrocodeModel::unitCellProgramBits() const
{
    return _spec->unitCellUops * isa::fifoUopBits(_spec->opcodeCount);
}

tech::MemoryConfig
MicrocodeModel::optimalConfig(std::size_t total_bits,
                              MicrocodeDesign design) const
{
    const auto configs = tech::JJMemoryModel::standardConfigs(total_bits);
    QUEST_ASSERT(!configs.empty(), "no candidate memory configurations");

    const std::size_t program_bits = unitCellProgramBits();

    const tech::MemoryConfig *best = nullptr;
    std::size_t best_qubits = 0;
    double best_power = 0.0;
    for (const auto &cfg : configs) {
        if (design == MicrocodeDesign::UnitCell
            && cfg.bankBits < program_bits) {
            // Each channel replays from its own full program copy.
            continue;
        }
        const std::size_t q = servicedQubits(design, cfg);
        const double power = _mem.powerUw(cfg);
        if (!best || q > best_qubits
            || (q == best_qubits && power < best_power)) {
            best = &cfg;
            best_qubits = q;
            best_power = power;
        }
    }
    QUEST_ASSERT(best != nullptr,
                 "no memory configuration can hold the %s program",
                 _spec->name.c_str());
    return *best;
}

} // namespace quest::core
