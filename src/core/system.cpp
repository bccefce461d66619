#include "system.hpp"

#include <cstdio>

#include "sim/logging.hpp"

namespace quest::core {

std::string
SystemReport::toString() const
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "rounds=%zu baseline=%.3e B quest=%.3e B "
                  "(logical=%.3e sync=%.3e syndrome=%.3e corr=%.3e "
                  "cache=%.3e) savings=%.1fx",
                  rounds, baselineBytes, questBusBytes, bytesLogical,
                  bytesSync, bytesSyndrome, bytesCorrections,
                  bytesCache, savings());
    return buf;
}

MceConfig
tileConfigForLogicalQubits(std::size_t distance)
{
    MceConfig cfg;
    cfg.distance = distance;
    // Double defect: two d-site squares separated by 2d columns,
    // plus a one-site masked perimeter and braiding headroom.
    cfg.latticeRows = distance + 5;
    cfg.latticeCols = 4 * distance + 5;
    return cfg;
}

qecc::Coord
QuestSystem::placeLogicalQubits()
{
    const qecc::Coord anchor{2, 2};
    for (std::size_t i = 0; i < _master.numMces(); ++i) {
        const int id = _master.mce(i).defineLogicalQubit(anchor);
        QUEST_ASSERT(id == 0,
                     "expected the first logical qubit on MCE %zu", i);
    }
    return anchor;
}

void
QuestSystem::runMixedWorkload(const isa::LogicalTrace &app,
                              const isa::LogicalTrace &distill_body,
                              std::size_t rounds,
                              std::size_t distill_period)
{
    QUEST_ASSERT(distill_period > 0, "distillation period must be > 0");

    std::size_t app_pos = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        // A few logical instructions per round (ILP 2-3, Section 5.2).
        for (std::size_t k = 0; k < 2 && app_pos < app.size(); ++k)
            _master.dispatch(app.at(app_pos++));

        // T-factories run continuously: every period, each MCE
        // replays the (deterministic) distillation block.
        if (r % distill_period == 0 && !distill_body.empty()) {
            for (std::size_t i = 0; i < _master.numMces(); ++i)
                _master.dispatchBlock(i, /*block_id=*/0,
                                      distill_body);
        }

        _master.broadcastSync();
        _master.stepRound();
    }
    _master.decodeNow();
}

SystemReport
QuestSystem::report() const
{
    SystemReport out;
    out.rounds = _master.roundsRun();
    out.baselineBytes = _master.baselineEquivalentBytes();
    out.bytesLogical = _master.busBytesLogical();
    out.bytesSync = _master.busBytesSync();
    out.bytesSyndrome = _master.busBytesSyndrome();
    out.bytesCorrections = _master.busBytesCorrections();
    out.bytesCache = _master.busBytesCacheTraffic();
    out.questBusBytes = _master.totalBusBytes();
    return out;
}

} // namespace quest::core
