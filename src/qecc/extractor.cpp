#include "extractor.hpp"

#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace quest::qecc {

using isa::PhysOpcode;
using quantum::BatchErrorChannel;
using quantum::BatchPauliFrame;
using quantum::ErrorChannel;
using quantum::PauliFrame;
using quantum::Tableau;

bool
SyndromeRound::any() const
{
    return weight() != 0;
}

std::size_t
SyndromeRound::weight() const
{
    std::size_t w = 0;
    for (auto f : xFlips)
        w += f;
    for (auto f : zFlips)
        w += f;
    return w;
}

SyndromeRound
BatchSyndromeRound::lane(std::size_t lane) const
{
    QUEST_ASSERT(lane < BatchPauliFrame::lanes, "lane %zu out of range",
                 lane);
    SyndromeRound out;
    out.xFlips.reserve(xFlips.size());
    out.zFlips.reserve(zFlips.size());
    for (const std::uint64_t w : xFlips)
        out.xFlips.push_back((w >> lane) & 1u);
    for (const std::uint64_t w : zFlips)
        out.zFlips.push_back((w >> lane) & 1u);
    return out;
}

SyndromeExtractor::SyndromeExtractor(const RoundSchedule &schedule)
    : _schedule(&schedule),
      _mBatchRounds(sim::metrics::Registry::global().counter(
          "qecc.batch.rounds", "batched syndrome extraction rounds")),
      _mBatchLaneRounds(sim::metrics::Registry::global().counter(
          "qecc.batch.lane_rounds",
          "per-trial rounds covered by batched execution "
          "(rounds x 64)")),
      _mBatchWordUops(sim::metrics::Registry::global().counter(
          "qecc.batch.word_uops",
          "word-wide frame micro-ops retired by batched rounds")),
      _mBatchFillBits(sim::metrics::Registry::global().counter(
          "qecc.batch.fill_bits",
          "set error-plane bits observed at batched round boundaries"))
{
    const Lattice &lat = schedule.lattice();
    _xAncillas = lat.sites(SiteType::XAncilla);
    _zAncillas = lat.sites(SiteType::ZAncilla);
    for (const Coord c : lat.sites(SiteType::Data))
        _dataIndices.push_back(lat.index(c));
    _syndromeSlot.assign(lat.numQubits(), -1);
    for (std::size_t i = 0; i < _xAncillas.size(); ++i)
        _syndromeSlot[lat.index(_xAncillas[i])] = int(i);
    for (std::size_t i = 0; i < _zAncillas.size(); ++i)
        _syndromeSlot[lat.index(_zAncillas[i])] = int(i);
    recompile();
}

void
SyndromeExtractor::recompile()
{
    const RoundSchedule &schedule = *_schedule;
    const Lattice &lat = schedule.lattice();
    QUEST_ASSERT(validateSchedule(schedule), "malformed round schedule");

    // Precompile the schedule into a flat program: the sub-cycle
    // walk, neighbour resolution and slot lookups happen once here
    // instead of every round. Op order is exactly the schedule's
    // (sub-cycle major, qubit minor), so noise draw order — and
    // therefore every random stream — is unchanged.
    _program.clear();
    for (std::size_t s = 0; s < schedule.depth(); ++s) {
        const SubCycle &sc = schedule.subCycle(s);
        for (std::size_t q = 0; q < sc.uops.size(); ++q) {
            const PhysOpcode op = sc.uops[q];
            RoundOp ro{};
            ro.a = std::uint32_t(q);
            switch (op) {
              case PhysOpcode::Nop:
              case PhysOpcode::Hadamard: // timing-only dressing slot
              case PhysOpcode::Phase:
              case PhysOpcode::Verify:   // classical cat-state check
                continue;

              case PhysOpcode::PrepZ:
                ro.kind = RoundOp::Kind::PrepZ;
                break;

              case PhysOpcode::PrepX:
                ro.kind = RoundOp::Kind::PrepX;
                break;

              case PhysOpcode::CnotN:
              case PhysOpcode::CnotE:
              case PhysOpcode::CnotS:
              case PhysOpcode::CnotW: {
                const auto n = lat.neighbour(lat.coord(q),
                                             cnotDirection(op));
                ro.kind = RoundOp::Kind::Cnot;
                ro.b = std::uint32_t(lat.index(*n));
                break;
              }

              case PhysOpcode::CnotTargetN:
              case PhysOpcode::CnotTargetE:
              case PhysOpcode::CnotTargetS:
              case PhysOpcode::CnotTargetW: {
                const auto n = lat.neighbour(lat.coord(q),
                                             cnotDirection(op));
                ro.kind = RoundOp::Kind::Cnot;
                ro.a = std::uint32_t(lat.index(*n));
                ro.b = std::uint32_t(q);
                break;
              }

              case PhysOpcode::MeasX:
              case PhysOpcode::MeasZ: {
                ro.kind = op == PhysOpcode::MeasX
                              ? RoundOp::Kind::MeasX
                              : RoundOp::Kind::MeasZ;
                const int slot = _syndromeSlot[q];
                QUEST_ASSERT(slot >= 0,
                             "measurement on non-ancilla %zu", q);
                ro.slot = std::uint16_t(slot);
                ro.xAncilla = lat.siteType(lat.coord(q))
                                      == SiteType::XAncilla
                                  ? 1
                                  : 0;
                break;
              }

              case PhysOpcode::NumOpcodes:
                sim::panic("invalid opcode in schedule");
            }
            _program.push_back(ro);
        }
    }
}

SyndromeRound
SyndromeExtractor::runRound(PauliFrame &frame, ErrorChannel *channel) const
{
    SyndromeRound out;
    out.xFlips.assign(_xAncillas.size(), 0);
    out.zFlips.assign(_zAncillas.size(), 0);

    // Idle decoherence: one per-data-qubit channel per round.
    if (channel) {
        for (std::size_t q : _dataIndices)
            channel->idle(frame, q);
    }

    for (const RoundOp &op : _program) {
        switch (op.kind) {
          case RoundOp::Kind::PrepZ:
            frame.reset(op.a);
            if (channel)
                channel->afterPrep(frame, op.a);
            break;

          case RoundOp::Kind::PrepX:
            frame.reset(op.a);
            frame.h(op.a);
            if (channel)
                channel->afterPrep(frame, op.a);
            break;

          case RoundOp::Kind::Cnot:
            frame.cnot(op.a, op.b);
            if (channel)
                channel->afterGate2(frame, op.a, op.b);
            break;

          case RoundOp::Kind::MeasX:
            frame.h(op.a);
            [[fallthrough]];
          case RoundOp::Kind::MeasZ: {
            bool flip = frame.measureZFlip(op.a);
            if (channel && channel->measurementFlip())
                flip = !flip;
            if (op.xAncilla)
                out.xFlips[op.slot] = flip ? 1 : 0;
            else
                out.zFlips[op.slot] = flip ? 1 : 0;
            break;
          }
        }
    }
    return out;
}

BatchSyndromeRound
SyndromeExtractor::runRoundBatch(BatchPauliFrame &frame,
                                 BatchErrorChannel *channel) const
{
    QUEST_TRACE_SCOPE("qecc", "batch_round");
    BatchSyndromeRound out;
    out.xFlips.assign(_xAncillas.size(), 0);
    out.zFlips.assign(_zAncillas.size(), 0);

    if (channel) {
        for (std::size_t q : _dataIndices)
            channel->idle(frame, q);
    }

    for (const RoundOp &op : _program) {
        switch (op.kind) {
          case RoundOp::Kind::PrepZ:
            frame.reset(op.a);
            if (channel)
                channel->afterPrep(frame, op.a);
            break;

          case RoundOp::Kind::PrepX:
            frame.reset(op.a);
            frame.h(op.a);
            if (channel)
                channel->afterPrep(frame, op.a);
            break;

          case RoundOp::Kind::Cnot:
            frame.cnot(op.a, op.b);
            if (channel)
                channel->afterGate2(frame, op.a, op.b);
            break;

          case RoundOp::Kind::MeasX:
            frame.h(op.a);
            [[fallthrough]];
          case RoundOp::Kind::MeasZ: {
            std::uint64_t flips = frame.measureZFlipMask(op.a);
            if (channel)
                flips ^= channel->measurementFlipMask();
            if (op.xAncilla)
                out.xFlips[op.slot] = flips;
            else
                out.zFlips[op.slot] = flips;
            break;
          }
        }
    }

    // Cycle accounting for the bit-parallel engine: how many rounds
    // ran, how many lane-trials they covered, how many word-wide
    // micro-ops were retired and how full the error planes are
    // (integer counters only — deterministic across thread counts).
    // Counters are constructor-bound members, not function-local
    // statics, so registry resets cannot strand them.
    ++_mBatchRounds;
    _mBatchLaneRounds += BatchPauliFrame::lanes;
    _mBatchWordUops += _program.size() + _dataIndices.size();
    _mBatchFillBits += frame.totalErrorBits();

    return out;
}

std::vector<BatchSyndromeRound>
SyndromeExtractor::runRoundsBatch(BatchPauliFrame &frame,
                                  BatchErrorChannel *channel,
                                  std::size_t rounds) const
{
    std::vector<BatchSyndromeRound> history;
    history.reserve(rounds);
    for (std::size_t r = 0; r < rounds; ++r)
        history.push_back(runRoundBatch(frame, channel));
    return history;
}

std::vector<SyndromeRound>
SyndromeExtractor::runRounds(PauliFrame &frame, ErrorChannel *channel,
                             std::size_t rounds) const
{
    std::vector<SyndromeRound> history;
    history.reserve(rounds);
    for (std::size_t r = 0; r < rounds; ++r)
        history.push_back(runRound(frame, channel));
    return history;
}

void
SyndromeExtractor::runRoundsStreaming(
    PauliFrame &frame, ErrorChannel *channel, std::size_t rounds,
    const std::function<void(const SyndromeRound &)> &sink) const
{
    SyndromeRound scratch;
    for (std::size_t r = 0; r < rounds; ++r) {
        scratch = runRound(frame, channel);
        sink(scratch);
    }
}

SyndromeRound
runRoundOnTableau(const RoundSchedule &schedule, Tableau &tableau,
                  sim::Rng &rng)
{
    const Lattice &lat = schedule.lattice();
    QUEST_ASSERT(tableau.numQubits() == lat.numQubits(),
                 "tableau size %zu does not match lattice size %zu",
                 tableau.numQubits(), lat.numQubits());

    const auto x_anc = lat.sites(SiteType::XAncilla);
    const auto z_anc = lat.sites(SiteType::ZAncilla);
    SyndromeRound out;
    out.xFlips.assign(x_anc.size(), 0);
    out.zFlips.assign(z_anc.size(), 0);

    for (std::size_t s = 0; s < schedule.depth(); ++s) {
        const SubCycle &sc = schedule.subCycle(s);
        for (std::size_t q = 0; q < sc.uops.size(); ++q) {
            const PhysOpcode op = sc.uops[q];
            switch (op) {
              case PhysOpcode::Nop:
              case PhysOpcode::Hadamard:
              case PhysOpcode::Phase:
              case PhysOpcode::Verify:
                break;
              case PhysOpcode::PrepZ:
                tableau.reset(q, rng);
                break;
              case PhysOpcode::PrepX:
                tableau.reset(q, rng);
                tableau.h(q);
                break;
              case PhysOpcode::CnotN:
              case PhysOpcode::CnotE:
              case PhysOpcode::CnotS:
              case PhysOpcode::CnotW: {
                const auto n = lat.neighbour(lat.coord(q),
                                             cnotDirection(op));
                tableau.cnot(q, lat.index(*n));
                break;
              }
              case PhysOpcode::CnotTargetN:
              case PhysOpcode::CnotTargetE:
              case PhysOpcode::CnotTargetS:
              case PhysOpcode::CnotTargetW: {
                const auto n = lat.neighbour(lat.coord(q),
                                             cnotDirection(op));
                tableau.cnot(lat.index(*n), q);
                break;
              }
              case PhysOpcode::MeasX:
                tableau.h(q);
                [[fallthrough]];
              case PhysOpcode::MeasZ: {
                const bool outcome = tableau.measureZ(q, rng);
                const Coord c = lat.coord(q);
                if (lat.siteType(c) == SiteType::XAncilla) {
                    for (std::size_t i = 0; i < x_anc.size(); ++i)
                        if (x_anc[i] == c)
                            out.xFlips[i] = outcome ? 1 : 0;
                } else {
                    for (std::size_t i = 0; i < z_anc.size(); ++i)
                        if (z_anc[i] == c)
                            out.zFlips[i] = outcome ? 1 : 0;
                }
                break;
              }
              case PhysOpcode::NumOpcodes:
                sim::panic("invalid opcode in schedule");
            }
        }
    }
    return out;
}

} // namespace quest::qecc
