#include "extractor.hpp"

#include <algorithm>

#include "quantum/tableau.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace quest::qecc {

using isa::PhysOpcode;
using quantum::BatchErrorChannel;
using quantum::BatchPauliFrame;
using quantum::ErrorChannel;
using quantum::ErrorRates;
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
    : SyndromeExtractor(std::make_shared<const ExtractorProgram>(schedule))
{}

SyndromeExtractor::SyndromeExtractor(
    std::shared_ptr<const ExtractorProgram> program)
    : _program(std::move(program)),
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
    QUEST_ASSERT(_program != nullptr, "extractor without a program");
}

void
SyndromeExtractor::compile(const RoundSchedule &schedule)
{
    // The first compile copies the replayed program, lattice tables
    // and storage included; later ones reuse that copy in place, so a
    // program shared with other extractors is never edited.
    if (!_own)
        _own = std::make_shared<ExtractorProgram>(*_program);
    _own->compile(schedule);
    _program = _own;
}

namespace {

/** Index offset from a qubit to its neighbour in `dir`. */
std::int32_t
neighbourOffset(const Lattice &lat, Direction dir)
{
    const auto cols = std::int32_t(lat.cols());
    switch (dir) {
      case Direction::North: return -cols;
      case Direction::East: return 1;
      case Direction::South: return cols;
      case Direction::West: return -1;
    }
    sim::panic("invalid direction %d", int(dir));
}

/**
 * dst[i] ^= keep(i) & word i of the source plane moved `shift` qubits
 * towards higher indices (negative: lower), zero-filled: bit j of
 * the moved plane is bit j - shift of the source. `src(k)` yields
 * source word k.
 */
template <typename Src, typename Keep>
void
xorShifted(std::uint64_t *dst, std::ptrdiff_t n, std::ptrdiff_t shift,
           const Src &src, const Keep &keep)
{
    if (shift >= 0) {
        const std::ptrdiff_t w = shift >> 6;
        const int b = int(shift & 63);
        for (std::ptrdiff_t i = w; i < n; ++i) {
            std::uint64_t v = src(i - w) << b;
            if (b != 0 && i > w)
                v |= src(i - w - 1) >> (64 - b);
            dst[i] ^= v & keep(i);
        }
    } else {
        const std::ptrdiff_t w = (-shift) >> 6;
        const int b = int((-shift) & 63);
        for (std::ptrdiff_t i = 0; i + w < n; ++i) {
            std::uint64_t v = src(i + w) >> b;
            if (b != 0 && i + w + 1 < n)
                v |= src(i + w + 1) << (64 - b);
            dst[i] ^= v & keep(i);
        }
    }
}

} // namespace

ExtractorProgram::ExtractorProgram(const RoundSchedule &schedule)
    : _schedule(&schedule)
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
    compile(schedule);
}

void
ExtractorProgram::compile(const RoundSchedule &schedule)
{
    QUEST_ASSERT(&schedule.lattice() == &lattice(),
                 "a program recompiles only for its own lattice");
    const Lattice &lat = schedule.lattice();
    QUEST_ASSERT(validateSchedule(schedule),
                 "round schedule breaks the lockstep contract (a qubit "
                 "touched twice in one sub-cycle, a CNOT without an "
                 "on-lattice data partner, or preparations, CNOTs and "
                 "measurements mixed in one sub-cycle)");
    _schedule = &schedule;

    // Compile each sub-cycle into a layer. Its uops are grouped into
    // one qubit mask per step -- reset, Hadamard, and CNOT control /
    // target per direction -- and its noise sites keep the
    // schedule's (sub-cycle major, qubit minor) order, so the noise
    // draw order, and therefore every random stream, is unchanged.
    _words = (lat.numQubits() + 63) / 64;
    _layers.clear();
    _steps.clear();
    _masks.clear();
    _sites.clear();

    // The candidate steps of a sub-cycle, one mask each: reset,
    // Hadamard, then CNOT control and target per direction.
    std::vector<Step> groups = {{Step::Kind::Reset, 0, 0},
                                {Step::Kind::Hadamard, 0, 0}};
    for (const Direction dir : allDirections) {
        const std::int32_t off = neighbourOffset(lat, dir);
        groups.push_back({Step::Kind::CnotControl, off, 0});
        groups.push_back({Step::Kind::CnotTarget, off, 0});
    }
    const auto cnotGroup = [](Direction dir, bool target) {
        return 2 + 2 * std::size_t(dir) + (target ? 1 : 0);
    };
    std::vector<std::uint64_t> group_masks(groups.size() * _words);

    for (std::size_t s = 0; s < schedule.depth(); ++s) {
        const SubCycle &sc = schedule.subCycle(s);
        std::fill(group_masks.begin(), group_masks.end(), 0);
        const std::size_t first_site = _sites.size();
        Site::Kind kind = Site::Kind::Prep; // one per sub-cycle
        for (std::size_t q = 0; q < sc.uops.size(); ++q) {
            const PhysOpcode op = sc.uops[q];
            Site site{};
            site.a = std::uint32_t(q);
            std::size_t group = groups.size(); // none
            switch (op) {
              case PhysOpcode::Nop:
              case PhysOpcode::Hadamard: // timing-only dressing slot
              case PhysOpcode::Phase:
              case PhysOpcode::Verify:   // classical cat-state check
                continue;

              case PhysOpcode::PrepZ:
              case PhysOpcode::PrepX:
                // A Hadamard after a reset leaves the frame clear.
                kind = Site::Kind::Prep;
                group = 0;
                break;

              case PhysOpcode::CnotN:
              case PhysOpcode::CnotE:
              case PhysOpcode::CnotS:
              case PhysOpcode::CnotW: {
                const Direction dir = cnotDirection(op);
                kind = Site::Kind::Cnot;
                site.b = std::uint32_t(std::int64_t(q)
                                       + neighbourOffset(lat, dir));
                group = cnotGroup(dir, false);
                break;
              }

              case PhysOpcode::CnotTargetN:
              case PhysOpcode::CnotTargetE:
              case PhysOpcode::CnotTargetS:
              case PhysOpcode::CnotTargetW: {
                const Direction dir = cnotDirection(op);
                kind = Site::Kind::Cnot;
                site.a = std::uint32_t(std::int64_t(q)
                                       + neighbourOffset(lat, dir));
                site.b = std::uint32_t(q);
                group = cnotGroup(dir, true);
                break;
              }

              case PhysOpcode::MeasX:
              case PhysOpcode::MeasZ: {
                const int slot = _syndromeSlot[q];
                QUEST_ASSERT(slot >= 0,
                             "measurement on non-ancilla %zu", q);
                kind = Site::Kind::Meas;
                site.slot = std::uint16_t(slot);
                site.xAncilla = lat.siteType(lat.coord(q))
                                        == SiteType::XAncilla
                                    ? 1
                                    : 0;
                if (op == PhysOpcode::MeasX) {
                    site.xBasis = 1;
                    group = 1;
                }
                break;
              }

              case PhysOpcode::NumOpcodes:
                sim::panic("invalid opcode in schedule");
            }
            if (group < groups.size())
                group_masks[group * _words + q / 64] |=
                    std::uint64_t(1) << (q % 64);
            _sites.push_back(site);
        }
        // Every step has a site (its noise or measurement), so a
        // sub-cycle without sites has no work at all.
        if (_sites.size() == first_site)
            continue;

        for (std::size_t g = 0; g < groups.size(); ++g) {
            const auto mask = group_masks.begin()
                + std::ptrdiff_t(g * _words);
            if (std::all_of(mask, mask + std::ptrdiff_t(_words),
                            [](std::uint64_t w) { return w == 0; }))
                continue;
            _steps.push_back(groups[g]);
            _steps.back().mask = std::uint32_t(_masks.size());
            _masks.insert(_masks.end(), mask,
                          mask + std::ptrdiff_t(_words));
        }
        _layers.push_back({std::uint32_t(_steps.size()),
                           std::uint32_t(_sites.size()), kind});
    }
}

void
ExtractorProgram::applyStep(const Step &step, std::uint64_t *x,
                            std::uint64_t *z) const
{
    // In place over the planes: a step reads only masked bits (or
    // only partner bits) and writes only the other set, and the two
    // sets are disjoint, so no word is read after a write it needs.
    const std::uint64_t *m = &_masks[step.mask];
    const auto n = std::ptrdiff_t(_words);
    const std::ptrdiff_t off = step.offset;
    switch (step.kind) {
      case Step::Kind::Reset:
        for (std::ptrdiff_t i = 0; i < n; ++i) {
            x[i] &= ~m[i];
            z[i] &= ~m[i];
        }
        break;

      case Step::Kind::Hadamard:
        for (std::ptrdiff_t i = 0; i < n; ++i) {
            const std::uint64_t diff = (x[i] ^ z[i]) & m[i];
            x[i] ^= diff;
            z[i] ^= diff;
        }
        break;

      case Step::Kind::CnotControl: {
        // X errors copy ancilla -> partner; Z errors partner -> ancilla.
        xorShifted(x, n, off,
                   [&](std::ptrdiff_t k) { return x[k] & m[k]; },
                   [](std::ptrdiff_t) { return ~std::uint64_t(0); });
        xorShifted(z, n, -off, [&](std::ptrdiff_t k) { return z[k]; },
                   [&](std::ptrdiff_t i) { return m[i]; });
        break;
      }

      case Step::Kind::CnotTarget: {
        // The partner controls: X copies partner -> ancilla, Z
        // copies ancilla -> partner.
        xorShifted(x, n, -off, [&](std::ptrdiff_t k) { return x[k]; },
                   [&](std::ptrdiff_t i) { return m[i]; });
        xorShifted(z, n, off,
                   [&](std::ptrdiff_t k) { return z[k] & m[k]; },
                   [](std::ptrdiff_t) { return ~std::uint64_t(0); });
        break;
      }
    }
}

SyndromeRound
SyndromeExtractor::runRound(PauliFrame &frame, ErrorChannel *channel) const
{
    QUEST_ASSERT(frame.numQubits() >= lattice().numQubits(),
                 "frame of %zu qubits is smaller than the lattice",
                 frame.numQubits());
    const ExtractorProgram &p = *_program;
    SyndromeRound out;
    out.xFlips.assign(p._xAncillas.size(), 0);
    out.zFlips.assign(p._zAncillas.size(), 0);

    // Noise draws from a local copy of the channel's stream, assigned
    // back at the end: frame-word stores cannot alias a local, so its
    // state stays in registers. Rates are re-read every round
    // (ErrorChannel::setRates may edit them); with no channel every
    // rate is zero, which draws nothing.
    const ErrorRates rates = channel ? channel->rates()
                                     : ErrorRates::none();
    static const sim::Rng unused_stream;
    sim::Rng rng = channel ? channel->rng() : unused_stream;
    const sim::BernoulliRate idle(rates.idle);
    const sim::BernoulliRate gate2(rates.gate2);
    const sim::BernoulliRate prep(rates.prep);
    const sim::BernoulliRate meas(rates.meas);

    // Idle decoherence: one per-data-qubit channel per round.
    for (std::size_t q : p._dataIndices)
        quantum::depolarize1(frame, q, rng, idle);

    std::uint64_t *x = frame.xPlane();
    std::uint64_t *z = frame.zPlane();
    std::size_t step = 0;
    std::size_t first = 0;
    for (const Layer &layer : p._layers) {
        // The sub-cycle's uops touch disjoint qubits, so all of its
        // gates before any of its noise equals the per-uop order.
        for (; step < layer.stepEnd; ++step)
            p.applyStep(p._steps[step], x, z);
        const Site *site = p._sites.data() + first;
        const Site *end = p._sites.data() + layer.siteEnd;
        first = layer.siteEnd;
        switch (layer.kind) {
          case Site::Kind::Prep:
            // A preparation error leaves the qubit flipped.
            for (; site != end; ++site)
                if (rng.bernoulli(prep))
                    frame.injectX(site->a);
            break;

          case Site::Kind::Cnot:
            for (; site != end; ++site)
                quantum::depolarize2(frame, site->a, site->b, rng,
                                     gate2);
            break;

          case Site::Kind::Meas:
            for (; site != end; ++site) {
                const bool flip = frame.measureZFlip(site->a)
                                  != rng.bernoulli(meas);
                (site->xAncilla ? out.xFlips
                                : out.zFlips)[site->slot] = flip ? 1 : 0;
            }
            break;
        }
    }
    if (channel)
        channel->rng() = rng;
    return out;
}

BatchSyndromeRound
SyndromeExtractor::runRoundBatch(BatchPauliFrame &frame,
                                 BatchErrorChannel *channel) const
{
    QUEST_TRACE_SCOPE("qecc", "batch_round");
    const ExtractorProgram &p = *_program;
    BatchSyndromeRound out;
    out.xFlips.assign(p._xAncillas.size(), 0);
    out.zFlips.assign(p._zAncillas.size(), 0);

    if (channel) {
        for (std::size_t q : p._dataIndices)
            channel->idle(frame, q);
    }

    // The same layers as runRound, one site (gate, then noise) at a
    // time: each lane meets its noise sites in the scalar order.
    std::size_t first = 0;
    for (const Layer &layer : p._layers) {
        for (std::size_t i = first; i < layer.siteEnd; ++i) {
            const Site &s = p._sites[i];
            switch (layer.kind) {
              case Site::Kind::Prep:
                frame.reset(s.a);
                if (channel)
                    channel->afterPrep(frame, s.a);
                break;

              case Site::Kind::Cnot:
                frame.cnot(s.a, s.b);
                if (channel)
                    channel->afterGate2(frame, s.a, s.b);
                break;

              case Site::Kind::Meas: {
                if (s.xBasis)
                    frame.h(s.a);
                std::uint64_t flips = frame.measureZFlipMask(s.a);
                if (channel)
                    flips ^= channel->measurementFlipMask();
                if (s.xAncilla)
                    out.xFlips[s.slot] = flips;
                else
                    out.zFlips[s.slot] = flips;
                break;
              }
            }
        }
        first = layer.siteEnd;
    }

    // Cycle accounting for the bit-parallel engine: how many rounds
    // ran, how many lane-trials they covered, how many word-wide
    // micro-ops were retired (one per site plus one idle channel per
    // data qubit) and how full the error planes are (integer
    // counters only — deterministic across thread counts).
    // Counters are constructor-bound members, not function-local
    // statics, so registry resets cannot strand them.
    ++_mBatchRounds;
    _mBatchLaneRounds += BatchPauliFrame::lanes;
    _mBatchWordUops += p._sites.size() + p._dataIndices.size();
    _mBatchFillBits += frame.totalErrorBits();

    return out;
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
