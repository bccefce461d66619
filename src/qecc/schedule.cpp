#include "schedule.hpp"

#include "sim/logging.hpp"

namespace quest::qecc {

using isa::PhysOpcode;

std::size_t
RoundSchedule::activeUopCount() const
{
    std::size_t n = 0;
    for (const auto &sc : _subCycles)
        for (PhysOpcode op : sc.uops)
            if (op != PhysOpcode::Nop)
                ++n;
    return n;
}

Direction
cnotDirection(PhysOpcode op)
{
    switch (op) {
      case PhysOpcode::CnotN:
      case PhysOpcode::CnotTargetN:
        return Direction::North;
      case PhysOpcode::CnotE:
      case PhysOpcode::CnotTargetE:
        return Direction::East;
      case PhysOpcode::CnotS:
      case PhysOpcode::CnotTargetS:
        return Direction::South;
      case PhysOpcode::CnotW:
      case PhysOpcode::CnotTargetW:
        return Direction::West;
      default:
        sim::panic("opcode %s has no direction",
                   isa::physOpcodeName(op).c_str());
    }
}

PhysOpcode
cnotOpcode(Direction dir)
{
    switch (dir) {
      case Direction::North: return PhysOpcode::CnotN;
      case Direction::East: return PhysOpcode::CnotE;
      case Direction::South: return PhysOpcode::CnotS;
      case Direction::West: return PhysOpcode::CnotW;
    }
    sim::panic("invalid direction %d", int(dir));
}

PhysOpcode
cnotTargetOpcode(Direction dir)
{
    switch (dir) {
      case Direction::North: return PhysOpcode::CnotTargetN;
      case Direction::East: return PhysOpcode::CnotTargetE;
      case Direction::South: return PhysOpcode::CnotTargetS;
      case Direction::West: return PhysOpcode::CnotTargetW;
    }
    sim::panic("invalid direction %d", int(dir));
}

namespace {

/** All-NOP sub-cycle of the right width. */
SubCycle
blankSubCycle(const Lattice &lattice, StepClass cls)
{
    return SubCycle{cls,
        std::vector<PhysOpcode>(lattice.numQubits(), PhysOpcode::Nop)};
}

/** Preparation sub-cycle: |+> on X ancillas, |0> on Z ancillas. */
SubCycle
prepSubCycle(const Lattice &lattice)
{
    SubCycle sc = blankSubCycle(lattice, StepClass::Prep);
    for (const Coord c : lattice.sites(SiteType::XAncilla))
        sc.uops[lattice.index(c)] = PhysOpcode::PrepX;
    for (const Coord c : lattice.sites(SiteType::ZAncilla))
        sc.uops[lattice.index(c)] = PhysOpcode::PrepZ;
    return sc;
}

/**
 * One CNOT interaction sub-cycle in direction `dir`: every X
 * ancilla acts as control towards its data neighbour, every Z
 * ancilla as target from its data neighbour. X and Z ancillas touch
 * disjoint data sublattices within a direction, so no data qubit is
 * contended.
 */
SubCycle
cnotSubCycle(const Lattice &lattice, Direction dir)
{
    SubCycle sc = blankSubCycle(lattice, StepClass::Cnot);
    for (const Coord c : lattice.sites(SiteType::XAncilla)) {
        if (auto n = lattice.neighbour(c, dir); n && lattice.isData(*n))
            sc.uops[lattice.index(c)] = cnotOpcode(dir);
    }
    for (const Coord c : lattice.sites(SiteType::ZAncilla)) {
        if (auto n = lattice.neighbour(c, dir); n && lattice.isData(*n))
            sc.uops[lattice.index(c)] = cnotTargetOpcode(dir);
    }
    return sc;
}

/** Measurement sub-cycle: X basis on X ancillas, Z on Z ancillas. */
SubCycle
measSubCycle(const Lattice &lattice)
{
    SubCycle sc = blankSubCycle(lattice, StepClass::Meas);
    for (const Coord c : lattice.sites(SiteType::XAncilla))
        sc.uops[lattice.index(c)] = PhysOpcode::MeasX;
    for (const Coord c : lattice.sites(SiteType::ZAncilla))
        sc.uops[lattice.index(c)] = PhysOpcode::MeasZ;
    return sc;
}

/** Cat-state verification sub-cycle (Shor-style extraction). */
SubCycle
verifySubCycle(const Lattice &lattice)
{
    SubCycle sc = blankSubCycle(lattice, StepClass::Cnot);
    for (const Coord c : lattice.sites(SiteType::XAncilla))
        sc.uops[lattice.index(c)] = PhysOpcode::Verify;
    for (const Coord c : lattice.sites(SiteType::ZAncilla))
        sc.uops[lattice.index(c)] = PhysOpcode::Verify;
    return sc;
}

/** Hadamard dressing sub-cycle (SC-13 CZ-based extraction). */
SubCycle
hadamardSubCycle(const Lattice &lattice)
{
    SubCycle sc = blankSubCycle(lattice, StepClass::Gate1);
    for (const Coord c : lattice.sites(SiteType::XAncilla))
        sc.uops[lattice.index(c)] = PhysOpcode::Hadamard;
    return sc;
}

/** Number of steps of a given class in a protocol. */
std::size_t
countSteps(const ProtocolSpec &spec, StepClass cls)
{
    std::size_t n = 0;
    for (StepClass s : spec.steps)
        if (s == cls)
            ++n;
    return n;
}

/**
 * Preparation (1), CNOT (2) or measurement (3): the uops that
 * evolve the frame, of which a sub-cycle holds one kind. Timing-only
 * uops (Nop, Hadamard/Phase dressing, Verify) are 0.
 */
int
workClass(PhysOpcode op)
{
    if (op == PhysOpcode::PrepZ || op == PhysOpcode::PrepX)
        return 1;
    if (isa::isTwoQubit(op))
        return 2;
    return isa::isMeasurement(op) ? 3 : 0;
}

} // namespace

RoundSchedule
buildRoundSchedule(const Lattice &lattice, const ProtocolSpec &spec)
{
    RoundSchedule sched(lattice, spec);

    // The four interaction directions. Order N, W, E, S keeps each
    // data qubit's interactions serialized across sub-cycles.
    static constexpr Direction order[] = {
        Direction::North, Direction::West, Direction::East,
        Direction::South,
    };

    // The *last* four CNOT steps are the syndrome interactions; any
    // earlier interaction steps are cat-state construction/checks
    // (Shor-style extraction), modelled as verify slots. Likewise
    // only the final measurement step reads the syndrome.
    const std::size_t total_cnots = countSteps(spec, StepClass::Cnot);
    const std::size_t total_meas = countSteps(spec, StepClass::Meas);
    QUEST_ASSERT(total_cnots >= 4,
                 "protocol %s needs at least 4 interaction steps",
                 spec.name.c_str());
    QUEST_ASSERT(total_meas >= 1, "protocol %s needs a measurement step",
                 spec.name.c_str());

    std::size_t cnot_seen = 0;
    std::size_t meas_seen = 0;
    for (StepClass cls : spec.steps) {
        switch (cls) {
          case StepClass::Idle:
            sched.addSubCycle(blankSubCycle(lattice, StepClass::Idle));
            break;
          case StepClass::Prep:
            sched.addSubCycle(prepSubCycle(lattice));
            break;
          case StepClass::Gate1:
            sched.addSubCycle(hadamardSubCycle(lattice));
            break;
          case StepClass::Cnot:
            ++cnot_seen;
            if (cnot_seen + 4 > total_cnots) {
                const std::size_t k = cnot_seen + 4 - total_cnots - 1;
                sched.addSubCycle(cnotSubCycle(lattice, order[k]));
            } else {
                sched.addSubCycle(verifySubCycle(lattice));
            }
            break;
          case StepClass::Meas:
            ++meas_seen;
            if (meas_seen == total_meas)
                sched.addSubCycle(measSubCycle(lattice));
            else
                sched.addSubCycle(verifySubCycle(lattice));
            break;
        }
    }
    return sched;
}

bool
validateSchedule(const RoundSchedule &schedule)
{
    const Lattice &lattice = schedule.lattice();
    for (std::size_t s = 0; s < schedule.depth(); ++s) {
        const SubCycle &sc = schedule.subCycle(s);
        if (sc.uops.size() != lattice.numQubits())
            return false;

        // Every qubit a uop addresses -- its own slot, plus the
        // partner of a CNOT -- may be touched once per sub-cycle.
        std::vector<std::uint8_t> touched(lattice.numQubits(), 0);
        const auto touch = [&](std::size_t q) {
            if (touched[q])
                return false;
            touched[q] = 1;
            return true;
        };
        // ... and one kind of work runs per sub-cycle.
        int sub_cycle_class = 0;
        for (std::size_t q = 0; q < sc.uops.size(); ++q) {
            const PhysOpcode op = sc.uops[q];
            if (op == PhysOpcode::Nop)
                continue;
            if (!touch(q))
                return false;
            if (const int cls = workClass(op); cls != 0) {
                if (sub_cycle_class != 0 && cls != sub_cycle_class)
                    return false;
                sub_cycle_class = cls;
            }
            if (!isa::isTwoQubit(op))
                continue;
            const Coord c = lattice.coord(q);
            const auto n = lattice.neighbour(c, cnotDirection(op));
            if (!n || !lattice.isData(*n) || !touch(lattice.index(*n)))
                return false;
        }
    }
    return true;
}

} // namespace quest::qecc
