/**
 * @file
 * Tests for lockstep round-schedule construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "qecc/extractor.hpp"
#include "qecc/schedule.hpp"

namespace {

using namespace quest::qecc;
using quest::isa::PhysOpcode;

class ScheduleTest : public ::testing::TestWithParam<Protocol>
{
};

TEST_P(ScheduleTest, DepthMatchesProtocol)
{
    const Lattice lat = Lattice::forDistance(3);
    const ProtocolSpec &spec = protocolSpec(GetParam());
    const RoundSchedule sched = buildRoundSchedule(lat, spec);
    EXPECT_EQ(sched.depth(), spec.depth());
}

TEST_P(ScheduleTest, ValidatesStructurally)
{
    // Square, wide and odd-sized lattices, so every boundary case of
    // the per-direction CNOT sub-cycles meets the lockstep contract.
    for (const auto &[rows, cols] :
         {std::pair<std::size_t, std::size_t>{5, 5}, {9, 9}, {12, 33},
          {5, 64}, {7, 65}}) {
        const Lattice lat(rows, cols);
        EXPECT_TRUE(validateSchedule(
            buildRoundSchedule(lat, protocolSpec(GetParam()))))
            << rows << "x" << cols;
    }
}

TEST_P(ScheduleTest, EveryQubitHasASlotEverySubCycle)
{
    const Lattice lat = Lattice::forDistance(3);
    const RoundSchedule sched =
        buildRoundSchedule(lat, protocolSpec(GetParam()));
    for (std::size_t s = 0; s < sched.depth(); ++s)
        EXPECT_EQ(sched.subCycle(s).uops.size(), lat.numQubits());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ScheduleTest,
                         ::testing::Values(Protocol::Steane,
                                           Protocol::Shor,
                                           Protocol::SC17,
                                           Protocol::SC13),
                         [](const auto &info) {
                             return protocolName(info.param) == "SC-17"
                                 ? std::string("SC17")
                                 : protocolName(info.param) == "SC-13"
                                 ? std::string("SC13")
                                 : protocolName(info.param);
                         });

TEST(Schedule, SteaneStructureOnDistance3)
{
    const Lattice lat = Lattice::forDistance(3);
    const RoundSchedule sched =
        buildRoundSchedule(lat, protocolSpec(Protocol::Steane));

    // Sub-cycle 0: idle; 1: prep; 2-5: CNOTs; 6: measurement.
    EXPECT_EQ(sched.subCycle(0).stepClass, StepClass::Idle);
    EXPECT_EQ(sched.subCycle(1).stepClass, StepClass::Prep);
    for (std::size_t s = 2; s <= 5; ++s)
        EXPECT_EQ(sched.subCycle(s).stepClass, StepClass::Cnot);
    EXPECT_EQ(sched.subCycle(6).stepClass, StepClass::Meas);

    // Prep assigns PrepX to X ancillas and PrepZ to Z ancillas.
    for (const Coord c : lat.sites(SiteType::XAncilla))
        EXPECT_EQ(sched.subCycle(1).uops[lat.index(c)],
                  PhysOpcode::PrepX);
    for (const Coord c : lat.sites(SiteType::ZAncilla))
        EXPECT_EQ(sched.subCycle(1).uops[lat.index(c)],
                  PhysOpcode::PrepZ);
    // Data qubits idle during prep.
    for (const Coord c : lat.sites(SiteType::Data))
        EXPECT_EQ(sched.subCycle(1).uops[lat.index(c)],
                  PhysOpcode::Nop);
}

TEST(Schedule, InteriorAncillaTouchesAllFourNeighbours)
{
    const Lattice lat = Lattice::forDistance(5);
    const RoundSchedule sched =
        buildRoundSchedule(lat, protocolSpec(Protocol::Steane));
    // Interior X ancilla (2,3) should issue one CNOT per direction
    // across the four interaction sub-cycles.
    const std::size_t q = lat.index(Coord{2, 3});
    std::set<Direction> dirs;
    for (std::size_t s = 2; s <= 5; ++s) {
        const PhysOpcode op = sched.subCycle(s).uops[q];
        ASSERT_TRUE(quest::isa::isTwoQubit(op));
        dirs.insert(cnotDirection(op));
    }
    EXPECT_EQ(dirs.size(), 4u);
}

TEST(Schedule, ActiveUopCountScalesWithProtocol)
{
    const Lattice lat = Lattice::forDistance(3);
    const auto steane =
        buildRoundSchedule(lat, protocolSpec(Protocol::Steane));
    const auto shor =
        buildRoundSchedule(lat, protocolSpec(Protocol::Shor));
    // Shor's deeper round issues more active uops.
    EXPECT_GT(shor.activeUopCount(), steane.activeUopCount());
    EXPECT_EQ(steane.totalUopSlots(),
              steane.depth() * lat.numQubits());
}

TEST(Schedule, RejectsAQubitTouchedTwiceInOneSubCycle)
{
    // The extractor runs a sub-cycle as disjoint word-wide steps, so
    // a qubit may take part in one uop per sub-cycle: a single-qubit
    // uop on a CNOT's data partner breaks the contract.
    const Lattice lat = Lattice::forDistance(3);
    RoundSchedule sched =
        buildRoundSchedule(lat, protocolSpec(Protocol::Steane));
    const RoundSchedule good = sched;
    SyndromeExtractor extractor(sched);

    const Coord ancilla{0, 1}; // X ancilla, data partner (1, 1) south
    ASSERT_EQ(lat.siteType(ancilla), SiteType::XAncilla);
    const Coord partner{1, 1};
    ASSERT_TRUE(lat.isData(partner));

    RoundSchedule bad(lat, good.spec());
    for (std::size_t s = 0; s < good.depth(); ++s) {
        SubCycle sc = good.subCycle(s);
        if (sc.uops[lat.index(ancilla)] == PhysOpcode::CnotS)
            sc.uops[lat.index(partner)] = PhysOpcode::Hadamard;
        bad.addSubCycle(std::move(sc));
    }
    EXPECT_FALSE(validateSchedule(bad));

    sched = bad;
    EXPECT_THROW(extractor.recompile(), quest::sim::SimError);
    EXPECT_THROW(SyndromeExtractor{bad}, quest::sim::SimError);

    // Two CNOTs sharing a data partner break it the same way.
    RoundSchedule shared(lat, good.spec());
    for (std::size_t s = 0; s < good.depth(); ++s) {
        SubCycle sc = good.subCycle(s);
        if (sc.uops[lat.index(ancilla)] == PhysOpcode::CnotS)
            sc.uops[lat.index(Coord{1, 0})] = PhysOpcode::CnotTargetE;
        shared.addSubCycle(std::move(sc));
    }
    EXPECT_FALSE(validateSchedule(shared));

    sched = good;
    extractor.recompile();
}

TEST(Schedule, RejectsMixedWorkInOneSubCycle)
{
    // A sub-cycle holds preparations, CNOTs or measurements, never
    // two of them: the extractor runs its noise sites as one kind.
    const Lattice lat = Lattice::forDistance(3);
    const RoundSchedule good =
        buildRoundSchedule(lat, protocolSpec(Protocol::Steane));
    const auto hasCnot = [](const SubCycle &sc) {
        return std::any_of(sc.uops.begin(), sc.uops.end(),
                           quest::isa::isTwoQubit);
    };
    std::size_t cnot_step = 0;
    while (!hasCnot(good.subCycle(cnot_step)))
        ++cnot_step;

    // Put `op` on an ancilla the CNOT sub-cycle leaves idle.
    const auto withUop = [&](std::size_t q, PhysOpcode op) {
        RoundSchedule out(lat, good.spec());
        for (std::size_t s = 0; s < good.depth(); ++s) {
            SubCycle sc = good.subCycle(s);
            if (s == cnot_step)
                sc.uops[q] = op;
            out.addSubCycle(std::move(sc));
        }
        return out;
    };
    std::size_t idle = lat.numQubits();
    for (std::size_t q = 0; q < lat.numQubits(); ++q)
        if (lat.isAncilla(lat.coord(q))
            && good.subCycle(cnot_step).uops[q] == PhysOpcode::Nop
            && validateSchedule(withUop(q, PhysOpcode::Verify))) {
            idle = q;
            break;
        }
    ASSERT_LT(idle, lat.numQubits());

    // A timing-only slot may join; a preparation or measurement may
    // not.
    EXPECT_NO_THROW(SyndromeExtractor{withUop(idle, PhysOpcode::Verify)});
    for (const PhysOpcode op : {PhysOpcode::PrepZ, PhysOpcode::MeasZ}) {
        const RoundSchedule bad = withUop(idle, op);
        EXPECT_FALSE(validateSchedule(bad));
        EXPECT_THROW(SyndromeExtractor{bad}, quest::sim::SimError);
    }
}

TEST(Schedule, CnotOpcodeDirectionRoundTrip)
{
    for (Direction d : allDirections) {
        EXPECT_EQ(cnotDirection(cnotOpcode(d)), d);
        EXPECT_EQ(cnotDirection(cnotTargetOpcode(d)), d);
    }
}

} // namespace
