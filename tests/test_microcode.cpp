/**
 * @file
 * Tests for the microcode memory designs: the Figure-10 capacity
 * curves, the Figure-11 serviced-qubit counts, and the Table-2
 * optimal configuration search.
 */

#include <gtest/gtest.h>

#include "core/microcode.hpp"
#include "sim/logging.hpp"

namespace {

using namespace quest::core;
using quest::qecc::Protocol;
using quest::qecc::protocolSpec;
using quest::tech::MemoryConfig;
using quest::tech::Technology;

class MicrocodeTest : public ::testing::Test
{
  protected:
    MicrocodeTest()
        : model(protocolSpec(Protocol::Steane),
                Technology::ProjectedD)
    {}

    MicrocodeModel model;
};

TEST_F(MicrocodeTest, CapacityScalingShapes)
{
    // Figure 10: RAM O(N log N), FIFO O(N), unit-cell O(1).
    const std::size_t n1 = 64, n2 = 256;
    const double ram_growth =
        double(model.capacityBits(MicrocodeDesign::Ram, n2))
        / double(model.capacityBits(MicrocodeDesign::Ram, n1));
    const double fifo_growth =
        double(model.capacityBits(MicrocodeDesign::Fifo, n2))
        / double(model.capacityBits(MicrocodeDesign::Fifo, n1));
    EXPECT_GT(ram_growth, 4.0);  // super-linear
    EXPECT_DOUBLE_EQ(fifo_growth, 4.0); // linear
    EXPECT_EQ(model.capacityBits(MicrocodeDesign::UnitCell, n1),
              model.capacityBits(MicrocodeDesign::UnitCell, n2));
}

TEST_F(MicrocodeTest, FifoDropsAddressBits)
{
    // Section 4.5: FIFO improves scalability "by 3 to 4 times".
    const std::size_t n = 100;
    const double ratio =
        double(model.capacityBits(MicrocodeDesign::Ram, n))
        / double(model.capacityBits(MicrocodeDesign::Fifo, n));
    EXPECT_GE(ratio, 2.5);
    EXPECT_LE(ratio, 4.5);
}

TEST_F(MicrocodeTest, CapacityLimitsAt4KbMatchFigure11)
{
    // Figure 11 at a fixed 4 Kb: RAM ~48 qubits, FIFO ~120.
    const std::size_t ram =
        model.capacityLimitedQubits(MicrocodeDesign::Ram, 4096);
    const std::size_t fifo =
        model.capacityLimitedQubits(MicrocodeDesign::Fifo, 4096);
    EXPECT_GE(ram, 40u);
    EXPECT_LE(ram, 56u);
    EXPECT_GE(fifo, 100u);
    EXPECT_LE(fifo, 128u);
    // Unit cell: capacity never binds once the program fits.
    EXPECT_GT(model.capacityLimitedQubits(MicrocodeDesign::UnitCell,
                                          4096),
              1u << 20);
}

TEST_F(MicrocodeTest, RamAndFifoInsensitiveToChannels)
{
    // Figure 11: adding channels does not help capacity-bound
    // designs.
    for (MicrocodeDesign d :
         { MicrocodeDesign::Ram, MicrocodeDesign::Fifo }) {
        const std::size_t one =
            model.servicedQubits(d, MemoryConfig{1, 4096});
        const std::size_t four =
            model.servicedQubits(d, MemoryConfig{4, 1024});
        EXPECT_EQ(one, four) << microcodeDesignName(d);
    }
}

TEST_F(MicrocodeTest, UnitCellScalesWithChannels)
{
    // Figure 11: the unit-cell design is bandwidth-bound, so more
    // channels mean more serviced qubits -- super-linearly, because
    // smaller banks are also faster (Section 4.5).
    const std::size_t one = model.servicedQubits(
        MicrocodeDesign::UnitCell, MemoryConfig{1, 4096});
    const std::size_t two = model.servicedQubits(
        MicrocodeDesign::UnitCell, MemoryConfig{2, 2048});
    const std::size_t four = model.servicedQubits(
        MicrocodeDesign::UnitCell, MemoryConfig{4, 1024});
    EXPECT_GT(two, one);
    EXPECT_GT(four, two);
    // The 6x bandwidth jump from Section 4.5.
    EXPECT_NEAR(double(four) / double(one), 6.0, 0.1);
}

TEST_F(MicrocodeTest, UnitCellBeatsRamByAboutNinetyTimes)
{
    // Section 1: "each MCE can support about 90x more qubits than
    // the unoptimized design". Exact multiple depends on technology;
    // assert the order of magnitude.
    const std::size_t ram = model.servicedQubits(
        MicrocodeDesign::Ram, MemoryConfig{4, 1024});
    const std::size_t cell = model.servicedQubits(
        MicrocodeDesign::UnitCell, MemoryConfig{4, 1024});
    const double gain = double(cell) / double(ram);
    EXPECT_GE(gain, 30.0);
    EXPECT_LE(gain, 300.0);
}

TEST(MicrocodeTable2, OptimalConfigsMatchPaper)
{
    // Table 2's "Optimal uCode Configuration" column.
    using quest::qecc::protocolSpec;
    const quest::tech::JJMemoryModel mem;

    struct Row
    {
        Protocol proto;
        MemoryConfig config;
        std::uint64_t jjs;
        double power;
    };
    const Row rows[] = {
        { Protocol::Steane, MemoryConfig{4, 1024}, 170048, 2.1 },
        { Protocol::Shor, MemoryConfig{2, 2048}, 168264, 1.1 },
        { Protocol::SC17, MemoryConfig{8, 512}, 163472, 5.6 },
        { Protocol::SC13, MemoryConfig{4, 1024}, 170048, 2.1 },
    };
    for (const Row &row : rows) {
        const MicrocodeModel model(protocolSpec(row.proto),
                                   Technology::ProjectedD);
        const MemoryConfig best = model.optimalConfig(4096);
        EXPECT_EQ(best, row.config)
            << protocolSpec(row.proto).name << " got "
            << best.toString();
        EXPECT_EQ(mem.jjCount(best), row.jjs)
            << protocolSpec(row.proto).name;
        EXPECT_NEAR(mem.powerUw(best), row.power, 1e-9)
            << protocolSpec(row.proto).name;
    }
}

TEST(MicrocodeTable2, OptimalConfigNeedsOneUnitCellProgram)
{
    // Every bank holds a full program copy, so the single-channel
    // configuration of unitCellProgramBits() is the smallest that
    // fits; one bit less leaves no candidate (the CLI refuses such a
    // --capacity before asking).
    quest::sim::setQuiet(true);
    for (const Protocol p : quest::qecc::allProtocols) {
        const MicrocodeModel model(protocolSpec(p),
                                   Technology::ProjectedD);
        const std::size_t bits = model.unitCellProgramBits();
        EXPECT_EQ(model.optimalConfig(bits), (MemoryConfig{1, bits}))
            << protocolSpec(p).name;
        EXPECT_THROW(model.optimalConfig(bits - 1),
                     quest::sim::SimError)
            << protocolSpec(p).name;
    }
    quest::sim::setQuiet(false);
}

TEST(MicrocodeFigure16, ThroughputOrderings)
{
    // Figure 16: slower technologies leave more time to stream, so
    // ExperimentalS services the most qubits per MCE; the compact
    // SC codes beat Shor's deeper round at fixed technology.
    const MemoryConfig cfg{4, 1024};
    const auto serviced = [&](Protocol p, Technology t) {
        const MicrocodeModel m(protocolSpec(p), t);
        return m.servicedQubits(MicrocodeDesign::UnitCell, cfg);
    };

    EXPECT_GT(serviced(Protocol::Steane, Technology::ExperimentalS),
              serviced(Protocol::Steane, Technology::ProjectedF));
    EXPECT_GT(serviced(Protocol::Steane, Technology::ProjectedF),
              serviced(Protocol::Steane, Technology::ProjectedD));

    for (Technology t :
         { Technology::ExperimentalS, Technology::ProjectedD }) {
        EXPECT_GT(serviced(Protocol::SC17, t),
                  serviced(Protocol::Shor, t));
    }
}

TEST(Microcode, DesignNames)
{
    EXPECT_EQ(microcodeDesignName(MicrocodeDesign::Ram), "RAM");
    EXPECT_EQ(microcodeDesignName(MicrocodeDesign::Fifo), "FIFO");
    EXPECT_EQ(microcodeDesignName(MicrocodeDesign::UnitCell),
              "Unit-cell");
}

TEST(Microcode, UnitCellProgramMustFitTotalCapacity)
{
    // A capacity too small even for the unit-cell program services
    // nothing.
    const MicrocodeModel model(protocolSpec(Protocol::Shor),
                               Technology::ProjectedD);
    // Shor program: 300 uops x 4 bits = 1200 bits > 1 Kb.
    EXPECT_EQ(model.capacityLimitedQubits(MicrocodeDesign::UnitCell,
                                          1024),
              0u);
}

} // namespace
