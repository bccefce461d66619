/**
 * @file
 * Tests for the two-level decoder pipeline and its bus accounting.
 */

#include <gtest/gtest.h>

#include "decode/pipeline.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::PauliFrame;

class PipelineTest : public ::testing::Test
{
  protected:
    PipelineTest()
        : exp(5), pipeline(lattice)
    {}

    DetectionEvents
    eventsFor(PauliFrame &frame)
    {
        const auto history = extractor.runRounds(frame, nullptr, 1);
        return extractDetectionEvents(history, extractor);
    }

    MemoryExperiment exp;
    const Lattice &lattice = exp.lattice();
    const SyndromeExtractor &extractor = exp.extractor();
    DecoderPipeline pipeline;
};

TEST_F(PipelineTest, IsolatedErrorStaysLocal)
{
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    const Correction corr = pipeline.decode(eventsFor(frame));
    EXPECT_EQ(corr.weight(), 1u);
    EXPECT_DOUBLE_EQ(pipeline.localCoverage(), 1.0);
    EXPECT_DOUBLE_EQ(pipeline.busBytes(), 0.0);
}

TEST_F(PipelineTest, ChainsGenerateBusTraffic)
{
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    frame.injectX(lattice.index(Coord{3, 5}));
    pipeline.decode(eventsFor(frame));
    EXPECT_GT(pipeline.busBytes(), 0.0);
    EXPECT_LT(pipeline.localCoverage(), 1.0);
}

TEST_F(PipelineTest, CombinedCorrectionClearsSyndrome)
{
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    frame.injectX(lattice.index(Coord{3, 5}));
    frame.injectZ(lattice.index(Coord{5, 5}));
    const Correction corr = pipeline.decode(eventsFor(frame));
    applyCorrection(frame, corr);
    EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
}

TEST_F(PipelineTest, StatsAccumulateAcrossDecodes)
{
    std::size_t total = 0;
    for (int i = 0; i < 3; ++i) {
        PauliFrame frame(lattice.numQubits());
        frame.injectX(lattice.index(Coord{3, 3}));
        const DetectionEvents events = eventsFor(frame);
        total += events.total();
        pipeline.decode(events);
    }
    EXPECT_EQ(total, 6u);
    EXPECT_DOUBLE_EQ(pipeline.localCoverage(), 1.0);
    EXPECT_DOUBLE_EQ(pipeline.busBytes(), 0.0);

    // A chain forwards part of its events: the bus bytes count them,
    // and the coverage is taken over all four decodes' events.
    PauliFrame chain(lattice.numQubits());
    chain.injectX(lattice.index(Coord{3, 3}));
    chain.injectX(lattice.index(Coord{3, 5}));
    const DetectionEvents events = eventsFor(chain);
    total += events.total();
    pipeline.decode(events);
    const double forwarded =
        pipeline.busBytes() / double(detectionEventBytes);
    ASSERT_GT(forwarded, 0.0);
    EXPECT_DOUBLE_EQ(pipeline.localCoverage(),
                     (double(total) - forwarded) / double(total));
}

TEST_F(PipelineTest, EachPipelineKeepsItsOwnCounts)
{
    // Every tile owns a pipeline; the `decode.pipeline.*` rows sum
    // them while each pipeline's coverage stays its own.
    auto &reg = quest::sim::metrics::Registry::global();
    DecoderPipeline other(lattice);
    auto &local = reg.counter("decode.pipeline.events_local", "");
    auto &bytes = reg.counter("decode.pipeline.syndrome_bus_bytes", "");
    const std::uint64_t local0 = local.value();
    const std::uint64_t bytes0 = bytes.value();

    PauliFrame isolated(lattice.numQubits());
    isolated.injectX(lattice.index(Coord{3, 3}));
    const DetectionEvents easy = eventsFor(isolated);
    pipeline.decode(easy);

    PauliFrame chain(lattice.numQubits());
    chain.injectX(lattice.index(Coord{3, 3}));
    chain.injectX(lattice.index(Coord{3, 5}));
    const DetectionEvents hard = eventsFor(chain);
    other.decode(hard);

    EXPECT_DOUBLE_EQ(pipeline.localCoverage(), 1.0);
    EXPECT_DOUBLE_EQ(pipeline.busBytes(), 0.0);
    EXPECT_LT(other.localCoverage(), 1.0);
    EXPECT_GT(other.busBytes(), 0.0);

    const double forwarded = other.busBytes() / double(detectionEventBytes);
    const double local_events = double(easy.total())
                                + double(hard.total()) - forwarded;
    EXPECT_EQ(double(local.value() - local0), local_events);
    EXPECT_EQ(double(bytes.value() - bytes0), other.busBytes());
}

} // namespace
