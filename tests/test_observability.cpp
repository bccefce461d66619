/**
 * @file
 * Unit tests for the observability layer: sim/trace.hpp (scoped
 * event tracing, ring buffers, count digests, Chrome export) and
 * sim/metrics.hpp (registry, counters, gauges, histograms, tallies).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "decode/pipeline.hpp"
#include "decode/streaming.hpp"
#include "qecc/memory_experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace {

using namespace quest::sim;
using metrics::Registry;
using metrics::Stability;

/** Every tracer test starts disabled with empty buffers. */
class TracerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer::instance().setEnabled(false);
        Tracer::instance().clear();
    }

    void TearDown() override { SetUp(); }
};

TEST(TraceBuffer, RecordsAndCounts)
{
    TraceBuffer buf(8, 0);
    buf.push("cat", "a", 10, 5);
    buf.push("cat", "b", 20, 1);
    buf.push("cat", "a", 30, 2);
    EXPECT_EQ(buf.recorded(), 3u);
    EXPECT_EQ(buf.dropped(), 0u);

    std::size_t seen = 0;
    buf.visitResident([&](const TraceEvent &e) {
        ++seen;
        EXPECT_STREQ(e.category, "cat");
    });
    EXPECT_EQ(seen, 3u);

    const auto &counts = buf.counts();
    EXPECT_EQ(counts.at({"cat", "a"}), 2u);
    EXPECT_EQ(counts.at({"cat", "b"}), 1u);
}

TEST(TraceBuffer, WrapDropsOldestButKeepsCounting)
{
    TraceBuffer buf(4, 0);
    for (std::uint64_t i = 0; i < 6; ++i)
        buf.push("cat", "e", i, 0);
    EXPECT_EQ(buf.recorded(), 6u);
    EXPECT_EQ(buf.dropped(), 2u);

    // Resident events are the most recent 4, oldest first.
    std::vector<std::uint64_t> starts;
    buf.visitResident([&](const TraceEvent &e) {
        starts.push_back(e.startNs);
    });
    EXPECT_EQ(starts, (std::vector<std::uint64_t>{2, 3, 4, 5}));

    // The per-name count reflects the whole run, not the ring.
    EXPECT_EQ(buf.counts().at({"cat", "e"}), 6u);
}

TEST(TraceBuffer, ClearZeroesInPlace)
{
    TraceBuffer buf(4, 0);
    buf.push("cat", "e", 1, 1);
    buf.clear();
    EXPECT_EQ(buf.recorded(), 0u);
    EXPECT_TRUE(buf.counts().empty());
}

TEST_F(TracerTest, ScopeRecordsNothingWhileDisabled)
{
    {
        QUEST_TRACE_SCOPE("test", "disabled_scope");
    }
    EXPECT_TRUE(Tracer::instance().eventCounts().empty());
    EXPECT_EQ(Tracer::instance().countDigest(), emptyTraceDigest);
}

TEST_F(TracerTest, ScopeRecordsWhenEnabled)
{
    Tracer::instance().setEnabled(true);
    {
        QUEST_TRACE_SCOPE("test", "enabled_scope");
    }
    {
        QUEST_TRACE_SCOPE("test", "enabled_scope");
    }
    Tracer::instance().setEnabled(false);

    const auto counts = Tracer::instance().eventCounts();
    EXPECT_EQ(counts.at("test:enabled_scope"), 2u);
    EXPECT_NE(Tracer::instance().countDigest(), emptyTraceDigest);
}

TEST_F(TracerTest, DigestDependsOnCountsOnly)
{
    Tracer::instance().setEnabled(true);
    {
        QUEST_TRACE_SCOPE("test", "digest_scope");
    }
    const std::uint64_t first = Tracer::instance().countDigest();

    Tracer::instance().clear();
    {
        QUEST_TRACE_SCOPE("test", "digest_scope");
    }
    const std::uint64_t second = Tracer::instance().countDigest();
    Tracer::instance().setEnabled(false);

    // Same event fired the same number of times: identical digest
    // even though the timestamps differ.
    EXPECT_EQ(first, second);

    // One more fire: different digest.
    Tracer::instance().setEnabled(true);
    {
        QUEST_TRACE_SCOPE("test", "digest_scope");
    }
    Tracer::instance().setEnabled(false);
    EXPECT_NE(Tracer::instance().countDigest(), first);
}

TEST_F(TracerTest, ChromeExportIsWellFormed)
{
    Tracer::instance().setEnabled(true);
    {
        QUEST_TRACE_SCOPE("test", "export_scope");
    }
    Tracer::instance().setEnabled(false);

    std::ostringstream os;
    Tracer::instance().exportChromeTrace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"export_scope\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TracerTest, DisabledTracerExportsEmptyTrace)
{
    // A quiescent tracer produces a loadable, empty Chrome trace
    // and the canonical empty digest.
    std::ostringstream os;
    Tracer::instance().exportChromeTrace(os);
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(Tracer::instance().countDigest(), emptyTraceDigest);
    EXPECT_EQ(Tracer::instance().droppedEvents(), 0u);
}

TEST(MetricsCounter, AccumulatesAndResets)
{
    metrics::Counter c;
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsCounter, ConcurrentAddsSumExactly)
{
    // Decode workers bump shared counters from many threads; relaxed
    // adds must still lose nothing.
    metrics::Counter c;
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&c, t] {
            for (int i = 0; i < 10000; ++i)
                c.add(std::uint64_t(t + 1));
        });
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(c.value(), 10000u * (1 + 2 + 3 + 4));
}

TEST(MetricsGauge, LastWriteWinsAndResets)
{
    metrics::Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(2.5);
    g.set(-0.125);
    EXPECT_EQ(g.value(), -0.125);
    g.reset();
    EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsHistogram, EmptyPercentileIsDefinedSentinel)
{
    metrics::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    // The regression this guards: percentile on an empty histogram
    // must return the documented sentinel, not read out of bounds.
    EXPECT_TRUE(std::isnan(h.percentile(0.0)));
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
    EXPECT_TRUE(std::isnan(h.percentile(1.0)));
    EXPECT_EQ(h.minSample(), 0u);
    EXPECT_EQ(h.maxSample(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(MetricsHistogram, SingleSamplePercentileIsThatSample)
{
    metrics::Histogram h;
    h.record(37);
    EXPECT_EQ(h.count(), 1u);
    for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_EQ(h.percentile(q), 37.0) << "q=" << q;
}

TEST(MetricsHistogram, BucketsMinMaxMean)
{
    metrics::Histogram h;
    h.record(0);
    h.record(1);
    h.record(100, 2);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 201u);
    EXPECT_EQ(h.minSample(), 0u);
    EXPECT_EQ(h.maxSample(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 201.0 / 4.0);
    // Percentiles resolve to bucket bounds clamped to [min, max].
    EXPECT_EQ(h.percentile(1.0), 100.0);
    EXPECT_LE(h.percentile(0.25), 1.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
}

TEST(MetricsHistogram, WeightedRecordMatchesRepeatedSamples)
{
    metrics::Histogram weighted;
    metrics::Histogram repeated;
    weighted.record(12, 5);
    weighted.record(3, 2);
    weighted.record(99, 0); // a zero weight records nothing
    for (int i = 0; i < 5; ++i)
        repeated.record(12);
    repeated.record(3);
    repeated.record(3);

    EXPECT_EQ(weighted.count(), repeated.count());
    EXPECT_EQ(weighted.sum(), repeated.sum());
    EXPECT_EQ(weighted.minSample(), repeated.minSample());
    EXPECT_EQ(weighted.maxSample(), repeated.maxSample());
    EXPECT_EQ(weighted.maxSample(), 12u);
    for (std::size_t i = 0; i < metrics::Histogram::numBuckets; ++i)
        EXPECT_EQ(weighted.bucketCount(i), repeated.bucketCount(i))
            << "bucket " << i;
    for (const double q : {0.0, 0.3, 0.5, 1.0})
        EXPECT_EQ(weighted.percentile(q), repeated.percentile(q))
            << "q=" << q;
}

TEST(MetricsHistogram, PercentileIsMonotoneAndClamped)
{
    metrics::Histogram h;
    for (std::uint64_t v = 5; v <= 500; v += 5)
        h.record(v);
    double last = h.percentile(0.0);
    EXPECT_GE(last, 5.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double p = h.percentile(q);
        EXPECT_GE(p, last) << "q=" << q;
        EXPECT_LE(p, 500.0) << "q=" << q;
        last = p;
    }
    // Out-of-range quantiles clamp to the observed extremes rather
    // than reading past either end of the bucket array.
    EXPECT_EQ(h.percentile(-1.0), h.percentile(0.0));
    EXPECT_EQ(h.percentile(2.0), 500.0);
}

TEST(MetricsHistogram, BucketIsTheSampleBitWidth)
{
    metrics::Histogram h;
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    for (const std::uint64_t v : {std::uint64_t(0), std::uint64_t(1),
                                  std::uint64_t(2), std::uint64_t(3),
                                  std::uint64_t(4), top})
        h.record(v);
    EXPECT_EQ(h.bucketCount(0), 1u);  // 0
    EXPECT_EQ(h.bucketCount(1), 1u);  // 1
    EXPECT_EQ(h.bucketCount(2), 2u);  // 2, 3
    EXPECT_EQ(h.bucketCount(3), 1u);  // 4
    EXPECT_EQ(h.bucketCount(64), 1u); // the largest sample
    EXPECT_EQ(h.minSample(), 0u);
    EXPECT_EQ(h.maxSample(), top);
    EXPECT_EQ(h.percentile(1.0), double(top));
}

TEST(MetricsHistogram, ConcurrentRecordingIsOrderIndependent)
{
    // The golden snapshot is byte-identical across thread counts
    // only if interleaved recording lands in the same state as a
    // serial pass over the same samples.
    metrics::Histogram serial;
    for (std::uint64_t t = 0; t < 4; ++t)
        for (std::uint64_t i = 0; i < 2000; ++i)
            serial.record(i * (t + 1) % 1013);

    metrics::Histogram shared;
    std::vector<std::thread> workers;
    for (std::uint64_t t = 0; t < 4; ++t)
        workers.emplace_back([&shared, t] {
            for (std::uint64_t i = 0; i < 2000; ++i)
                shared.record(i * (t + 1) % 1013);
        });
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(shared.count(), serial.count());
    EXPECT_EQ(shared.sum(), serial.sum());
    EXPECT_EQ(shared.minSample(), serial.minSample());
    EXPECT_EQ(shared.maxSample(), serial.maxSample());
    for (std::size_t i = 0; i < metrics::Histogram::numBuckets; ++i)
        EXPECT_EQ(shared.bucketCount(i), serial.bucketCount(i))
            << "bucket " << i;
}

TEST(MetricsRegistry, ReturnsStableReferences)
{
    auto &reg = Registry::global();
    metrics::Counter &a =
        reg.counter("test.registry.stable", "test counter");
    metrics::Counter &b =
        reg.counter("test.registry.stable", "test counter");
    EXPECT_EQ(&a, &b);
    a.reset();
    ++b;
    EXPECT_EQ(a.value(), 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndDeterministic)
{
    auto &reg = Registry::global();
    reg.counter("test.snapshot.zz", "later name").reset();
    reg.counter("test.snapshot.aa", "earlier name").reset();
    reg.counter("test.snapshot.aa", "earlier name") += 7;

    const std::string snap = metricsSnapshot();
    const auto pos_a = snap.find("test.snapshot.aa 7\n");
    const auto pos_z = snap.find("test.snapshot.zz 0\n");
    ASSERT_NE(pos_a, std::string::npos);
    ASSERT_NE(pos_z, std::string::npos);
    EXPECT_LT(pos_a, pos_z);
    EXPECT_EQ(snap, metricsSnapshot());
}

TEST(MetricsRegistry, WallclockExcludedFromDefaultSnapshot)
{
    auto &reg = Registry::global();
    auto &wall = reg.gauge("test.wallclock.latency",
                           "host-timing gauge",
                           Stability::Wallclock);
    wall.set(123.0);
    EXPECT_EQ(metricsSnapshot().find("test.wallclock.latency"),
              std::string::npos);
    EXPECT_NE(metricsSnapshot(true).find("test.wallclock.latency"),
              std::string::npos);
    wall.reset();
}

TEST(MetricsRegistry, JsonIsWellFormedAndExpandsHistograms)
{
    auto &reg = Registry::global();
    auto &h = reg.histogram("test.json.hist", "histogram for JSON");
    h.reset();
    h.record(5);
    h.record(9);

    std::ostringstream os;
    metricsWriteJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"test.json.hist.count\": 2"),
              std::string::npos);
    EXPECT_NE(json.find("\"test.json.hist.p50\""),
              std::string::npos);

    // Empty histograms omit percentile keys rather than emit NaN.
    h.reset();
    std::ostringstream os2;
    metricsWriteJson(os2);
    EXPECT_EQ(os2.str().find("test.json.hist.p50"),
              std::string::npos);
    EXPECT_NE(os2.str().find("\"test.json.hist.count\": 0"),
              std::string::npos);
}

TEST(MetricsRegistry, SnapshotExpandsHistogramsIntoSubrows)
{
    auto &h = Registry::global().histogram("test.snaphist",
                                           "histogram rows");
    h.reset();
    const std::string empty = metricsSnapshot();
    EXPECT_NE(empty.find("test.snaphist.count 0\n"), std::string::npos);
    EXPECT_EQ(empty.find("test.snaphist.p50"), std::string::npos);

    h.record(4);
    h.record(6);
    const std::string snap = metricsSnapshot();
    for (const char *row :
         { "test.snaphist.count 2\n", "test.snaphist.sum 10\n",
           "test.snaphist.mean 5\n", "test.snaphist.min 4\n",
           "test.snaphist.max 6\n", "test.snaphist.p50 ",
           "test.snaphist.p99 " })
        EXPECT_NE(snap.find(row), std::string::npos) << row;
    h.reset();
}

TEST(MetricsRegistry, ResetZeroesEveryKindAndKeepsTheRows)
{
    auto &reg = Registry::global();
    auto &c = reg.counter("test.reset.counter", "counter");
    auto &g = reg.gauge("test.reset.gauge", "gauge");
    auto &h = reg.histogram("test.reset.hist", "histogram");
    c += 3;
    g.set(1.5);
    h.record(8);

    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
    const std::string snap = metricsSnapshot();
    EXPECT_NE(snap.find("test.reset.counter 0\n"), std::string::npos);
    EXPECT_NE(snap.find("test.reset.gauge 0\n"), std::string::npos);
    EXPECT_NE(snap.find("test.reset.hist.count 0\n"),
              std::string::npos);

    // Cached references keep feeding the same rows afterwards.
    ++c;
    EXPECT_EQ(reg.counter("test.reset.counter", "counter").value(), 1u);
}

TEST(MetricsTally, KeepsItsOwnCountAndFeedsTheRow)
{
    auto &row = Registry::global().counter("test.tally", "");
    row.reset();
    metrics::Tally a("test.tally", "a tallied count");
    metrics::Tally b("test.tally", "a tallied count");
    a += 3;
    ++b;
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(b.value(), 1u);
    EXPECT_EQ(row.value(), 4u);
    EXPECT_NE(metricsSnapshot().find("test.tally 4\n"),
              std::string::npos);

    // A registry reset zeroes the row, not an instance's own count.
    row.reset();
    a.add(2);
    EXPECT_EQ(a.value(), 5u);
    EXPECT_EQ(row.value(), 2u);
}

TEST(MetricsTally, RegistersItsRowAtConstruction)
{
    // A row must exist as soon as its component does, so two passes
    // that construct the same components list the same rows whether
    // or not either ever counted anything.
    EXPECT_EQ(metricsSnapshot().find("test.tally.eager "),
              std::string::npos);
    const metrics::Tally t("test.tally.eager", "never bumped");
    EXPECT_EQ(t.value(), 0u);
    EXPECT_NE(metricsSnapshot().find("test.tally.eager 0\n"),
              std::string::npos);
}

TEST(MetricsTally, InstancesOnDifferentRowsStayApart)
{
    auto &reg = Registry::global();
    metrics::Tally x("test.tally.x", "first row");
    metrics::Tally y("test.tally.y", "second row");
    reg.counter("test.tally.x", "").reset();
    reg.counter("test.tally.y", "").reset();
    x += 10;
    y += 1;
    ++y;
    EXPECT_EQ(x.value(), 10u);
    EXPECT_EQ(y.value(), 2u);
    EXPECT_EQ(reg.counter("test.tally.x", "").value(), 10u);
    EXPECT_EQ(reg.counter("test.tally.y", "").value(), 2u);
}

TEST(MetricsRegistry, DecoderCountersRegisterAtConstruction)
{
    // Regression guard for the function-local `static auto &`
    // pattern the decoder hot paths used to carry: metrics must be
    // registered when the component is constructed (so snapshots are
    // deterministic regardless of whether a decode ever ran), and
    // the member-bound references must keep writing into the live
    // registry entries across a Registry::reset().
    auto &reg = Registry::global();
    const quest::qecc::MemoryExperiment exp(3);
    const quest::qecc::Lattice &lattice = exp.lattice();
    const quest::qecc::SyndromeExtractor &extractor = exp.extractor();

    quest::decode::DecoderPipeline pipeline(lattice);
    quest::decode::StreamingDecoder streamer(extractor);

    // Registered before any decode ran.
    const std::string snap = reg.snapshot();
    EXPECT_NE(snap.find("decode.pipeline.events_local"),
              std::string::npos);
    EXPECT_NE(snap.find("decode.mwpm.decodes"), std::string::npos);
    EXPECT_NE(snap.find("decode.stream.rounds"), std::string::npos);

    auto &rounds = reg.counter(
        "decode.stream.rounds",
        "syndrome rounds pushed into streaming decoders");
    rounds.reset();
    const std::uint64_t before = rounds.value();
    quest::quantum::PauliFrame frame(lattice.numQubits());
    streamer.pushRound(extractor.runRound(frame, nullptr));
    EXPECT_EQ(rounds.value() - before, 1u);
}

} // namespace
