/**
 * @file
 * MetricRegistry tests: instrument lifecycle (get-or-create, kind
 * collision, lookup), merge semantics per kind, the CmdStats /
 * PrepTally publish/fromRegistry round trip, snapshot export, the
 * Chrome-trace sink, the golden test pinning RunResult-from-
 * registry to the pre-refactor values for a CC and a BG-2 run, and
 * FNV-1a fingerprints of every output surface (metrics JSON, CSV row,
 * Chrome trace) for both pipelines and a cached two-device array.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "platforms/platform.h"
#include "platforms/report.h"
#include "platforms/runner.h"
#include "sim/metrics.h"
#include "sim/trace_events.h"

namespace {

using namespace beacongnn;
using sim::MetricRegistry;

// ==================================================================
// Registry basics.
// ==================================================================

TEST(MetricRegistry, GetOrCreateReturnsSameInstrument)
{
    MetricRegistry reg;
    sim::Counter &a = reg.counter("flash.reads");
    a.add(3);
    sim::Counter &b = reg.counter("flash.reads");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.contains("flash.reads"));
    EXPECT_FALSE(reg.contains("flash.writes"));
}

TEST(MetricRegistry, KindCollisionIsFatal)
{
    MetricRegistry reg;
    reg.counter("x.y");
    EXPECT_DEATH({ reg.gauge("x.y"); }, "already registered");
}

TEST(MetricRegistry, FindIsKindCheckedAndConst)
{
    MetricRegistry reg;
    reg.counter("a").add(7);
    reg.gauge("g").set(1.5);
    reg.accum("m").add(2.0);
    const MetricRegistry &cref = reg;
    ASSERT_NE(cref.findCounter("a"), nullptr);
    EXPECT_EQ(cref.findCounter("a")->value(), 7u);
    EXPECT_EQ(cref.findCounter("g"), nullptr); // Wrong kind.
    EXPECT_EQ(cref.findGauge("a"), nullptr);
    EXPECT_EQ(cref.findAccum("missing"), nullptr);
    ASSERT_NE(cref.findAccum("m"), nullptr);
    EXPECT_DOUBLE_EQ(cref.findAccum("m")->sum(), 2.0);
}

TEST(MetricRegistry, HistogramGeometryAppliesOnCreation)
{
    MetricRegistry reg;
    sim::Histogram &h = reg.histogram("h", 10.0, 32);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 10.0);
    EXPECT_EQ(h.buckets().size(), 32u);
    // Second request with different geometry returns the original.
    sim::Histogram &again = reg.histogram("h", 99.0, 4);
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.buckets().size(), 32u);
}

TEST(MetricRegistry, ForEachIsSortedByName)
{
    MetricRegistry reg;
    reg.counter("b");
    reg.counter("a.z");
    reg.counter("a.a");
    std::vector<std::string> names;
    reg.forEach([&](const std::string &n,
                    const MetricRegistry::Instrument &) {
        names.push_back(n);
    });
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a.a");
    EXPECT_EQ(names[1], "a.z");
    EXPECT_EQ(names[2], "b");
}

// ==================================================================
// Merge semantics.
// ==================================================================

TEST(MetricRegistry, MergeCombinesEveryKind)
{
    MetricRegistry a;
    a.counter("c").add(10);
    a.gauge("g").set(1.0);
    a.accum("m").add(2.0);
    a.histogram("h", 1.0, 8).add(3.0);
    a.interval("i").add(0, 5);

    MetricRegistry b;
    b.counter("c").add(32);
    b.counter("only_b").add(1);
    b.gauge("g").set(4.0);
    b.accum("m").add(6.0);
    b.histogram("h", 1.0, 8).add(3.5);
    b.interval("i").add(5, 9); // Contiguous: coalesces with [0,5).

    a.merge(b);
    EXPECT_EQ(a.counter("c").value(), 42u);
    EXPECT_EQ(a.counter("only_b").value(), 1u);
    EXPECT_DOUBLE_EQ(a.gauge("g").value(), 4.0); // Last-write-wins.
    EXPECT_EQ(a.accum("m").count(), 2u);
    EXPECT_DOUBLE_EQ(a.accum("m").sum(), 8.0);
    EXPECT_EQ(a.histogram("h").summary().count(), 2u);
    EXPECT_EQ(a.interval("i").get().size(), 1u);
    EXPECT_EQ(a.interval("i").busy(), 9u);
}

TEST(MetricRegistry, MergeIntoEmptyIsExactCopy)
{
    MetricRegistry src;
    src.accum("m").add(1.25);
    src.accum("m").add(-3.0);
    src.histogram("h", 10.0, 1024).add(17.0);
    src.interval("i").add(3, 7);
    src.interval("i").add(10, 12);

    MetricRegistry dst;
    dst.merge(src);
    const sim::Accumulator *m = dst.findAccum("m");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->count(), 2u);
    EXPECT_DOUBLE_EQ(m->sum(), -1.75);
    EXPECT_DOUBLE_EQ(m->min(), -3.0);
    EXPECT_DOUBLE_EQ(m->max(), 1.25);
    const sim::Histogram *h = dst.findHistogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->bucketWidth(), 10.0);
    EXPECT_EQ(h->buckets().size(), 1024u);
    const sim::IntervalTrace *i = dst.findInterval("i");
    ASSERT_NE(i, nullptr);
    EXPECT_EQ(i->get().size(), 2u);
    EXPECT_EQ(i->busy(), 6u);
}

TEST(IntervalTraceMerge, UnionReCoalescesOverlaps)
{
    sim::IntervalTrace a;
    a.add(0, 10);
    a.add(20, 30);
    sim::IntervalTrace b;
    b.add(5, 22); // Bridges both of a's spans.
    a.merge(b);
    EXPECT_EQ(a.get().size(), 1u);
    EXPECT_EQ(a.busy(), 30u);
}

TEST(AccumulatorMerge, MatchesMergedFriend)
{
    sim::Accumulator a, b;
    a.add(1.0);
    a.add(5.0);
    b.add(-2.0);
    sim::Accumulator via_friend = merged(a, b);
    sim::Accumulator via_member = a;
    via_member.merge(b);
    EXPECT_EQ(via_member.count(), via_friend.count());
    EXPECT_DOUBLE_EQ(via_member.sum(), via_friend.sum());
    EXPECT_DOUBLE_EQ(via_member.min(), via_friend.min());
    EXPECT_DOUBLE_EQ(via_member.max(), via_friend.max());
}

// ==================================================================
// CmdStats / PrepTally aggregation API (the runBatch dedup).
// ==================================================================

TEST(CmdStats, MergeAccumulatesAllFields)
{
    engines::CmdStats a, b;
    a.waitBefore.add(1.0);
    a.lifetime.add(10.0);
    a.lifetimeHist.add(10.0);
    b.waitBefore.add(3.0);
    b.flashTime.add(2.0);
    b.lifetime.add(20.0);
    b.lifetimeHist.add(20.0);
    a.merge(b);
    EXPECT_EQ(a.waitBefore.count(), 2u);
    EXPECT_DOUBLE_EQ(a.waitBefore.sum(), 4.0);
    EXPECT_EQ(a.flashTime.count(), 1u);
    EXPECT_EQ(a.lifetime.count(), 2u);
    EXPECT_EQ(a.lifetimeHist.summary().count(), 2u);
}

TEST(CmdStats, PublishFromRegistryRoundTrips)
{
    engines::CmdStats batch1, batch2;
    batch1.waitBefore.add(1.5);
    batch1.flashTime.add(0.5);
    batch1.waitAfter.add(0.25);
    batch1.lifetime.add(2.25);
    batch1.lifetimeHist.add(2.25);
    batch2.lifetime.add(7.0);
    batch2.lifetimeHist.add(7.0);

    MetricRegistry reg;
    batch1.publish(reg);
    batch2.publish(reg);

    engines::CmdStats manual = batch1;
    manual.merge(batch2);
    engines::CmdStats round =
        engines::CmdStats::fromRegistry(reg);
    EXPECT_EQ(round.lifetime.count(), manual.lifetime.count());
    EXPECT_DOUBLE_EQ(round.lifetime.sum(), manual.lifetime.sum());
    EXPECT_DOUBLE_EQ(round.waitBefore.sum(), manual.waitBefore.sum());
    EXPECT_EQ(round.lifetimeHist.summary().count(),
              manual.lifetimeHist.summary().count());
    EXPECT_DOUBLE_EQ(round.lifetimeHist.percentile(50),
                     manual.lifetimeHist.percentile(50));
}

TEST(CmdStats, FromRegistryOnEmptyIsDefault)
{
    MetricRegistry reg;
    engines::CmdStats s = engines::CmdStats::fromRegistry(reg);
    EXPECT_EQ(s.lifetime.count(), 0u);
    EXPECT_EQ(s.lifetimeHist.summary().count(), 0u);
}

TEST(PrepTally, MergeAndRegistryRoundTrip)
{
    engines::PrepTally a, b;
    a.flashReads = 10;
    a.channelBytes = 4096;
    a.hostCpuBusy = 77;
    b.flashReads = 5;
    b.pcieBytes = 512;
    b.abortedCommands = 1;

    MetricRegistry reg;
    a.publish(reg);
    b.publish(reg);
    a.merge(b);
    engines::PrepTally round =
        engines::PrepTally::fromRegistry(reg);
    EXPECT_EQ(round.flashReads, a.flashReads);
    EXPECT_EQ(round.channelBytes, a.channelBytes);
    EXPECT_EQ(round.pcieBytes, a.pcieBytes);
    EXPECT_EQ(round.hostCpuBusy, a.hostCpuBusy);
    EXPECT_EQ(round.abortedCommands, a.abortedCommands);
}

// ==================================================================
// Snapshot export.
// ==================================================================

TEST(MetricRegistry, JsonSnapshotListsEveryInstrument)
{
    MetricRegistry reg;
    reg.counter("flash.reads").add(7);
    reg.gauge("run.die_util").set(0.25);
    reg.accum("engine.cmd.lifetime_us").add(3.5);
    reg.histogram("h", 2.0, 4).add(5.0);
    reg.interval("i").add(1, 4);
    std::ostringstream os;
    reg.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"flash.reads\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"accumulator\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"interval\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}'); // An embeddable object, no newline.
}

TEST(MetricRegistry, CsvSnapshotHasHeaderAndRows)
{
    MetricRegistry reg;
    reg.counter("a").add(1);
    reg.accum("b").add(2.0);
    std::ostringstream os;
    MetricRegistry::writeCsvHeader(os, "platform,");
    reg.writeCsv(os, "BG-2,");
    std::string csv = os.str();
    EXPECT_NE(csv.find("platform,name,kind"), std::string::npos);
    EXPECT_NE(csv.find("BG-2,a,counter"), std::string::npos);
    EXPECT_NE(csv.find("BG-2,b,accumulator"), std::string::npos);
}

// ==================================================================
// Chrome-trace sink.
// ==================================================================

TEST(TraceSink, EmitsCompleteAndAsyncEvents)
{
    sim::TraceSink sink;
    sink.setProcessName(1, "flash dies");
    sink.setThreadName(1, 3, "ch0.die3");
    sink.complete("sense", "flash", 1, 3, sim::Tick{1500},
                  sim::Tick{4500});
    std::uint64_t id = sink.nextId();
    sink.beginAsync("cmd", "cmd", id, 1000);
    sink.endAsync("cmd", "cmd", id, 9000);
    EXPECT_EQ(sink.events(), 3u);
    EXPECT_EQ(sink.dropped(), 0u);

    std::ostringstream os;
    sink.write(os);
    std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("ch0.die3"), std::string::npos);
    // Tick 1500 ns = 1.500 us in the exported microsecond clock.
    EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);
}

TEST(TraceSink, DropsBeyondCapacity)
{
    sim::TraceSink sink(2);
    sink.complete("a", "c", 0, 0, 0, 1);
    sink.complete("b", "c", 0, 0, 1, 2);
    sink.complete("c", "c", 0, 0, 2, 3);
    EXPECT_EQ(sink.events(), 2u);
    EXPECT_EQ(sink.dropped(), 1u);
}

// ==================================================================
// End-to-end: RunResult populated from the registry must equal the
// pre-refactor values (golden, recorded before the registry landed),
// and the snapshot must cover every layer's namespace.
// ==================================================================

class MetricsGolden : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        gnn::ModelConfig model;
        model.hops = 2;
        model.fanout = 2;
        model.hiddenDim = 128;
        model.seed = 0xBEAC0;
        graph::WorkloadSpec spec = graph::workload("amazon");
        spec.simNodes = 2000;
        platforms::RunConfig rc;
        rc.batchSize = 16;
        rc.batches = 2;
        bundle = platforms::makeBundle(spec, rc.system.flash, model)
                     .release();
        run = rc;
    }

    static void
    TearDownTestSuite()
    {
        delete bundle;
        bundle = nullptr;
    }

    static platforms::WorkloadBundle *bundle;
    static platforms::RunConfig run;
};

platforms::WorkloadBundle *MetricsGolden::bundle = nullptr;
platforms::RunConfig MetricsGolden::run;

TEST_F(MetricsGolden, CcRunMatchesPreRefactorValues)
{
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::CC), run,
        *bundle);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.targets, 32u);
    EXPECT_EQ(r.prepTime, 782112u);
    EXPECT_EQ(r.totalTime, 783487u);
    EXPECT_DOUBLE_EQ(r.throughput, 40843.051639657067);
    EXPECT_EQ(r.tally.flashReads, 348u);
    EXPECT_EQ(r.tally.channelBytes, 1425408u);
    EXPECT_EQ(r.tally.dramBytes, 1425408u);
    EXPECT_EQ(r.tally.pcieBytes, 1515008u);
    EXPECT_EQ(r.tally.hostCpuBusy, 1597440u);
    EXPECT_EQ(r.tally.featureBytes, 89600u);
    EXPECT_EQ(r.tally.abortedCommands, 0u);
    EXPECT_EQ(r.cmdStats.lifetime.count(), 348u);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetime.sum(), 16452.543999999987);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetime.mean(), 47.277425287356287);
    EXPECT_DOUBLE_EQ(r.cmdStats.waitBefore.sum(), 11897.209999999974);
    EXPECT_DOUBLE_EQ(r.cmdStats.flashTime.sum(), 2825.7599999999907);
    EXPECT_DOUBLE_EQ(r.cmdStats.waitAfter.sum(), 1729.5739999999994);
    EXPECT_EQ(r.cmdStats.lifetimeHist.summary().count(), 348u);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetimeHist.percentile(50),
                     44.509803921568626);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetimeHist.percentile(99),
                     102.876);
    EXPECT_DOUBLE_EQ(r.dieUtil, 0.01041019187299853);
    EXPECT_DOUBLE_EQ(r.channelUtil, 0.14213381970600661);
    EXPECT_DOUBLE_EQ(r.coreUtil, 0.044416818658127064);
    EXPECT_DOUBLE_EQ(r.dramUtil, 0.22741411152961058);
    EXPECT_DOUBLE_EQ(r.pcieUtil, 0.24170917960349056);
    EXPECT_EQ(r.accelBusy, 2750u);
    EXPECT_EQ(r.hostBusy, 1597440u);
    EXPECT_DOUBLE_EQ(r.energy.total(), 0.0034073897544000002);
    EXPECT_DOUBLE_EQ(r.energy.flash, 0.0001044);
    EXPECT_DOUBLE_EQ(r.energy.dram, 0.00024944639999999998);
    EXPECT_DOUBLE_EQ(r.energy.pcie, 0.0002272512);
    EXPECT_DOUBLE_EQ(r.energy.cores, 4.8719999999999994e-05);
    EXPECT_DOUBLE_EQ(r.energy.accel, 3.8252544000000002e-06);
    EXPECT_DOUBLE_EQ(r.energy.engines, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.channel, 0.0001425408);
    EXPECT_DOUBLE_EQ(r.energy.hostCpu, 0.00239616);
    EXPECT_DOUBLE_EQ(r.energy.background, 0.00023504609999999999);
    EXPECT_DOUBLE_EQ(r.avgPowerW, 4.3490061154811759);
    EXPECT_EQ(r.hops.size(), 3u);
    EXPECT_EQ(r.lastBatchStart, 399554u);
    EXPECT_EQ(r.lastSubgraph.size(), 112u);
}

TEST_F(MetricsGolden, Bg2RunMatchesPreRefactorValues)
{
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), run,
        *bundle);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.targets, 32u);
    EXPECT_EQ(r.prepTime, 127185u);
    EXPECT_EQ(r.totalTime, 139749u);
    EXPECT_DOUBLE_EQ(r.throughput, 228981.96051492321);
    EXPECT_EQ(r.tally.flashReads, 239u);
    EXPECT_EQ(r.tally.channelBytes, 95908u);
    EXPECT_EQ(r.tally.dramBytes, 89600u);
    EXPECT_EQ(r.tally.pcieBytes, 0u);
    EXPECT_EQ(r.tally.hostCpuBusy, 1920u);
    EXPECT_EQ(r.tally.featureBytes, 89600u);
    EXPECT_EQ(r.tally.abortedCommands, 0u);
    EXPECT_EQ(r.cmdStats.lifetime.count(), 239u);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetime.sum(), 1282.8200000000004);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetime.mean(), 5.3674476987447717);
    EXPECT_DOUBLE_EQ(r.cmdStats.waitBefore.sum(), 233.13499999999999);
    EXPECT_DOUBLE_EQ(r.cmdStats.flashTime.sum(), 890.89500000000248);
    EXPECT_DOUBLE_EQ(r.cmdStats.waitAfter.sum(), 158.78999999999991);
    EXPECT_EQ(r.cmdStats.lifetimeHist.summary().count(), 239u);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetimeHist.percentile(50),
                     5.2876106194690262);
    EXPECT_DOUBLE_EQ(r.cmdStats.lifetimeHist.percentile(99),
                     17.23);
    EXPECT_DOUBLE_EQ(r.dieUtil, 0.043102388031399153);
    EXPECT_DOUBLE_EQ(r.channelUtil, 0.053616215500647588);
    EXPECT_DOUBLE_EQ(r.coreUtil, 0.0);
    EXPECT_DOUBLE_EQ(r.dramUtil, 0.16028737236044624);
    EXPECT_DOUBLE_EQ(r.pcieUtil, 0.0);
    EXPECT_EQ(r.accelBusy, 25128u);
    EXPECT_EQ(r.hostBusy, 1920u);
    EXPECT_DOUBLE_EQ(r.energy.total(), 0.0001458041636);
    EXPECT_DOUBLE_EQ(r.energy.flash, 7.1700000000000008e-05);
    EXPECT_DOUBLE_EQ(r.energy.dram, 1.5679999999999999e-05);
    EXPECT_DOUBLE_EQ(r.energy.pcie, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.cores, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.accel, 3.9975936000000001e-06);
    EXPECT_DOUBLE_EQ(r.energy.engines, 3.107e-08);
    EXPECT_DOUBLE_EQ(r.energy.channel, 9.5907999999999997e-06);
    EXPECT_DOUBLE_EQ(r.energy.hostCpu, 2.8799999999999995e-06);
    EXPECT_DOUBLE_EQ(r.energy.background, 4.1924699999999995e-05);
    EXPECT_DOUBLE_EQ(r.avgPowerW, 1.0433288510114562);
    EXPECT_EQ(r.hops.size(), 3u);
    EXPECT_EQ(r.lastBatchStart, 65620u);
    EXPECT_EQ(r.lastSubgraph.size(), 112u);
}

TEST_F(MetricsGolden, SnapshotCoversEveryLayerNamespace)
{
    MetricRegistry reg;
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), run,
        *bundle, &reg);
    ASSERT_TRUE(r.ok);
    ASSERT_FALSE(reg.empty());

    // One representative instrument per layer.
    ASSERT_NE(reg.findCounter("flash.reads"), nullptr);
    EXPECT_GT(reg.findCounter("flash.reads")->value(), 0u);
    ASSERT_NE(reg.findCounter("flash.ch0.die0.sense_ticks"), nullptr);
    ASSERT_NE(reg.findCounter("ssd.firmware.core_busy"), nullptr);
    ASSERT_NE(reg.findCounter("ssd.ftl.translations"), nullptr);
    ASSERT_NE(reg.findAccum("engine.cmd.lifetime_us"), nullptr);
    EXPECT_EQ(reg.findAccum("engine.cmd.lifetime_us")->count(),
              r.cmdStats.lifetime.count());
    ASSERT_NE(reg.findCounter("engine.router.frames_parsed"), nullptr);
    ASSERT_NE(reg.findCounter("engine.sampler.executed"), nullptr);
    ASSERT_NE(reg.findCounter("accel.macs"), nullptr);
    ASSERT_NE(reg.findGauge("energy.total_j"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("energy.total_j")->value(),
                     r.energy.total());
    ASSERT_NE(reg.findGauge("run.throughput"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("run.throughput")->value(),
                     r.throughput);

    // The registry's tallies equal the RunResult's (same source).
    EXPECT_EQ(reg.findCounter("engine.flash_reads")->value(),
              r.tally.flashReads);
    EXPECT_EQ(reg.findCounter("run.targets")->value(), r.targets);
}

TEST_F(MetricsGolden, TraceSinkRecordsCommandLifetimes)
{
    platforms::RunConfig rc = run;
    sim::TraceSink sink;
    rc.traceSink = &sink;
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), rc,
        *bundle);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(sink.events(), 0u);
    std::ostringstream os;
    sink.write(os);
    std::string json = os.str();
    // Command spans with nested phases, flash ops, batch spans.
    EXPECT_NE(json.find("\"name\": \"cmd\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"sense\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"xfer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"batch\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"route\""), std::string::npos);
}

/** FNV-1a-64 of @p s: a compact byte-exact fingerprint. */
std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Fingerprints of one run's three output surfaces. */
struct OutputHashes
{
    std::uint64_t metricsJson;
    std::uint64_t csvRow;
    std::uint64_t trace;
};

TEST_F(MetricsGolden, OutputFingerprintsAreByteIdentical)
{
    // Byte-exact fingerprints of the metrics JSON, the CSV row and the
    // Chrome trace: any change to event order, slot order, tallies or
    // trace emission shows up here, on both pipelines and on an array.
    auto hashes = [&](platforms::PlatformKind kind, unsigned devices,
                      double cache_mb) {
        platforms::RunConfig rc = run;
        rc.topology.devices = devices;
        rc.cache.capacityMB = cache_mb;
        sim::TraceSink sink;
        rc.traceSink = &sink;
        MetricRegistry reg;
        platforms::RunResult r = platforms::runPlatform(
            platforms::makePlatform(kind), rc, *bundle, &reg);
        std::ostringstream json, csv, trace;
        reg.writeJson(json);
        platforms::writeCsvRow(csv, r);
        sink.write(trace);
        return OutputHashes{fnv1a64(json.str()), fnv1a64(csv.str()),
                            fnv1a64(trace.str())};
    };
    struct Case
    {
        platforms::PlatformKind kind;
        unsigned devices;
        double cacheMB;
        OutputHashes want;
    };
    // Re-recorded when synthetic edge endpoints moved to a keyed hash
    // (DESIGN.md §1); a later change must keep them.
    using platforms::PlatformKind;
    const Case cases[] = {
        {PlatformKind::BG2, 1, 0.0,
         {12549097182729167853ull, 7933136290452139242ull,
          14627951149616443495ull}},
        {PlatformKind::BG_DG, 1, 0.0,
         {10657189342510598239ull, 5588938053805999691ull,
          11406809952876936279ull}},
        {PlatformKind::BG_SP, 1, 0.0,
         {17420527098303954818ull, 18160217753819193287ull,
          11205067995643979352ull}},
        {PlatformKind::CC, 1, 0.0,
         {17161392799103157594ull, 3796097595115438208ull,
          10962583445654558594ull}},
        {PlatformKind::BG2, 2, 1.0,
         {15726236604763283479ull, 16164247381988858217ull,
          15192049295024091263ull}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(platforms::platformName(c.kind) + " x" +
                     std::to_string(c.devices));
        const OutputHashes got = hashes(c.kind, c.devices, c.cacheMB);
        EXPECT_EQ(got.metricsJson, c.want.metricsJson);
        EXPECT_EQ(got.csvRow, c.want.csvRow);
        EXPECT_EQ(got.trace, c.want.trace);
    }
}

TEST_F(MetricsGolden, ReserveExactMirrorsTheBundleBlocks)
{
    // The session FTL must hold exactly the bundle's reserved blocks.
    ssd::Ftl ftl(run.system.flash);
    ASSERT_TRUE(ftl.reserveExact(bundle->layout.blocks));
    for (flash::BlockId b : bundle->layout.blocks)
        EXPECT_TRUE(ftl.isReserved(b));
    // Mirroring twice must fail (already reserved), not double-book.
    EXPECT_FALSE(ftl.reserveExact(bundle->layout.blocks));
}

} // namespace
