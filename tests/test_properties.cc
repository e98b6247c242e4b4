/**
 * @file
 * System-level property tests: monotonicity invariants of the timing
 * model across configurations, conservation laws of the tallies and
 * energy accounting, the node-deduplication extension's
 * functional-equivalence guarantee, and BG-2 throughput's invariance
 * to graph scale. Each property is swept over several configurations
 * with TEST_P.
 */

#include <gtest/gtest.h>

#include "platforms/runner.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::platforms;

std::unique_ptr<WorkloadBundle> &
sharedBundle()
{
    static std::unique_ptr<WorkloadBundle> b = [] {
        ssd::SystemConfig sys;
        auto spec = graph::workload("amazon");
        spec.simNodes = 5000;
        return makeBundle(spec, sys.flash, gnn::ModelConfig{});
    }();
    return b;
}

RunConfig
baseRun()
{
    RunConfig rc;
    rc.batchSize = 48;
    rc.batches = 2;
    return rc;
}

class AllPlatforms : public ::testing::TestWithParam<PlatformKind>
{
};

TEST_P(AllPlatforms, TraditionalFlashNeverFasterThanUll)
{
    auto p = makePlatform(GetParam());
    RunConfig ull = baseRun();
    RunConfig trad = baseRun();
    trad.system.flash = trad.system.flash.asTraditional();
    auto a = runPlatform(p, ull, *sharedBundle());
    auto b = runPlatform(p, trad, *sharedBundle());
    EXPECT_LE(a.totalTime, b.totalTime) << p.name;
}

TEST_P(AllPlatforms, HigherChannelBandwidthNeverHurts)
{
    auto p = makePlatform(GetParam());
    RunConfig slow = baseRun();
    slow.system.flash.channelMBps = 333;
    RunConfig fast = baseRun();
    fast.system.flash.channelMBps = 2400;
    auto a = runPlatform(p, slow, *sharedBundle());
    auto b = runPlatform(p, fast, *sharedBundle());
    EXPECT_GE(b.throughput, a.throughput * 0.999) << p.name;
}

TEST_P(AllPlatforms, EnergyComponentsSumToTotal)
{
    auto p = makePlatform(GetParam());
    auto r = runPlatform(p, baseRun(), *sharedBundle());
    const auto &e = r.energy;
    double sum = e.flash + e.channel + e.dram + e.pcie + e.cores +
                 e.hostCpu + e.accel + e.engines + e.background;
    EXPECT_NEAR(e.total(), sum, 1e-12) << p.name;
    EXPECT_GT(e.total(), 0.0);
    EXPECT_GE(e.offStorageShare(), 0.0);
    EXPECT_LE(e.offStorageShare(), 1.0);
}

TEST_P(AllPlatforms, ThroughputConsistentWithTotalTime)
{
    auto p = makePlatform(GetParam());
    auto r = runPlatform(p, baseRun(), *sharedBundle());
    double expect = static_cast<double>(r.targets) /
                    sim::toSeconds(r.totalTime);
    EXPECT_NEAR(r.throughput, expect, expect * 1e-9) << p.name;
}

TEST_P(AllPlatforms, ChannelBytesNeverExceedPageEquivalent)
{
    auto p = makePlatform(GetParam());
    auto r = runPlatform(p, baseRun(), *sharedBundle());
    // Each flash read moves at most one page over the channel.
    EXPECT_LE(r.tally.channelBytes,
              r.tally.flashReads *
                  std::uint64_t{baseRun().system.flash.pageSize})
        << p.name;
    EXPECT_GT(r.tally.flashReads, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPlatforms,
    ::testing::Values(PlatformKind::CC, PlatformKind::GLIST,
                      PlatformKind::SmartSage, PlatformKind::BG1,
                      PlatformKind::BG_DG, PlatformKind::BG_SP,
                      PlatformKind::BG_DGSP, PlatformKind::BG2),
    [](const ::testing::TestParamInfo<PlatformKind> &pinfo) {
        std::string n = platformName(pinfo.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(Properties, Bg2ThroughputIsScaleInvariant)
{
    // DESIGN.md §1 scales node counts down on the premise that BG-2's
    // offline throughput depends on per-page behaviour, not on graph
    // size. Amazon at 12k and at 100k nodes, 16 x 128 targets: the
    // two must agree within 5% (measured 1.1% apart).
    ssd::SystemConfig sys;
    RunConfig rc;
    rc.batchSize = 128;
    rc.batches = 16;
    auto throughput = [&](graph::NodeId nodes) {
        auto b = makeBundle(graph::workload("amazon"), sys.flash,
                            gnn::ModelConfig{}, nodes);
        return runPlatform(makePlatform(PlatformKind::BG2), rc, *b)
            .throughput;
    };
    const double small = throughput(12000);
    const double large = throughput(100000);
    EXPECT_NEAR(large / small, 1.0, 0.05)
        << small << " vs " << large << " targets/s";
}

TEST(Properties, MoreBackendNeverSlowerForBg2)
{
    // Doubling channels or dies must not slow BG-2 down.
    auto p = makePlatform(PlatformKind::BG2);
    gnn::ModelConfig model;
    auto spec = graph::workload("amazon");
    spec.simNodes = 5000;

    RunConfig small = baseRun();
    small.system.flash.channels = 8;
    auto b_small = makeBundle(spec, small.system.flash, model);
    auto r_small = runPlatform(p, small, *b_small);

    RunConfig big = baseRun();
    big.system.flash.channels = 32;
    auto b_big = makeBundle(spec, big.system.flash, model);
    auto r_big = runPlatform(p, big, *b_big);

    EXPECT_LE(r_big.prepTime, r_small.prepTime);
}

TEST(Properties, DedupeReducesReadsKeepsSubgraph)
{
    // A tiny graph guarantees node repetition inside one batch.
    gnn::ModelConfig model;
    model.hops = 3;
    model.fanout = 3;
    ssd::SystemConfig sys;
    auto spec = graph::workload("OGBN");
    spec.simNodes = 200; // Heavy collision rate.
    auto bundle = makeBundle(spec, sys.flash, model);
    RunConfig rc;
    rc.batchSize = 32;
    rc.batches = 1;

    auto plain = makePlatform(PlatformKind::BG2);
    auto dedup = plain;
    dedup.flags.dedupeNodes = true;
    auto a = runPlatform(plain, rc, *bundle);
    auto b = runPlatform(dedup, rc, *bundle);
    ASSERT_TRUE(a.ok && b.ok);
    // Same sampled subgraph (instances preserved)...
    EXPECT_EQ(a.lastSubgraph.size(), b.lastSubgraph.size());
    std::multiset<graph::NodeId> na, nb;
    for (gnn::Slot s = 0; s < a.lastSubgraph.size(); ++s) {
        na.insert(a.lastSubgraph[s].node);
        nb.insert(b.lastSubgraph[s].node);
    }
    EXPECT_EQ(na, nb);
    // ...with strictly fewer flash reads and no worse time.
    EXPECT_LT(b.tally.flashReads, a.tally.flashReads);
    EXPECT_LE(b.prepTime, a.prepTime);
}

TEST(Properties, BatchSizeThroughputMonotoneOnBg2)
{
    auto p = makePlatform(PlatformKind::BG2);
    double prev = 0;
    for (std::uint32_t bs : {16u, 64u, 256u}) {
        RunConfig rc = baseRun();
        rc.batchSize = bs;
        auto r = runPlatform(p, rc, *sharedBundle());
        EXPECT_GE(r.throughput, prev * 0.98) << bs;
        prev = r.throughput;
    }
}

TEST(Properties, CommandStatsCoverEveryRead)
{
    for (auto kind : {PlatformKind::CC, PlatformKind::BG_SP,
                      PlatformKind::BG2}) {
        auto r = runPlatform(makePlatform(kind), baseRun(),
                             *sharedBundle());
        EXPECT_EQ(r.cmdStats.lifetime.count(), r.tally.flashReads);
        EXPECT_EQ(r.cmdStats.waitBefore.count(),
                  r.cmdStats.lifetime.count());
        // Lifetime >= flash time for every command (means too).
        EXPECT_GE(r.cmdStats.lifetime.mean(),
                  r.cmdStats.flashTime.mean());
        EXPECT_GE(r.cmdStats.waitBefore.min(), 0.0);
        EXPECT_GE(r.cmdStats.waitAfter.min(), 0.0);
    }
}

} // namespace
