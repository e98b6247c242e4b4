/**
 * @file
 * Tests for the NDP engines: the die-level sampler's functional
 * equivalence with the golden layout sampler, §VI-E abort behaviour,
 * secondary-command coalescing, and the GnnEngine's end-to-end
 * subgraph construction in both streaming and barrier modes.
 */

#include <gtest/gtest.h>

#include <map>

#include "engines/die_sampler.h"
#include "engines/gnn_engine.h"
#include "graph/generator.h"
#include "platforms/device_context.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::engines;

struct Rig
{
    ssd::SystemConfig cfg;
    graph::Graph g;
    graph::FeatureTable feat{16, 2};
    dg::DirectGraphLayout layout;
    std::unique_ptr<flash::PageStore> store;
    std::unique_ptr<dg::PageByteSource> bytes;
    std::unique_ptr<dg::LayoutSource> meta;
    gnn::ModelConfig model;

    explicit Rig(bool with_hub = true)
    {
        cfg.flash.channels = 4;
        cfg.flash.diesPerChannel = 2;
        cfg.flash.blocksPerPlane = 128;
        cfg.flash.pagesPerBlock = 32;

        if (with_hub) {
            // Hub node 0 spills into secondaries; the rest are small.
            std::vector<std::vector<graph::NodeId>> adj(128);
            for (graph::NodeId i = 0; i < 6000; ++i)
                adj[0].push_back(1 + (i % 127));
            for (graph::NodeId v = 1; v < 128; ++v)
                for (graph::NodeId k = 0; k < 6; ++k)
                    adj[v].push_back((v * 7 + k * 13) % 128);
            g = graph::Graph(adj);
        } else {
            g = graph::generateRing(128, 6);
        }
        ssd::Ftl ftl(cfg.flash);
        layout = dg::buildLayout(g, feat, cfg.flash,
                                 ftl.reserveBlocks(128));
        store = std::make_unique<flash::PageStore>(cfg.flash);
        dg::materialize(layout, g, feat, *store);
        bytes = std::make_unique<dg::PageByteSource>(*store, feat.dim());
        meta = std::make_unique<dg::LayoutSource>(layout, g);

        model.hops = 3;
        model.fanout = 3;
        model.featureDim = feat.dim();
        model.hiddenDim = 8;
        model.seed = 77;
    }

    flash::GnnGlobalConfig
    gnnCfg() const
    {
        return engines::gnnGlobalConfig(model);
    }
};

TEST(DieSampler, AbortsOnMissingSection)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    flash::GnnSampleParams p;
    p.ppa = 12345; // Never programmed.
    flash::GnnSampleResult r;
    s.execute(std::nullopt, p, r);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.follow.empty());
}

TEST(DieSampler, AbortsOnTypeMismatch)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    // Expect secondary, fetch a primary.
    flash::GnnSampleParams p;
    dg::DgAddress a = rig.layout.nodes[5].primary;
    p.ppa = a.page();
    p.sectionIndex = static_cast<std::uint8_t>(a.section());
    p.isSecondary = true;
    p.sampleCount = 2;
    auto sec = rig.bytes->fetch(a);
    ASSERT_TRUE(sec.has_value());
    flash::GnnSampleResult r;
    s.execute(sec, p, r);
    EXPECT_FALSE(r.ok);
}

TEST(DieSampler, FinalHopRetrievesFeatureOnly)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    dg::DgAddress a = rig.layout.nodes[9].primary;
    flash::GnnSampleParams p;
    p.ppa = a.page();
    p.sectionIndex = static_cast<std::uint8_t>(a.section());
    p.hop = rig.model.hops;
    p.finalHop = true;
    p.sampleCount = 0;
    flash::GnnSampleResult r;
    s.execute(rig.bytes->fetch(a), p, r);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.featureIncluded);
    EXPECT_EQ(r.featureBytes, rig.feat.bytesPerNode());
    EXPECT_TRUE(r.follow.empty());
    EXPECT_EQ(r.nodeId, 9u);
}

TEST(DieSampler, CoalescesSecondaryHits)
{
    Rig rig;
    flash::GnnGlobalConfig gc = rig.gnnCfg();
    gc.fanout = 32; // Many draws so several land per secondary.
    DieSampler s(rig.cfg.engine, gc);
    const auto &nl = rig.layout.nodes[0];
    ASSERT_GT(nl.secondaries.size(), 0u);

    flash::GnnSampleParams p;
    p.ppa = nl.primary.page();
    p.sectionIndex = static_cast<std::uint8_t>(nl.primary.section());
    p.hop = 0;
    p.sampleCount = 32;
    p.retrieveFeature = true;
    flash::GnnSampleResult r;
    s.execute(rig.bytes->fetch(nl.primary), p, r);
    ASSERT_TRUE(r.ok);

    // At most one command per secondary section; counts sum with the
    // in-page picks to the fanout.
    std::map<std::uint32_t, int> per_addr;
    std::uint32_t total = 0;
    for (const auto &f : r.follow) {
        if (f.params.isSecondary) {
            dg::DgAddress a(f.params.ppa, f.params.sectionIndex);
            ++per_addr[a.raw];
            total += f.params.sampleCount;
        } else {
            ++total;
        }
    }
    EXPECT_EQ(total, 32u);
    for (const auto &[addr, count] : per_addr)
        EXPECT_EQ(count, 1);
    EXPECT_GE(per_addr.size(), 1u);
}

TEST(DieSampler, FrameBytesReflectContent)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    dg::DgAddress a = rig.layout.nodes[3].primary;
    flash::GnnSampleParams p;
    p.ppa = a.page();
    p.sectionIndex = static_cast<std::uint8_t>(a.section());
    p.sampleCount = 3;
    p.retrieveFeature = true;
    flash::GnnSampleResult r;
    s.execute(rig.bytes->fetch(a), p, r);
    EXPECT_EQ(r.frameBytes(),
              16u + rig.feat.bytesPerNode() + 12u * r.follow.size());
    EXPECT_GT(s.latency(r), 0u);
}

TEST(DieSampler, ReusedFrameMatchesAFreshOne)
{
    // The engine reuses one result frame per device: each execute()
    // must overwrite every field, whatever the previous command left.
    Rig rig;
    flash::GnnGlobalConfig gc = rig.gnnCfg();
    gc.fanout = 32;
    gc.edgeCoeffBytes = 4;
    DieSampler s(rig.cfg.engine, gc);
    auto params = [&](graph::NodeId v) {
        flash::GnnSampleParams p;
        dg::DgAddress a = rig.layout.nodes[v].primary;
        p.ppa = a.page();
        p.sectionIndex = static_cast<std::uint8_t>(a.section());
        p.hop = 0;
        p.batchId = 7;
        p.parentSlot = v;
        p.sampleCount = 32;
        p.retrieveFeature = true;
        return p;
    };
    auto same = [](const flash::GnnSampleResult &a,
                   const flash::GnnSampleResult &b) {
        EXPECT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.nodeId, b.nodeId);
        EXPECT_EQ(a.hop, b.hop);
        EXPECT_EQ(a.batchId, b.batchId);
        EXPECT_EQ(a.parentSlot, b.parentSlot);
        EXPECT_EQ(a.featureIncluded, b.featureIncluded);
        EXPECT_EQ(a.featureBytes, b.featureBytes);
        EXPECT_EQ(a.edgeCoeffBytes, b.edgeCoeffBytes);
        EXPECT_EQ(a.frameBytes(), b.frameBytes());
        ASSERT_EQ(a.follow.size(), b.follow.size());
        for (std::size_t i = 0; i < a.follow.size(); ++i) {
            EXPECT_EQ(a.follow[i].params.ppa, b.follow[i].params.ppa);
            EXPECT_EQ(a.follow[i].params.sectionIndex,
                      b.follow[i].params.sectionIndex);
            EXPECT_EQ(a.follow[i].params.sampleCount,
                      b.follow[i].params.sampleCount);
            EXPECT_EQ(a.follow[i].params.isSecondary,
                      b.follow[i].params.isSecondary);
        }
    };

    flash::GnnSampleResult reused;
    s.execute(rig.bytes->fetch(rig.layout.nodes[0].primary), params(0),
              reused);
    ASSERT_FALSE(reused.follow.empty());
    const std::size_t cap = reused.follow.capacity();
    // An abort into the dirty frame leaves nothing of the last command.
    s.execute(std::nullopt, params(3), reused);
    flash::GnnSampleResult fresh;
    s.execute(std::nullopt, params(3), fresh);
    same(reused, fresh);
    EXPECT_EQ(reused.follow.capacity(), cap);
    for (graph::NodeId v : {5u, 0u, 9u}) {
        flash::GnnSampleResult one;
        s.execute(rig.bytes->fetch(rig.layout.nodes[v].primary), params(v),
                  one);
        s.execute(rig.bytes->fetch(rig.layout.nodes[v].primary), params(v),
                  reused);
        same(reused, one);
    }
}

/**
 * Drive the sampler recursively through byte-backed sections and
 * check the resulting subgraph equals the golden layoutSample().
 */
TEST(DieSampler, RecursiveExpansionMatchesGoldenSampler)
{
    Rig rig;
    DieSampler s(rig.cfg.engine, rig.gnnCfg());
    std::uint64_t batch = 4;

    gnn::Subgraph got;
    struct Pending
    {
        flash::GnnSampleParams p;
    };
    std::vector<Pending> work;
    std::vector<graph::NodeId> targets = {0, 1, 64};
    for (auto t : targets) {
        Pending w;
        dg::DgAddress a = rig.layout.primaryOf(t);
        w.p.ppa = a.page();
        w.p.sectionIndex = static_cast<std::uint8_t>(a.section());
        w.p.hop = 0;
        w.p.batchId = static_cast<std::uint32_t>(batch);
        w.p.parentSlot = gnn::kNoParent;
        w.p.retrieveFeature = true;
        w.p.sampleCount = rig.model.fanout;
        work.push_back(w);
    }
    while (!work.empty()) {
        Pending w = work.back();
        work.pop_back();
        auto sec = rig.bytes->fetch(
            dg::DgAddress(w.p.ppa, w.p.sectionIndex));
        flash::GnnSampleResult r;
        s.execute(sec, w.p, r);
        ASSERT_TRUE(r.ok);
        gnn::Slot parent = w.p.parentSlot;
        if (!w.p.isSecondary) {
            parent = got.add(static_cast<graph::NodeId>(r.nodeId),
                             w.p.hop, w.p.parentSlot);
        }
        for (auto f : r.follow) {
            f.params.parentSlot = parent;
            work.push_back({f.params});
        }
    }

    gnn::Subgraph golden =
        gnn::layoutSample(rig.g, rig.layout, rig.model, batch, targets);

    // Compare per-parent child multisets (expansion order differs).
    auto childMap = [](const gnn::Subgraph &sg) {
        std::map<std::pair<gnn::Slot, int>,
                 std::multiset<graph::NodeId>> m;
        // Key children by (parent node instance path); approximate by
        // (parent node, parent hop) aggregated multiset.
        std::map<std::pair<graph::NodeId, int>,
                 std::multiset<graph::NodeId>> agg;
        for (gnn::Slot slot = 0; slot < sg.size(); ++slot) {
            const auto &e = sg[slot];
            if (e.parent == gnn::kNoParent)
                continue;
            const auto &p = sg[e.parent];
            agg[{p.node, p.hop}].insert(e.node);
        }
        return agg;
    };
    auto a = childMap(got);
    auto b = childMap(golden);
    EXPECT_EQ(got.size(), golden.size());
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------
// GnnEngine end-to-end.
// ---------------------------------------------------------------

struct EngineRig : Rig
{
    /** Prepare one batch on a fresh one-device platform. */
    PrepResult
    run(const PrepFlags &flags, const dg::SectionSource &src,
        std::vector<graph::NodeId> targets, std::uint64_t batch = 1)
    {
        platforms::PlatformConfig platform;
        platform.flags = flags;
        platforms::DeviceContext dev(platform, cfg, {}, model,
                                     layout.blocks, 0, false);
        GnnEngine engine({dev.port()}, layout, g, model, flags, src);
        PrepResult out;
        bool got = false;
        engine.prepare(0, batch, targets, [&](PrepResult &&r) {
            out = std::move(r);
            got = true;
        });
        dev.queue().run();
        engine.completePrepared();
        EXPECT_TRUE(got);
        return out;
    }
};

PrepFlags
streamingFlags(SamplingLoc loc, bool router)
{
    PrepFlags f;
    f.sampling = loc;
    f.directGraph = true;
    f.hwRouter = router;
    return f;
}

TEST(GnnEngine, StreamingSubgraphMatchesGolden)
{
    EngineRig rig;
    std::vector<graph::NodeId> targets = {0, 5, 100};
    PrepResult pr = rig.run(streamingFlags(SamplingLoc::Die, true),
                            *rig.bytes, targets, 9);
    ASSERT_TRUE(pr.ok);

    gnn::Subgraph golden =
        gnn::layoutSample(rig.g, rig.layout, rig.model, 9, targets);
    EXPECT_EQ(pr.subgraph.size(), golden.size());

    // Same per-(node,hop) child multisets.
    auto agg = [](const gnn::Subgraph &sg) {
        std::map<std::pair<graph::NodeId, int>,
                 std::multiset<graph::NodeId>> m;
        for (gnn::Slot s = 0; s < sg.size(); ++s) {
            const auto &e = sg[s];
            if (e.parent == gnn::kNoParent)
                continue;
            m[{sg[e.parent].node, sg[e.parent].hop}].insert(e.node);
        }
        return m;
    };
    EXPECT_EQ(agg(pr.subgraph), agg(golden));
    // Hop counts follow the fanout tree.
    auto counts = pr.subgraph.hopCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 3u);
    EXPECT_EQ(counts[1], 9u);
    EXPECT_EQ(counts[3], 81u);
}

TEST(GnnEngine, StreamingVariantsProduceSameSubgraph)
{
    // BG-DG (firmware), BG-DGSP (die+fw), BG-2 (die+router) must all
    // sample identically — only their timing differs.
    std::vector<graph::NodeId> targets = {0, 7, 31};
    EngineRig r1, r2, r3;
    PrepResult a = r1.run(streamingFlags(SamplingLoc::Firmware, false),
                          *r1.bytes, targets, 3);
    PrepResult b = r2.run(streamingFlags(SamplingLoc::Die, false),
                          *r2.bytes, targets, 3);
    PrepResult c = r3.run(streamingFlags(SamplingLoc::Die, true),
                          *r3.bytes, targets, 3);
    ASSERT_TRUE(a.ok && b.ok && c.ok);
    EXPECT_EQ(a.subgraph.size(), b.subgraph.size());
    EXPECT_EQ(b.subgraph.size(), c.subgraph.size());
    // And BG-2 must not be slower than BG-DGSP, which must not be
    // slower than BG-DG on the same workload.
    EXPECT_LE(c.finish - c.start, b.finish - b.start);
    EXPECT_LE(b.finish - b.start, a.finish - a.start);
}

TEST(GnnEngine, ByteAndLayoutSourcesSameSubgraphAndTiming)
{
    std::vector<graph::NodeId> targets = {0, 2, 90};
    EngineRig r1, r2;
    PrepResult a = r1.run(streamingFlags(SamplingLoc::Die, true),
                          *r1.bytes, targets, 5);
    PrepResult b = r2.run(streamingFlags(SamplingLoc::Die, true),
                          *r2.meta, targets, 5);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.subgraph.size(), b.subgraph.size());
    EXPECT_EQ(a.finish, b.finish);
    EXPECT_EQ(a.commands, b.commands);
}

TEST(GnnEngine, BarrierModeBuildsFullSubgraph)
{
    EngineRig rig;
    PrepFlags f; // Firmware sampling, no DirectGraph: BG-1.
    f.sampling = SamplingLoc::Firmware;
    f.idsToHost = true;
    std::vector<graph::NodeId> targets = {1, 2};
    PrepResult pr = rig.run(f, *rig.bytes, targets, 2);
    ASSERT_TRUE(pr.ok);
    EXPECT_EQ(pr.subgraph.size(), 2u * rig.model.subgraphNodes());
    // Hop spans are strictly ordered (no overlap).
    ASSERT_EQ(pr.hops.size(), 4u);
    for (std::size_t h = 0; h + 1 < pr.hops.size(); ++h) {
        EXPECT_LE(pr.hops[h].last, pr.hops[h + 1].first)
            << "hop " << h << " overlaps hop " << h + 1;
    }
}

TEST(GnnEngine, StreamingOverlapsHops)
{
    EngineRig rig;
    std::vector<graph::NodeId> targets;
    for (graph::NodeId t = 0; t < 32; ++t)
        targets.push_back(t * 4);
    PrepResult pr = rig.run(streamingFlags(SamplingLoc::Die, true),
                            *rig.bytes, targets, 1);
    ASSERT_TRUE(pr.ok);
    // Out-of-order streaming: later hops start before earlier hops
    // fully drain.
    bool overlap = false;
    for (std::size_t h = 0; h + 1 < pr.hops.size(); ++h)
        overlap |= pr.hops[h + 1].first < pr.hops[h].last;
    EXPECT_TRUE(overlap);
}

TEST(GnnEngine, BarrierCsrSemanticsMatchGolden)
{
    EngineRig rig;
    PrepFlags f;
    f.sampling = SamplingLoc::Host;
    f.pciePageLegs = 1;
    std::vector<graph::NodeId> targets = {3, 40};
    PrepResult pr = rig.run(f, *rig.bytes, targets, 6);
    ASSERT_TRUE(pr.ok);
    gnn::Subgraph golden = gnn::csrSample(rig.g, rig.model, 6, targets);
    ASSERT_EQ(pr.subgraph.size(), golden.size());
    auto agg = [](const gnn::Subgraph &sg) {
        std::map<std::pair<graph::NodeId, int>,
                 std::multiset<graph::NodeId>> m;
        for (gnn::Slot s = 0; s < sg.size(); ++s) {
            const auto &e = sg[s];
            if (e.parent == gnn::kNoParent)
                continue;
            m[{sg[e.parent].node, sg[e.parent].hop}].insert(e.node);
        }
        return m;
    };
    EXPECT_EQ(agg(pr.subgraph), agg(golden));
}

TEST(GnnEngine, AbortSurfacesAsNotOk)
{
    EngineRig rig;
    // Corrupt the type byte of a target's primary section so the
    // on-die check fails at runtime (§VI-E).
    dg::DgAddress a = rig.layout.primaryOf(64);
    const dg::SectionPlacement *sp = rig.layout.find(a);
    ASSERT_NE(sp, nullptr);
    rig.store->corruptBit(a.page(), sp->byteOffset, 7);
    std::vector<graph::NodeId> targets = {64};
    PrepResult pr = rig.run(streamingFlags(SamplingLoc::Die, true),
                            *rig.bytes, targets, 1);
    EXPECT_FALSE(pr.ok);
    EXPECT_GT(pr.tally.abortedCommands, 0u);
}

TEST(GnnEngine, TalliesAreConsistent)
{
    EngineRig rig;
    std::vector<graph::NodeId> targets = {0, 1, 2, 3};
    PrepResult pr = rig.run(streamingFlags(SamplingLoc::Die, true),
                            *rig.bytes, targets, 1);
    ASSERT_TRUE(pr.ok);
    EXPECT_EQ(pr.commands, pr.tally.flashReads);
    EXPECT_GT(pr.tally.channelBytes, 0u);
    // Features staged for every subgraph node.
    EXPECT_EQ(pr.tally.featureBytes,
              pr.subgraph.size() *
                  std::uint64_t{rig.feat.bytesPerNode()});
    EXPECT_GE(pr.finish, pr.start);
    EXPECT_EQ(pr.cmdStats.lifetime.count(), pr.commands);
}

} // namespace

namespace {

using namespace beacongnn;
using namespace beacongnn::engines;

/** Hub-heavy rig reused for barrier-mode specifics. */
TEST(GnnEngineBarrier, BgSpContinuationsMatchSecondaryHits)
{
    EngineRig rig;
    PrepFlags f;
    f.sampling = SamplingLoc::Die;
    f.idsToHost = true;
    std::vector<graph::NodeId> targets = {0}; // The hub node.
    PrepResult pr = rig.run(f, *rig.bytes, targets, 4);
    ASSERT_TRUE(pr.ok);
    // The hub's fanout-3 draws mostly land in secondaries; the reads
    // must include the coalesced continuations: commands exceed the
    // subgraph sampling visits but stay bounded by visits * (1 +
    // fanout) + final-hop features.
    auto counts = pr.subgraph.hopCounts();
    std::uint64_t visits = 0;
    for (std::size_t h = 0; h + 1 < counts.size(); ++h)
        visits += counts[h];
    std::uint64_t finals = counts.back();
    EXPECT_GE(pr.commands, visits + finals);
    EXPECT_LE(pr.commands,
              visits * (1 + rig.model.fanout) + finals);
}

TEST(GnnEngineBarrier, HostSamplingChargesHostCpu)
{
    EngineRig host_rig, fw_rig;
    PrepFlags host_flags;
    host_flags.sampling = SamplingLoc::Host;
    host_flags.pciePageLegs = 1;
    PrepFlags fw_flags;
    fw_flags.sampling = SamplingLoc::Firmware;
    std::vector<graph::NodeId> targets = {1, 2, 3};
    PrepResult h = host_rig.run(host_flags, *host_rig.bytes, targets, 2);
    PrepResult w = fw_rig.run(fw_flags, *fw_rig.bytes, targets, 2);
    ASSERT_TRUE(h.ok && w.ok);
    // Host sampling pays per-visit CPU plus per-page I/O overhead;
    // firmware sampling pays neither on the host side.
    EXPECT_GT(h.tally.hostCpuBusy, 2 * w.tally.hostCpuBusy);
    // Pages crossed PCIe only on the host-sampling platform.
    EXPECT_GT(h.tally.pcieBytes, 0u);
}

TEST(GnnEngineBarrier, HopSpansAreMonotone)
{
    // In barrier mode each hop's first activity follows the previous
    // hop's start (hops begin in order even where reads tail over).
    EngineRig rig;
    PrepFlags f;
    f.sampling = SamplingLoc::Firmware;
    std::vector<graph::NodeId> targets = {5, 6, 7, 8};
    PrepResult pr = rig.run(f, *rig.bytes, targets, 3);
    ASSERT_TRUE(pr.ok);
    for (std::size_t h = 0; h + 1 < pr.hops.size(); ++h) {
        EXPECT_LE(pr.hops[h].first, pr.hops[h + 1].first);
        EXPECT_LE(pr.hops[h].last, pr.hops[h + 1].first)
            << "barrier violated between hops " << h << " and "
            << h + 1;
    }
}

TEST(GnnEngineBarrier, LifetimeHistogramTracksAccumulator)
{
    EngineRig rig;
    PrepFlags f;
    f.sampling = SamplingLoc::Die;
    f.directGraph = true;
    f.hwRouter = true;
    std::vector<graph::NodeId> targets = {0, 9, 18};
    PrepResult pr = rig.run(f, *rig.bytes, targets, 6);
    ASSERT_TRUE(pr.ok);
    EXPECT_EQ(pr.cmdStats.lifetimeHist.summary().count(),
              pr.cmdStats.lifetime.count());
    // Quantiles bracket the mean sensibly.
    EXPECT_GE(pr.cmdStats.lifetimeHist.quantile(0.99) + 10.0,
              pr.cmdStats.lifetime.mean());
    EXPECT_LE(pr.cmdStats.lifetimeHist.quantile(0.01),
              pr.cmdStats.lifetime.max() + 10.0);
}

} // namespace
