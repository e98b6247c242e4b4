/**
 * @file
 * Tests for the GNN substrate: model arithmetic, both sampling
 * disciplines (plain CSR and DirectGraph two-level), subgraph
 * structure, and the functional forward pass.
 */

#include <gtest/gtest.h>

#include <map>

#include "directgraph/builder.h"
#include "gnn/compute.h"
#include "gnn/sampler.h"
#include "graph/generator.h"
#include "ssd/ftl.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::gnn;

ModelConfig
model33()
{
    ModelConfig m;
    m.hops = 3;
    m.fanout = 3;
    m.featureDim = 32;
    m.hiddenDim = 16;
    m.seed = 11;
    return m;
}

TEST(Model, SubgraphArithmetic)
{
    ModelConfig m = model33();
    // 1 + 3 + 9 + 27 = 40 nodes per target (§VII-A).
    EXPECT_EQ(m.subgraphNodes(), 40u);
    EXPECT_EQ(m.nodesThroughHop(0), 1u);
    EXPECT_EQ(m.nodesThroughHop(1), 4u);
    EXPECT_EQ(m.nodesThroughHop(2), 13u);
    EXPECT_EQ(m.nodesThroughHop(3), 40u);
}

TEST(Model, EstimateComputeShapes)
{
    ModelConfig m = model33();
    ComputeWorkload w = estimateCompute(m, 10);
    ASSERT_EQ(w.gemms.size(), 3u);
    EXPECT_EQ(w.gemms[0].m, 130u); // batch x nodesThroughHop(2).
    EXPECT_EQ(w.gemms[0].k, 32u);
    EXPECT_EQ(w.gemms[0].n, 16u);
    EXPECT_EQ(w.gemms[1].m, 40u);
    EXPECT_EQ(w.gemms[1].k, 16u);
    EXPECT_EQ(w.gemms[2].m, 10u);
    EXPECT_GT(w.totalMacs(), 0u);
    EXPECT_GT(w.aggregateElements, 0u);
}

TEST(CsrSampler, ShapeAndMembership)
{
    graph::GeneratorParams gp;
    gp.nodes = 2000;
    gp.avgDegree = 20;
    graph::Graph g = graph::generatePowerLaw(gp);
    ModelConfig m = model33();

    std::vector<graph::NodeId> targets = {5, 99, 1500};
    Subgraph sg = csrSample(g, m, 0, targets);
    // Full fanout everywhere (all degrees >= 1).
    EXPECT_EQ(sg.size(), 3u * m.subgraphNodes());
    auto counts = sg.hopCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 3u);
    EXPECT_EQ(counts[3], 3u * 27u);
    // Every child is a real neighbour of its parent.
    for (Slot s = 0; s < sg.size(); ++s) {
        const auto &e = sg[s];
        if (e.parent == kNoParent)
            continue;
        graph::NodeId parent = sg[e.parent].node;
        bool found = false;
        for (graph::NodeId n : g.neighbors(parent))
            if (n == e.node) {
                found = true;
                break;
            }
        EXPECT_TRUE(found) << "slot " << s;
        EXPECT_EQ(e.hop, sg[e.parent].hop + 1);
    }
}

TEST(CsrSampler, DeterministicAcrossCallsAndBatchSensitive)
{
    graph::Graph g = graph::generateRing(100, 10);
    ModelConfig m = model33();
    std::vector<graph::NodeId> targets = {0, 50};
    Subgraph a = csrSample(g, m, 7, targets);
    Subgraph b = csrSample(g, m, 7, targets);
    ASSERT_EQ(a.size(), b.size());
    for (Slot s = 0; s < a.size(); ++s)
        EXPECT_EQ(a[s].node, b[s].node);
    Subgraph c = csrSample(g, m, 8, targets);
    bool differs = false;
    for (Slot s = 0; s < a.size() && !differs; ++s)
        differs = a[s].node != c[s].node;
    EXPECT_TRUE(differs);
}

TEST(CsrSampler, ZeroDegreeNodesTruncate)
{
    std::vector<std::vector<graph::NodeId>> adj = {{1}, {}};
    graph::Graph g(adj);
    ModelConfig m = model33();
    std::vector<graph::NodeId> targets = {0};
    Subgraph sg = csrSample(g, m, 0, targets);
    // Target -> 3x node 1 (degree 0) -> nothing below.
    EXPECT_EQ(sg.size(), 4u);
}

TEST(DrawPrimary, PartitionsAcrossRegions)
{
    std::vector<dg::SecondaryRef> secs = {{dg::DgAddress(1, 0), 100},
                                          {dg::DgAddress(2, 0), 100}};
    // degree 250 = 50 in page + 100 + 100.
    PrimaryDraws d;
    drawPrimary(1, 0, 0, 42, 200, 250, 50, secs, d);
    std::uint32_t total = static_cast<std::uint32_t>(d.inPagePicks().size());
    for (const auto &h : d.secondaryHits())
        total += h.hits;
    EXPECT_EQ(total, 200u);
    for (auto p : d.inPagePicks())
        EXPECT_LT(p, 50u);
    // With 200 draws over 250 slots, both secondaries are hit w.h.p.;
    // hit sections are listed once each, by ascending index.
    ASSERT_EQ(d.secondaryHits().size(), 2u);
    EXPECT_EQ(d.secondaryHits()[0].secondary, 0u);
    EXPECT_EQ(d.secondaryHits()[1].secondary, 1u);
    EXPECT_GT(d.secondaryHits()[0].hits, 0u);
    EXPECT_GT(d.secondaryHits()[1].hits, 0u);

    // The caller's storage is overwritten, not appended to.
    drawPrimary(1, 0, 0, 42, 200, 0, 0, secs, d);
    EXPECT_TRUE(d.inPagePicks().empty());
    EXPECT_TRUE(d.secondaryHits().empty());
}

TEST(DrawPrimary, HitsFollowSectionOrderNotDrawOrder)
{
    // Many small secondaries: a full 255-draw fanout lands on them in
    // random order, yet the hit list is sorted and counts every draw.
    std::vector<dg::SecondaryRef> secs;
    for (std::uint32_t j = 0; j < 40; ++j)
        secs.push_back({dg::DgAddress(10 + j, 0), 7});
    PrimaryDraws d;
    drawPrimary(3, 1, 1, 7, 255, 5 + 40 * 7, 5, secs, d);
    std::uint32_t total = static_cast<std::uint32_t>(d.inPagePicks().size());
    auto hits = d.secondaryHits();
    for (std::size_t k = 0; k < hits.size(); ++k) {
        if (k > 0) {
            EXPECT_GT(hits[k].secondary, hits[k - 1].secondary);
        }
        EXPECT_LT(hits[k].secondary, 40u);
        EXPECT_GT(hits[k].hits, 0u);
        total += hits[k].hits;
    }
    EXPECT_EQ(total, 255u);
}

TEST(DrawSecondary, BoundsAndDeterminism)
{
    using Picks = std::vector<std::uint32_t>;
    auto draw = [](std::uint32_t secondary, std::uint32_t first_draw,
                   std::uint32_t count) {
        Picks out(count);
        drawSecondary(1, 0, 2, 42, secondary, first_draw, 64, out);
        return out;
    };
    Picks a = draw(1, 0, 5), b = draw(1, 0, 5);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 5u);
    for (auto p : a)
        EXPECT_LT(p, 64u);
    Picks c = draw(2, 0, 5);
    EXPECT_NE(a, c);
    // Splitting the draws (coalescing ablation) keeps the picks.
    Picks first = draw(1, 0, 2), rest = draw(1, 2, 3);
    first.insert(first.end(), rest.begin(), rest.end());
    EXPECT_EQ(first, a);
}

TEST(LayoutSampler, MatchesCsrWhenNoSpill)
{
    // Low-degree graph: everything fits in primary sections, so the
    // two disciplines are identical by construction.
    flash::FlashConfig cfg;
    cfg.channels = 2;
    cfg.diesPerChannel = 2;
    cfg.blocksPerPlane = 64;
    cfg.pagesPerBlock = 32;
    graph::Graph g = graph::generateRing(300, 12);
    graph::FeatureTable feat(16, 2);
    ssd::Ftl ftl(cfg);
    auto blocks = ftl.reserveBlocks(32);
    auto layout = dg::buildLayout(g, feat, cfg, blocks);
    for (const auto &nl : layout.nodes)
        ASSERT_TRUE(nl.secondaries.empty());

    ModelConfig m = model33();
    std::vector<graph::NodeId> targets = {3, 77, 200};
    Subgraph a = csrSample(g, m, 5, targets);
    Subgraph b = layoutSample(g, layout, m, 5, targets);
    ASSERT_EQ(a.size(), b.size());
    for (Slot s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].node, b[s].node);
        EXPECT_EQ(a[s].hop, b[s].hop);
        EXPECT_EQ(a[s].parent, b[s].parent);
    }
}

TEST(LayoutSampler, SpilledNodesStillSampleOwnNeighbors)
{
    flash::FlashConfig cfg;
    cfg.channels = 2;
    cfg.diesPerChannel = 2;
    cfg.blocksPerPlane = 128;
    cfg.pagesPerBlock = 32;
    // Hub node 0 with a huge neighbour list.
    std::vector<std::vector<graph::NodeId>> adj(64);
    for (graph::NodeId i = 0; i < 5000; ++i)
        adj[0].push_back(1 + (i % 63));
    for (graph::NodeId v = 1; v < 64; ++v)
        adj[v] = {0, static_cast<graph::NodeId>(v % 63 + 1)};
    graph::Graph g(adj);
    graph::FeatureTable feat(16, 2);
    ssd::Ftl ftl(cfg);
    auto layout = dg::buildLayout(g, feat, cfg, ftl.reserveBlocks(64));
    ASSERT_GT(layout.nodes[0].secondaries.size(), 0u);

    ModelConfig m = model33();
    m.fanout = 8; // More draws to hit the secondaries.
    std::vector<graph::NodeId> targets = {0};
    Subgraph sg = layoutSample(g, layout, m, 1, targets);
    for (Slot s = 0; s < sg.size(); ++s) {
        const auto &e = sg[s];
        if (e.parent == kNoParent)
            continue;
        graph::NodeId parent = sg[e.parent].node;
        bool found = false;
        for (graph::NodeId n : g.neighbors(parent))
            if (n == e.node)
                found = true;
        EXPECT_TRUE(found);
    }
    // Hop-1 children of node 0 exist with full fanout.
    auto counts = sg.hopCounts();
    EXPECT_EQ(counts[1], 8u);
}

TEST(Subgraph, ChildrenIndexAndHopCounts)
{
    Subgraph sg;
    Slot r = sg.add(10, 0, kNoParent);
    Slot a = sg.add(11, 1, r);
    Slot b = sg.add(12, 1, r);
    sg.add(13, 2, a);
    auto idx = sg.childrenIndex();
    ASSERT_EQ(idx[r].size(), 2u);
    EXPECT_EQ(idx[r][0], a);
    EXPECT_EQ(idx[r][1], b);
    EXPECT_EQ(idx[a].size(), 1u);
    auto counts = sg.hopCounts();
    EXPECT_EQ(counts, (std::vector<std::uint32_t>{1, 2, 1}));
}

TEST(Compute, ForwardDeterministicAndShaped)
{
    graph::Graph g = graph::generateRing(100, 8);
    graph::FeatureTable feat(32, 3);
    ModelConfig m = model33();
    std::vector<graph::NodeId> targets = {1, 2, 3};
    Subgraph sg = csrSample(g, m, 0, targets);

    auto out1 = forward(sg, feat, m);
    auto out2 = forward(sg, feat, m);
    ASSERT_EQ(out1.size(), 3u);
    ASSERT_EQ(out1[0].size(), m.hiddenDim);
    for (std::size_t t = 0; t < out1.size(); ++t)
        for (std::size_t i = 0; i < out1[t].size(); ++i)
            EXPECT_EQ(out1[t][i], out2[t][i]);
    // ReLU output is nonnegative, and not all zero.
    float sum = 0;
    for (const auto &v : out1)
        for (float x : v) {
            EXPECT_GE(x, 0.0f);
            sum += x;
        }
    EXPECT_GT(sum, 0.0f);
}

TEST(Compute, EmbeddingDependsOnSubgraph)
{
    graph::Graph g = graph::generateRing(100, 8);
    graph::FeatureTable feat(32, 3);
    ModelConfig m = model33();
    std::vector<graph::NodeId> t1 = {1};
    std::vector<graph::NodeId> t2 = {2};
    auto o1 = forward(csrSample(g, m, 0, t1), feat, m);
    auto o2 = forward(csrSample(g, m, 0, t2), feat, m);
    bool differs = false;
    for (std::size_t i = 0; i < o1[0].size(); ++i)
        differs |= o1[0][i] != o2[0][i];
    EXPECT_TRUE(differs);
}

TEST(Compute, MeanAggregationDiffersFromSum)
{
    graph::Graph g = graph::generateRing(50, 6);
    graph::FeatureTable feat(16, 3);
    ModelConfig m = model33();
    std::vector<graph::NodeId> targets = {7};
    Subgraph sg = csrSample(g, m, 0, targets);
    auto sum_out = forward(sg, feat, m);
    m.aggregation = Aggregation::Mean;
    auto mean_out = forward(sg, feat, m);
    bool differs = false;
    for (std::size_t i = 0; i < sum_out[0].size(); ++i)
        differs |= sum_out[0][i] != mean_out[0][i];
    EXPECT_TRUE(differs);
}

TEST(Compute, MeasureMatchesEstimateOnFullSubgraphs)
{
    graph::Graph g = graph::generateRing(500, 10);
    ModelConfig m = model33();
    std::vector<graph::NodeId> targets(8);
    for (std::size_t i = 0; i < targets.size(); ++i)
        targets[i] = static_cast<graph::NodeId>(i * 20);
    Subgraph sg = csrSample(g, m, 0, targets);
    ComputeWorkload measured = measureCompute(sg, m);
    ComputeWorkload estimated = estimateCompute(m, 8);
    ASSERT_EQ(measured.gemms.size(), estimated.gemms.size());
    for (std::size_t l = 0; l < measured.gemms.size(); ++l) {
        EXPECT_EQ(measured.gemms[l].m, estimated.gemms[l].m);
        EXPECT_EQ(measured.gemms[l].k, estimated.gemms[l].k);
    }
    EXPECT_EQ(measured.aggregateElements, estimated.aggregateElements);
}

} // namespace
