/**
 * @file
 * Tests for the CSR graph, synthetic generators, feature tables and
 * the workload specs of Table III.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/dataset.h"
#include "graph/generator.h"
#include "graph/graph.h"

namespace {

using namespace beacongnn::graph;

TEST(Graph, AdjacencyConstruction)
{
    std::vector<std::vector<NodeId>> adj = {{1, 2}, {2}, {}, {0, 1, 2}};
    Graph g(adj);
    EXPECT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.numEdges(), 6u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(2), 0u);
    EXPECT_EQ(g.degree(3), 3u);
    EXPECT_EQ(g.neighbor(0, 1), 2u);
    EXPECT_EQ(g.firstEdge(3), 3u);
    EXPECT_EQ(g.neighbor(3, 0), 0u);
    EXPECT_EQ(g.edgeTarget(3), 0u);
    EXPECT_DOUBLE_EQ(g.avgDegree(), 1.5);
}

TEST(Graph, EmptyGraph)
{
    Graph g;
    EXPECT_EQ(g.numNodes(), 0u);
    EXPECT_EQ(g.numEdges(), 0u);
    EXPECT_DOUBLE_EQ(g.avgDegree(), 0.0);
}

TEST(Generator, RingStructure)
{
    Graph g = generateRing(10, 3);
    EXPECT_EQ(g.numNodes(), 10u);
    EXPECT_EQ(g.numEdges(), 30u);
    for (NodeId v = 0; v < 10; ++v) {
        EXPECT_EQ(g.degree(v), 3u);
        EXPECT_EQ(g.neighbor(v, 0), (v + 1) % 10);
        EXPECT_EQ(g.neighbor(v, 2), (v + 3) % 10);
    }
}

TEST(Generator, PowerLawHitsAverageDegree)
{
    GeneratorParams p;
    p.nodes = 20000;
    p.avgDegree = 48.0;
    p.seed = 99;
    Graph g = generatePowerLaw(p);
    EXPECT_EQ(g.numNodes(), 20000u);
    EXPECT_NEAR(g.avgDegree(), 48.0, 48.0 * 0.1);
    // All endpoints in range.
    for (NodeId v = 0; v < 100; ++v)
        for (std::uint32_t i = 0; i < g.degree(v); ++i)
            EXPECT_LT(g.neighbor(v, i), g.numNodes());
}

TEST(Generator, PowerLawIsSkewed)
{
    GeneratorParams p;
    p.nodes = 20000;
    p.avgDegree = 30.0;
    p.maxDegree = 20000;
    Graph g = generatePowerLaw(p);
    std::uint32_t max_deg = 0;
    std::uint64_t small = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        max_deg = std::max(max_deg, g.degree(v));
        if (g.degree(v) <= 30)
            ++small;
    }
    // Heavy tail: the max far exceeds the mean; most nodes are below.
    EXPECT_GT(max_deg, 300u);
    EXPECT_GT(small, g.numNodes() / 2);
}

TEST(Generator, Deterministic)
{
    GeneratorParams p;
    p.nodes = 500;
    p.avgDegree = 16;
    Graph a = generatePowerLaw(p);
    Graph b = generatePowerLaw(p);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (NodeId v = 0; v < a.numNodes(); ++v) {
        ASSERT_EQ(a.degree(v), b.degree(v));
        for (std::uint32_t i = 0; i < a.degree(v); ++i)
            ASSERT_EQ(a.neighbor(v, i), b.neighbor(v, i));
    }
}

TEST(Generator, SeedChangesGraph)
{
    GeneratorParams p;
    p.nodes = 500;
    p.avgDegree = 16;
    Graph a = generatePowerLaw(p);
    p.seed = 43;
    Graph b = generatePowerLaw(p);
    bool differs = a.numEdges() != b.numEdges();
    for (NodeId v = 0; !differs && v < a.numNodes(); ++v)
        differs = a.degree(v) != b.degree(v) ||
                  (a.degree(v) > 0 && a.neighbor(v, 0) != b.neighbor(v, 0));
    EXPECT_TRUE(differs);
}

TEST(Generator, EveryEndpointIsInRangeAndFixedBySeed)
{
    GeneratorParams p;
    p.nodes = 3000;
    p.avgDegree = 40;
    p.seed = 11;
    const Graph a = generatePowerLaw(p);
    const Graph again = generatePowerLaw(p);
    p.seed = 12;
    const Graph other = generatePowerLaw(p);
    ASSERT_EQ(a.numEdges(), again.numEdges());
    std::uint64_t same_as_other = 0;
    const std::uint64_t shared = std::min(a.numEdges(), other.numEdges());
    for (std::uint64_t e = 0; e < a.numEdges(); ++e) {
        ASSERT_LT(a.edgeTarget(e), p.nodes) << "edge " << e;
        ASSERT_EQ(a.edgeTarget(e), again.edgeTarget(e)) << "edge " << e;
        if (e < shared && a.edgeTarget(e) == other.edgeTarget(e))
            ++same_as_other;
    }
    // Another seed keys another stream: endpoints agree only by chance
    // (expected 1 in 3,000).
    EXPECT_LT(same_as_other, shared / 100);
}

TEST(Generator, EndpointsAreNearUniform)
{
    GeneratorParams p;
    p.nodes = 1000;
    p.avgDegree = 200;
    const Graph g = generatePowerLaw(p);
    // Ten equal bins of node ids; each expects a tenth of the edges,
    // with a standard deviation near 0.7% of that at ~200k edges.
    constexpr unsigned kBins = 10;
    std::vector<std::uint64_t> bins(kBins, 0);
    for (std::uint64_t e = 0; e < g.numEdges(); ++e)
        ++bins[g.edgeTarget(e) * kBins / p.nodes];
    const double expect = static_cast<double>(g.numEdges()) / kBins;
    for (unsigned b = 0; b < kBins; ++b)
        EXPECT_NEAR(static_cast<double>(bins[b]), expect, 0.05 * expect)
            << "bin " << b;
}

TEST(FeatureTable, DeterministicAndSeeded)
{
    FeatureTable a(64, 7), b(64, 7), c(64, 8);
    EXPECT_EQ(a.raw(10, 3), b.raw(10, 3));
    EXPECT_NE(a.raw(10, 3), c.raw(10, 3));
    EXPECT_EQ(a.bytesPerNode(), 128u);
    float v = a.value(5, 5);
    EXPECT_GE(v, -1.0f);
    EXPECT_LT(v, 1.0f);
}

TEST(FeatureTable, FillMatchesRaw)
{
    FeatureTable f(8, 3);
    std::vector<std::uint8_t> buf(16);
    f.fill(42, buf);
    for (std::uint16_t i = 0; i < 8; ++i) {
        std::uint16_t got = static_cast<std::uint16_t>(
            buf[2 * i] | (buf[2 * i + 1] << 8));
        EXPECT_EQ(got, f.raw(42, i));
    }
}

TEST(Workloads, FiveSpecsOfTableIII)
{
    const auto &specs = workloads();
    ASSERT_EQ(specs.size(), 5u);
    std::set<std::string> names;
    for (const auto &s : specs) {
        names.insert(s.name);
        EXPECT_GT(s.simNodes, 0u);
        EXPECT_GT(s.avgDegree, 0.0);
        EXPECT_GT(s.featureDim, 0u);
        EXPECT_GT(s.paperRawGB, 0.0);
    }
    EXPECT_EQ(names.size(), 5u);
    EXPECT_TRUE(names.count("reddit"));
    EXPECT_TRUE(names.count("amazon"));
    EXPECT_TRUE(names.count("OGBN"));
}

TEST(Workloads, LookupByName)
{
    const auto &amazon = workload("amazon");
    EXPECT_EQ(amazon.name, "amazon");
    EXPECT_EQ(amazon.featureBytes(), amazon.featureDim * 2u);
    EXPECT_DEATH({ workload("nope"); }, "unknown workload");
}

TEST(Workloads, InstantiationMatchesSpec)
{
    auto spec = workload("OGBN");
    spec.simNodes = 5000; // Shrink for the test.
    Graph g = spec.makeGraph();
    EXPECT_EQ(g.numNodes(), 5000u);
    EXPECT_NEAR(g.avgDegree(), spec.avgDegree, spec.avgDegree * 0.15);
    FeatureTable f = spec.makeFeatures();
    EXPECT_EQ(f.dim(), spec.featureDim);
}

} // namespace

namespace {

using namespace beacongnn::graph;

TEST(Rmat, ShapeAndDeterminism)
{
    RmatParams p;
    p.nodes = 4000;
    p.avgDegree = 12;
    Graph a = generateRmat(p);
    Graph b = generateRmat(p);
    EXPECT_EQ(a.numNodes(), 4000u);
    EXPECT_NEAR(a.avgDegree(), 12.0, 2.0);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (NodeId v = 0; v < a.numNodes(); v += 97)
        ASSERT_EQ(a.degree(v), b.degree(v));
    // Every node can be sampled from (min degree 1).
    for (NodeId v = 0; v < a.numNodes(); ++v)
        ASSERT_GE(a.degree(v), 1u);
}

TEST(Rmat, SkewedDegrees)
{
    RmatParams p;
    p.nodes = 8192;
    p.avgDegree = 20;
    Graph g = generateRmat(p);
    std::uint32_t max_deg = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        max_deg = std::max(max_deg, g.degree(v));
    // Graph500 parameters concentrate edges heavily.
    EXPECT_GT(max_deg, 10u * 20u);
}

TEST(Rmat, RejectsBadProbabilities)
{
    RmatParams p;
    p.a = 0.9;
    p.b = 0.9; // Sums to 2.03.
    EXPECT_DEATH({ generateRmat(p); }, "sum to 1");
}

} // namespace
