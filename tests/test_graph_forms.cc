/**
 * @file
 * Keyed and stored edges give the same bytes.
 *
 * A synthetic workload's graph derives each edge endpoint from a keyed
 * hash instead of storing it (DESIGN.md §1). This suite builds a
 * stored CSR copy of such a graph through Graph(adjacency), filled
 * from neighbor(v, i), lays both out and runs both. Every output must
 * be byte-identical: the layout statistics, and the metrics JSON, CSV
 * row and Chrome trace of every platform on one device, of a cached
 * Zipf BG-2 array at one and four workers, and of every vertex
 * program.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "platforms/algo_runner.h"
#include "platforms/platform.h"
#include "platforms/report.h"
#include "platforms/runner.h"
#include "sim/executor.h"
#include "sim/metrics.h"
#include "sim/trace_events.h"

namespace {

using namespace beacongnn;
using platforms::PlatformKind;
using platforms::RunConfig;
using platforms::WorkloadBundle;

/** A stored CSR copy of @p g, filled edge by edge from neighbor(). */
graph::Graph
storedCopy(const graph::Graph &g)
{
    std::vector<std::vector<graph::NodeId>> adj(g.numNodes());
    for (graph::NodeId v = 0; v < g.numNodes(); ++v)
        for (std::uint32_t i = 0; i < g.degree(v); ++i)
            adj[v].push_back(g.neighbor(v, i));
    return graph::Graph(adj);
}

/** The three output surfaces of one run. */
struct Outputs
{
    std::string json, csv, trace;

    bool
    operator==(const Outputs &o) const
    {
        return json == o.json && csv == o.csv && trace == o.trace;
    }
};

class GraphForms : public ::testing::Test
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
        run.batchSize = 16;
        run.batches = 2;
        keyed = platforms::makeBundle(spec, run.system.flash, model)
                    .release();
        stored = platforms::makeBundle(spec, storedCopy(keyed->graph),
                                       run.system.flash, model)
                     .release();
    }

    static void
    TearDownTestSuite()
    {
        delete keyed;
        delete stored;
        keyed = stored = nullptr;
        sim::SimExecutor::setDefaultJobs(0);
    }

    /** Run @p kind on @p b with tracing and a registry. */
    static Outputs
    outputs(const WorkloadBundle &b, PlatformKind kind, RunConfig rc)
    {
        sim::TraceSink sink;
        rc.traceSink = &sink;
        sim::MetricRegistry reg;
        platforms::RunResult r = platforms::runPlatform(
            platforms::makePlatform(kind), rc, b, &reg);
        EXPECT_TRUE(r.ok);
        Outputs o;
        std::ostringstream json, csv, trace;
        reg.writeJson(json);
        platforms::writeCsvRow(csv, r);
        sink.write(trace);
        o.json = json.str();
        o.csv = csv.str();
        o.trace = trace.str();
        return o;
    }

    static WorkloadBundle *keyed;
    static WorkloadBundle *stored;
    static RunConfig run;
};

WorkloadBundle *GraphForms::keyed = nullptr;
WorkloadBundle *GraphForms::stored = nullptr;
RunConfig GraphForms::run;

TEST_F(GraphForms, StoredCopyHasTheSameEdges)
{
    const graph::Graph &a = keyed->graph;
    const graph::Graph &b = stored->graph;
    ASSERT_EQ(a.numNodes(), b.numNodes());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (std::uint64_t e = 0; e < a.numEdges(); ++e)
        ASSERT_EQ(a.edgeTarget(e), b.edgeTarget(e)) << "edge " << e;
}

TEST_F(GraphForms, LayoutsAreIdentical)
{
    const dg::BuildStats &a = keyed->layout.stats;
    const dg::BuildStats &b = stored->layout.stats;
    EXPECT_EQ(a.rawBytes, b.rawBytes);
    EXPECT_EQ(a.primaryPages, b.primaryPages);
    EXPECT_EQ(a.secondaryPages, b.secondaryPages);
    EXPECT_EQ(a.usedBytes, b.usedBytes);
    EXPECT_EQ(a.flashBytes, b.flashBytes);
    EXPECT_EQ(a.blockBytes, b.blockBytes);
    EXPECT_EQ(a.nodesWithSecondaries, b.nodesWithSecondaries);
    EXPECT_EQ(keyed->layout.secondaries.size(),
              stored->layout.secondaries.size());
    EXPECT_EQ(keyed->layout.pages.size(), stored->layout.pages.size());
    EXPECT_EQ(keyed->layout.blocks, stored->layout.blocks);
}

TEST_F(GraphForms, EveryPlatformGivesIdenticalOutputs)
{
    for (PlatformKind kind : platforms::allPlatforms()) {
        SCOPED_TRACE(platforms::platformName(kind));
        const Outputs a = outputs(*keyed, kind, run);
        EXPECT_FALSE(a.trace.empty());
        EXPECT_TRUE(a == outputs(*stored, kind, run));
    }
}

TEST_F(GraphForms, CachedZipfArrayGivesIdenticalOutputsAtOneAndFourWorkers)
{
    RunConfig rc = run;
    rc.topology.devices = 8;
    rc.cache.capacityMB = 4.0;
    rc.cache.policy = cache::CachePolicy::MsLru;
    rc.zipfTheta = 0.8;
    Outputs first;
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        sim::SimExecutor::setDefaultJobs(jobs);
        const Outputs a = outputs(*keyed, PlatformKind::BG2, rc);
        EXPECT_TRUE(a == outputs(*stored, PlatformKind::BG2, rc));
        if (jobs == 1)
            first = a;
        else
            EXPECT_TRUE(a == first);
    }
    sim::SimExecutor::setDefaultJobs(0);
}

TEST_F(GraphForms, VertexProgramsGiveIdenticalOutputs)
{
    for (gnn::AlgoKind algo : {gnn::AlgoKind::PageRank, gnn::AlgoKind::Bfs,
                               gnn::AlgoKind::KCore}) {
        platforms::AlgoRunConfig ac;
        ac.program.algo = algo;
        auto once = [&](const WorkloadBundle &b) {
            RunConfig rc = run;
            sim::TraceSink sink;
            rc.traceSink = &sink;
            sim::MetricRegistry reg;
            platforms::AlgoRunResult r = platforms::runVertexProgram(
                platforms::makePlatform(PlatformKind::BG2), rc, b, ac,
                &reg);
            EXPECT_TRUE(r.ok);
            std::ostringstream json, row, trace;
            reg.writeJson(json);
            // The fields bgnsim's --csv writes, doubles in hex so the
            // comparison is exact.
            row << r.algo << ',' << r.converged << ',' << r.iterations
                << ',' << r.frontierNodes << ',' << r.totalTime << ','
                << std::hexfloat << r.throughput << ',' << r.checksum;
            sink.write(trace);
            return Outputs{json.str(), row.str(), trace.str()};
        };
        const Outputs a = once(*keyed);
        SCOPED_TRACE(a.csv);
        EXPECT_TRUE(a == once(*stored));
    }
}

} // namespace
