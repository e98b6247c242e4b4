/**
 * @file
 * Tests for the replica-aware placement layer and health-aware fault
 * routing (DESIGN.md §17): chained-declustered replica sets are
 * distinct and clamp correctly, replication = 1 is byte-identical to
 * the historical single-owner Partition, and a replicated array run
 * with a device killed produces byte-identical fingerprints across
 * worker counts — the determinism property extended to faulted runs.
 * Also pins the kill-spec parser and the single-device kill rule.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "graph/dataset.h"
#include "platforms/options.h"
#include "platforms/partition.h"
#include "platforms/report.h"
#include "sim/executor.h"
#include "sim/metrics.h"
#include "sim/trace_events.h"

namespace {

using namespace beacongnn;
using platforms::Partition;
using platforms::PartitionPolicy;
using platforms::Placement;

graph::Graph
testGraph(graph::NodeId nodes = 1500)
{
    auto spec = graph::workload("amazon");
    spec.simNodes = nodes;
    return spec.makeGraph();
}

const std::vector<PartitionPolicy> kPolicies = {
    PartitionPolicy::Hash, PartitionPolicy::Range,
    PartitionPolicy::Balanced};

// ==================================================================
// Placement: replica structure.
// ==================================================================

TEST(Placement, ReplicasDistinctAndChained)
{
    auto g = testGraph();
    for (PartitionPolicy pol : kPolicies) {
        for (unsigned r : {2u, 3u}) {
            Placement pl = Placement::build(g, pol, 4, r);
            Partition pa = Partition::build(g, pol, 4);
            ASSERT_EQ(pl.replication(), r);
            for (graph::NodeId v = 0; v < g.numNodes(); ++v) {
                std::vector<unsigned> reps = pl.replicasOf(v);
                ASSERT_EQ(reps.size(), r);
                // Replica 0 is the policy-assigned primary.
                ASSERT_EQ(reps[0], pa.ownerOf(v));
                ASSERT_EQ(reps[0], pl.primaryOf(v));
                std::set<unsigned> distinct(reps.begin(), reps.end());
                ASSERT_EQ(distinct.size(), r) << "node " << v;
                for (unsigned k = 0; k < r; ++k)
                    ASSERT_EQ(reps[k], (pa.ownerOf(v) + k) % 4u);
            }
        }
    }
}

TEST(Placement, ReplicationClampsToDeviceCount)
{
    auto g = testGraph(400);
    // 0 clamps up to 1; anything beyond the device count clamps down.
    EXPECT_EQ(
        Placement::build(g, PartitionPolicy::Hash, 4, 0).replication(),
        1u);
    EXPECT_EQ(
        Placement::build(g, PartitionPolicy::Hash, 4, 99).replication(),
        4u);
}

TEST(Placement, SingleDeviceIsDegenerate)
{
    auto g = testGraph(400);
    Placement pl = Placement::build(g, PartitionPolicy::Hash, 1, 3);
    EXPECT_EQ(pl.replication(), 1u);
    EXPECT_TRUE(pl.table().empty());
    EXPECT_EQ(pl.primaryOf(0), 0u);
    std::vector<unsigned> want = {0};
    EXPECT_EQ(pl.replicasOf(g.numNodes() - 1), want);
}

// ==================================================================
// Placement: replication = 1 is the historical Partition.
// ==================================================================

TEST(Placement, ReplicationOneMatchesPartitionByteForByte)
{
    auto g = testGraph();
    for (PartitionPolicy pol : kPolicies) {
        Placement pl = Placement::build(g, pol, 4, 1);
        Partition pa = Partition::build(g, pol, 4);
        // The engine routes off table(); identical tables mean the
        // degenerate placement routes byte-identically.
        EXPECT_EQ(pl.table(), pa.table())
            << platforms::partitionPolicyName(pol);
        EXPECT_EQ(pl.degreeSpread(), pa.degreeSpread());
        for (unsigned d = 0; d < 4; ++d) {
            EXPECT_EQ(pl.nodesOn(d), pa.nodesOn(d));
            EXPECT_EQ(pl.degreeOn(d), pa.degreeOn(d));
        }
    }
}

// ==================================================================
// Faulted array runs: byte-identical across worker counts.
// ==================================================================

struct FaultRig
{
    std::unique_ptr<platforms::WorkloadBundle> bundle;
    platforms::RunConfig rc;

    FaultRig()
    {
        gnn::ModelConfig model;
        ssd::SystemConfig sys;
        auto spec = graph::workload("amazon");
        spec.simNodes = 4000;
        bundle = platforms::makeBundle(spec, sys.flash, model);
        rc.batchSize = 32;
        rc.batches = 2;
    }

    ~FaultRig() { sim::SimExecutor::setDefaultJobs(0); }

    struct Fingerprint
    {
        std::string json, csv, trace;
        std::uint64_t fallbacks = 0;
        bool ok = false;

        bool
        operator==(const Fingerprint &o) const
        {
            return json == o.json && csv == o.csv &&
                   trace == o.trace && fallbacks == o.fallbacks &&
                   ok == o.ok;
        }
    };

    Fingerprint
    run(const platforms::TopologyConfig &topo, unsigned jobs)
    {
        sim::SimExecutor::setDefaultJobs(jobs);
        sim::TraceSink sink;
        platforms::RunConfig traced = rc;
        traced.traceSink = &sink;
        traced.topology = topo;
        sim::MetricRegistry reg;
        auto r = platforms::runPlatform(
            platforms::makePlatform(platforms::PlatformKind::BG2), traced,
            *bundle, &reg);
        Fingerprint fp;
        fp.ok = r.ok;
        fp.fallbacks = r.replicaFallbacks;
        std::ostringstream json, csv, trace;
        reg.writeJson(json);
        platforms::writeCsvRow(csv, r);
        sink.write(trace);
        fp.json = json.str();
        fp.csv = csv.str();
        fp.trace = trace.str();
        return fp;
    }
};

TEST(FaultDeterminism, KilledDeviceReroutesIdenticallyAcrossJobs)
{
    FaultRig rig;
    // Device 3 is down from tick 0: every command whose primary is
    // dev3 must fall back to a surviving replica, on any worker count.
    rig.rc.kills.push_back(platforms::KillEvent{3, -1, 0});
    platforms::TopologyConfig acfg;
    acfg.devices = 8;
    acfg.replication = 2;
    auto j1 = rig.run(acfg, 1);
    auto j2 = rig.run(acfg, 2);
    auto j8 = rig.run(acfg, 8);
    EXPECT_TRUE(j1.ok); // R=2 absorbs the kill; no command is lost.
    EXPECT_GT(j1.fallbacks, 0u);
    EXPECT_EQ(j1, j2);
    EXPECT_EQ(j1, j8);
    // The fault instruments exist on a faulted run.
    EXPECT_NE(j1.json.find("engine.router.replica_fallbacks"),
              std::string::npos);
    EXPECT_NE(j1.json.find("health.alive"), std::string::npos);
}

TEST(FaultDeterminism, UnreplicatedKillFailsDeterministically)
{
    FaultRig rig;
    // With replication = 1 there is nowhere to reroute: commands for
    // the dead device abort — but identically on every worker count.
    rig.rc.kills.push_back(platforms::KillEvent{1, -1, 0});
    platforms::TopologyConfig acfg;
    acfg.devices = 4;
    auto j1 = rig.run(acfg, 1);
    auto j4 = rig.run(acfg, 4);
    EXPECT_FALSE(j1.ok);
    EXPECT_EQ(j1.fallbacks, 0u);
    EXPECT_EQ(j1, j4);
}

TEST(FaultDeterminism, DisturbedReadsIdenticalAcrossJobs)
{
    FaultRig rig;
    // Read-retry disturbance only (no kills): timing inflates but the
    // hash-chain draw is device/die/seq-keyed, so outputs still match.
    rig.rc.system.disturb.retryProb = 0.05;
    platforms::TopologyConfig acfg;
    acfg.devices = 4;
    auto j1 = rig.run(acfg, 1);
    auto j4 = rig.run(acfg, 4);
    EXPECT_TRUE(j1.ok);
    EXPECT_NE(j1.json.find("flash.retries"), std::string::npos);
    EXPECT_EQ(j1, j4);
}

TEST(FaultDeterminism, ReplicationAloneKeepsRunHealthy)
{
    FaultRig rig;
    platforms::TopologyConfig acfg;
    acfg.devices = 4;
    acfg.replication = 2;
    auto j1 = rig.run(acfg, 1);
    auto j4 = rig.run(acfg, 4);
    EXPECT_TRUE(j1.ok);
    EXPECT_EQ(j1, j4);
    // No faults: replication spreads load but never falls back.
    EXPECT_NE(j1.json.find("array.replication"), std::string::npos);
}

} // namespace

// ==================================================================
// Kill specs and the single-device kill rule.
// ==================================================================

namespace {

using platforms::KillEvent;
using platforms::parseKillEvent;

TEST(KillSpec, ParsesDeviceAndDieKills)
{
    auto dev = parseKillEvent("3@5");
    ASSERT_TRUE(dev);
    EXPECT_EQ(dev->device, 3u);
    EXPECT_EQ(dev->die, -1);
    EXPECT_EQ(dev->at, sim::microseconds(5));
    auto die = parseKillEvent("0.7@0");
    ASSERT_TRUE(die);
    EXPECT_EQ(die->device, 0u);
    EXPECT_EQ(die->die, 7);
    EXPECT_EQ(die->at, 0u);
    // The largest time whose tick conversion still fits.
    const std::uint64_t max_us = sim::kTickMax / sim::microseconds(1);
    auto late = parseKillEvent("0@" + std::to_string(max_us));
    ASSERT_TRUE(late);
    EXPECT_EQ(late->at, sim::microseconds(max_us));
}

TEST(KillSpec, RejectsSignsBlanksAndWrappedValues)
{
    for (const char *bad :
         {"0@-5", "0@+5", "-1@5", "+1@5", "0.-1@5", "0.+1@5", " 0@5",
          "0@5 ", "0@", "@5", "0", "0.@5", "0@5x", "0@0x10",
          // Wraps the tick conversion: used to kill at 384 ticks.
          "0@18446744073709552", "4294967296@0", "0.2147483648@0",
          "0@99999999999999999999"}) {
        EXPECT_FALSE(parseKillEvent(bad)) << bad;
    }
}

TEST(KillSpec, SplitListDropsEmptyItems)
{
    EXPECT_EQ(platforms::splitList("0@1,,1.2@3,"),
              (std::vector<std::string>{"0@1", "1.2@3"}));
    EXPECT_TRUE(platforms::splitList("").empty());
}

TEST(SingleDeviceKill, DeadTargetsAreRejectedOnTheHost)
{
    // One SSD is an array of one: with its only device dead at
    // submission, every target is rejected host-side, exactly as an
    // R = 1 array rejects a target whose only replica is dead. No
    // command is issued, so no flash read fails.
    gnn::ModelConfig model;
    platforms::RunConfig rc;
    rc.batches = 2;
    rc.batchSize = 16;
    rc.kills.push_back(KillEvent{0, -1, 0});
    graph::WorkloadSpec spec = graph::workload("OGBN");
    spec.simNodes = 2000;
    auto bundle = platforms::makeBundle(spec, rc.system.flash, model);
    sim::MetricRegistry reg;
    platforms::RunResult r = platforms::runPlatform(
        platforms::makePlatform(platforms::PlatformKind::BG2), rc,
        *bundle, &reg);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(reg.counter("engine.commands").value(), 0u);
    EXPECT_EQ(reg.counter("flash.failed_reads").value(), 0u);
    EXPECT_EQ(reg.counter("engine.aborted_commands").value(), 32u);
}

} // namespace
