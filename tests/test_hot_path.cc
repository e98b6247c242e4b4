/**
 * @file
 * Heap-allocation budget of the command hot path.
 *
 * This binary replaces the global operator new with a counting one and
 * runs whole mini-batches through a PlatformSession. Once the session
 * is warm (event-queue slots, per-device result buffers and the lane
 * vectors have reached their steady capacity), a BG-2 flash command
 * must cost (almost) no heap allocation: the event kernel parks each
 * callback in a reused slot, the die sampler draws into caller-owned
 * storage and the engine reuses one result buffer per device.
 *
 * The same counter also totals the bytes requested, which bounds the
 * memory a synthetic graph costs, and bounds the allocations of a
 * DirectGraph layout build independently of the node count. The counts are exact, not timed, so
 * the bounds are deterministic.
 * The checked build's validator allocates per event by design, so the
 * tests skip there.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "directgraph/builder.h"
#include "gnn/compute.h"
#include "graph/dataset.h"
#include "platforms/runner.h"
#include "sim/rng.h"
#include "sim/validator.h"
#include "ssd/ftl.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void *
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace beacongnn;

constexpr std::uint32_t kBatchSize = 128;
constexpr unsigned kWarmBatches = 4;
constexpr unsigned kMeasuredBatches = 8;

/** Allocations and flash commands of the measured batches. */
struct Budget
{
    std::uint64_t allocations = 0;
    std::uint64_t commands = 0;
    double perBatch() const
    {
        return static_cast<double>(allocations) / kMeasuredBatches;
    }
    double perCommand() const
    {
        return static_cast<double>(allocations) /
               static_cast<double>(commands);
    }
};

/** Run @p kind on amazon with 128-target uniform batches: warm up,
 *  then count the allocations of the later batches. */
Budget
measure(platforms::PlatformKind kind)
{
    static const auto bundle = [] {
        platforms::RunConfig rc;
        return platforms::makeBundle(graph::workload("amazon"),
                                     rc.system.flash, {});
    }();
    platforms::RunConfig rc;
    rc.batchSize = kBatchSize;
    platforms::PlatformSession session(platforms::makePlatform(kind), rc,
                                       *bundle);

    // Every target list is drawn before counting starts.
    sim::Pcg32 rng(0xF00D);
    std::vector<std::vector<graph::NodeId>> batches(kWarmBatches +
                                                    kMeasuredBatches);
    for (auto &targets : batches) {
        targets.resize(kBatchSize);
        for (auto &t : targets)
            t = rng.below(bundle->graph.numNodes());
    }
    auto commands = [&] {
        const sim::Counter *c =
            session.metrics().findCounter("engine.commands");
        return c ? c->value() : 0;
    };

    for (unsigned i = 0; i < kWarmBatches; ++i)
        session.runBatch(session.prepFree(), batches[i]);
    Budget b;
    const std::uint64_t cmd0 = commands();
    const std::uint64_t alloc0 = g_allocations.load();
    for (unsigned i = kWarmBatches; i < batches.size(); ++i)
        session.runBatch(session.prepFree(), batches[i]);
    b.allocations = g_allocations.load() - alloc0;
    b.commands = commands() - cmd0;
    return b;
}

TEST(HotPath, SteadyStateAllocationsPerCommand)
{
    if constexpr (sim::kCheckedBuild)
        GTEST_SKIP() << "the checked build's validator allocates per event";
    Budget b = measure(platforms::PlatformKind::BG2);
    ASSERT_GT(b.commands, kMeasuredBatches * kBatchSize);
    // Per batch, only the batch's own state (the Batch object, its
    // lanes, subgraph and result) is allocated; a command costs none.
    EXPECT_LT(b.perCommand(), 0.25)
        << b.allocations << " allocations over " << b.commands
        << " commands";
}

TEST(HotPath, ConventionalBatchesBuildNoChildrenIndex)
{
    if constexpr (sim::kCheckedBuild)
        GTEST_SKIP() << "the checked build's validator allocates per event";
    // CC samples on the host and reads through the firmware path. Each
    // batch's compute measurement used to add a children index: one
    // vector per sampled parent, grown three times for fanout 3, so
    // 1 + 3 x 1,664 parents = 4,993 allocations of the 9,524 a batch
    // cost. Counting children from the parent links removes them all.
    // Each visit then built a page list and a dedupe set (~4,400 of
    // the remaining 4,531); the lane's reused page buffer removes
    // those, leaving ~106 allocations of batch-scoped state.
    Budget b = measure(platforms::PlatformKind::CC);
    ASSERT_GT(b.commands, 0u);
    EXPECT_LT(b.perBatch(), 200.0) << b.allocations << " allocations, "
                                   << b.commands << " commands";
}

/** Allocations of one measureCompute() call on a subgraph of
 *  @p targets full 3-hop fanout-3 trees. */
std::uint64_t
measureComputeAllocations(std::uint32_t targets)
{
    gnn::ModelConfig m;
    m.hops = 3;
    m.fanout = 3;
    gnn::Subgraph sg;
    for (std::uint32_t t = 0; t < targets; ++t) {
        gnn::Slot root = sg.add(t, 0, gnn::kNoParent);
        for (int i = 0; i < 3; ++i) {
            gnn::Slot c1 = sg.add(t + 1, 1, root);
            for (int j = 0; j < 3; ++j) {
                gnn::Slot c2 = sg.add(t + 2, 2, c1);
                for (int k = 0; k < 3; ++k)
                    sg.add(t + 3, 3, c2);
            }
        }
    }
    const std::uint64_t before = g_allocations.load();
    gnn::ComputeWorkload w = gnn::measureCompute(sg, m);
    const std::uint64_t used = g_allocations.load() - before;
    EXPECT_EQ(w.gemms.size(), 3u);
    return used;
}

TEST(HotPath, MeasureComputeAllocationsDoNotGrowWithTheSubgraph)
{
    if constexpr (sim::kCheckedBuild)
        GTEST_SKIP() << "the checked build's validator allocates per event";
    const std::uint64_t small = measureComputeAllocations(1);
    EXPECT_EQ(measureComputeAllocations(1000), small);
    EXPECT_LT(small, 16u);
}

/** Allocations of one dg::buildLayout() call on amazon scaled to
 *  @p nodes nodes, and the nodes in it that spill to secondaries. */
std::pair<std::uint64_t, std::uint64_t>
layoutBuildAllocations(graph::NodeId nodes)
{
    graph::WorkloadSpec spec = graph::workload("amazon");
    spec.simNodes = nodes;
    const graph::Graph g = spec.makeGraph();
    const graph::FeatureTable feat = spec.makeFeatures();
    const flash::FlashConfig cfg = platforms::RunConfig{}.system.flash;
    const std::uint64_t block_bytes =
        std::uint64_t{cfg.pagesPerBlock} * cfg.pageSize;
    ssd::Ftl ftl(cfg);
    const auto blocks = ftl.reserveBlocks(
        g.numEdges() * 4 * 3 / block_bytes + cfg.totalDies() + 16);
    const std::uint64_t before = g_allocations.load();
    const dg::DirectGraphLayout layout =
        dg::buildLayout(g, feat, cfg, blocks);
    return {g_allocations.load() - before,
            layout.stats.nodesWithSecondaries};
}

TEST(HotPath, LayoutBuildAllocationsDoNotGrowWithNodes)
{
    if constexpr (sim::kCheckedBuild)
        GTEST_SKIP() << "allocation budgets hold for the unchecked build";
    // The layout is flat: a node table, one secondary table in node
    // order, the placements and the page directory. Only the secondary
    // table's doublings grow with the graph (two more for 4x nodes),
    // never one block per spilled node.
    const auto [small, small_spilled] = layoutBuildAllocations(3000);
    const auto [large, large_spilled] = layoutBuildAllocations(12000);
    ASSERT_GT(large_spilled, small_spilled + 1000);
    EXPECT_LE(large, small + 4) << small << " allocations at 3k nodes";
    EXPECT_LT(large, 64u);
}

TEST(HotPath, SyntheticGraphAllocatesONodes)
{
    // A synthetic graph stores only its offsets, 8 B per node plus one;
    // every edge endpoint is derived from a keyed hash on demand. The
    // slack covers small bookkeeping, far below one stored 4-byte
    // endpoint per edge (amazon averages 1,680 edges per node).
    constexpr std::uint64_t kSlackBytes = 4096;
    const graph::WorkloadSpec &spec = graph::workload("amazon");
    const std::uint64_t bound =
        (std::uint64_t{spec.simNodes} + 1) * 8 + kSlackBytes;
    const std::uint64_t before = g_bytes.load();
    const graph::Graph g = spec.makeGraph();
    const std::uint64_t used = g_bytes.load() - before;
    EXPECT_LE(used, bound);
    EXPECT_EQ(g.numNodes(), spec.simNodes);
    EXPECT_GT(g.numEdges() * 4, 100 * bound);
}

} // namespace
