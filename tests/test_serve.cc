/**
 * @file
 * Unit tests for the online serving subsystem: arrival-stream
 * determinism, micro-batching dispatch decisions (timeout vs max
 * batch size), QoS-class ordering, histogram percentile math, and
 * end-to-end serving determinism on a tiny platform.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "platforms/runner.h"
#include "serve/arrival.h"
#include "serve/queue.h"
#include "serve/scheduler.h"
#include "serve/serve.h"
#include "sim/stats.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::serve;

// ---------------------------------------------------------------- arrivals

TEST(Arrivals, DeterministicUnderFixedSeed)
{
    ArrivalConfig cfg;
    cfg.ratePerSec = 5000;
    cfg.requests = 200;
    cfg.seed = 1234;

    auto a = generateArrivals(cfg, 1000);
    auto b = generateArrivals(cfg, 1000);
    ASSERT_EQ(a.size(), 200u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].qos, b[i].qos);
    }
}

TEST(Arrivals, SeedChangesStream)
{
    ArrivalConfig cfg;
    cfg.requests = 64;
    cfg.seed = 1;
    auto a = generateArrivals(cfg, 1000);
    cfg.seed = 2;
    auto b = generateArrivals(cfg, 1000);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].arrival != b[i].arrival ||
                  a[i].target != b[i].target;
    EXPECT_TRUE(differs);
}

TEST(Arrivals, MonotonicAndInRange)
{
    for (auto process :
         {ArrivalProcess::Poisson, ArrivalProcess::Bursty}) {
        ArrivalConfig cfg;
        cfg.process = process;
        cfg.ratePerSec = 20000;
        cfg.requests = 500;
        cfg.tenants = 5;
        auto a = generateArrivals(cfg, 777);
        sim::Tick prev = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].id, i);
            EXPECT_GE(a[i].arrival, prev);
            prev = a[i].arrival;
            EXPECT_LT(a[i].target, 777u);
            EXPECT_LT(a[i].tenant, 5u);
            EXPECT_EQ(static_cast<unsigned>(a[i].qos),
                      a[i].tenant % kQosClasses);
        }
    }
}

TEST(Arrivals, MeanRateNearConfigured)
{
    ArrivalConfig cfg;
    cfg.ratePerSec = 10000;
    cfg.requests = 2000;
    auto a = generateArrivals(cfg, 1000);
    double span_s = sim::toSeconds(a.back().arrival);
    double rate = static_cast<double>(a.size()) / span_s;
    EXPECT_NEAR(rate, 10000, 1500); // Poisson, 2000 samples.
}

// ---------------------------------------------------------------- queue

Request
req(std::uint64_t id, sim::Tick at, QosClass q = QosClass::Standard)
{
    Request r;
    r.id = id;
    r.arrival = at;
    r.qos = q;
    return r;
}

TEST(AdmissionQueue, PriorityAcrossClassesFifoWithin)
{
    AdmissionQueue q;
    q.push(req(0, 10, QosClass::Batch));
    q.push(req(1, 11, QosClass::Interactive));
    q.push(req(2, 12, QosClass::Standard));
    q.push(req(3, 13, QosClass::Interactive));
    q.push(req(4, 14, QosClass::Batch));

    // Oldest queued request is the Batch one, despite low priority.
    EXPECT_EQ(q.oldestArrival(), 10u);

    std::vector<std::uint64_t> order;
    while (!q.empty())
        order.push_back(q.pop().id);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 2, 0, 4}));
    EXPECT_EQ(q.peakDepth(), 5u);
}

// ---------------------------------------------------------------- scheduler

TEST(MicroBatcher, DispatchesImmediatelyOnFullBacklog)
{
    BatchPolicy p;
    p.maxBatch = 4;
    p.timeout = sim::microseconds(100);
    std::vector<Request> arr;
    for (std::uint64_t i = 0; i < 10; ++i)
        arr.push_back(req(i, 0));

    MicroBatcher mb(p, arr);
    Dispatch d;
    // Server free at 50: all 10 queued, batch full -> dispatch now.
    ASSERT_TRUE(mb.next(50, d));
    EXPECT_EQ(d.at, 50u);
    ASSERT_EQ(d.batch.size(), 4u);
    EXPECT_EQ(d.batch[0].id, 0u);
    EXPECT_EQ(d.batch[3].id, 3u);

    ASSERT_TRUE(mb.next(60, d));
    EXPECT_EQ(d.at, 60u);
    ASSERT_EQ(d.batch.size(), 4u);
    EXPECT_EQ(d.batch[0].id, 4u);

    // The leftover partial batch rides out its timeout (anchored on
    // its oldest member's arrival at 0), even though the server is
    // free earlier.
    ASSERT_TRUE(mb.next(70, d));
    EXPECT_EQ(d.at, sim::microseconds(100));
    EXPECT_EQ(d.batch.size(), 2u);
    EXPECT_FALSE(mb.next(d.at, d));
}

TEST(MicroBatcher, TimeoutDispatchesPartialBatch)
{
    BatchPolicy p;
    p.maxBatch = 8;
    p.timeout = sim::microseconds(100);
    // Two early requests, then a long gap.
    std::vector<Request> arr = {req(0, 1000), req(1, 2000),
                                req(2, sim::milliseconds(5))};

    MicroBatcher mb(p, arr);
    Dispatch d;
    ASSERT_TRUE(mb.next(0, d));
    // Oldest arrival 1000 + 100 us timeout = 101000.
    EXPECT_EQ(d.at, 101000u);
    ASSERT_EQ(d.batch.size(), 2u);
    EXPECT_EQ(d.batch[0].id, 0u);
    EXPECT_EQ(d.batch[1].id, 1u);

    // The straggler dispatches on its own timeout.
    ASSERT_TRUE(mb.next(d.at, d));
    EXPECT_EQ(d.at, sim::milliseconds(5) + sim::microseconds(100));
    EXPECT_EQ(d.batch.size(), 1u);
}

TEST(MicroBatcher, FillingArrivalBeatsTimeout)
{
    BatchPolicy p;
    p.maxBatch = 4;
    p.timeout = sim::microseconds(100);
    // Four arrivals 10 us apart: the 4th (at 30 us) fills the batch
    // before the oldest times out at 100 us.
    std::vector<Request> arr = {
        req(0, sim::microseconds(0)), req(1, sim::microseconds(10)),
        req(2, sim::microseconds(20)), req(3, sim::microseconds(30))};

    MicroBatcher mb(p, arr);
    Dispatch d;
    ASSERT_TRUE(mb.next(0, d));
    EXPECT_EQ(d.at, sim::microseconds(30));
    EXPECT_EQ(d.batch.size(), 4u);
}

TEST(MicroBatcher, IdleServerWaitsForNextArrival)
{
    BatchPolicy p;
    p.maxBatch = 4;
    p.timeout = sim::microseconds(50);
    std::vector<Request> arr = {req(0, sim::milliseconds(3))};

    MicroBatcher mb(p, arr);
    Dispatch d;
    ASSERT_TRUE(mb.next(0, d));
    // Nothing queued until 3 ms; lone request rides its timeout.
    EXPECT_EQ(d.at, sim::milliseconds(3) + sim::microseconds(50));
    EXPECT_EQ(d.batch.size(), 1u);
}

TEST(MicroBatcher, BatchPrefersHighPriorityWhenBacklogged)
{
    BatchPolicy p;
    p.maxBatch = 2;
    p.timeout = sim::microseconds(100);
    std::vector<Request> arr = {
        req(0, 0, QosClass::Batch), req(1, 1, QosClass::Batch),
        req(2, 2, QosClass::Interactive),
        req(3, 3, QosClass::Interactive)};

    MicroBatcher mb(p, arr);
    Dispatch d;
    ASSERT_TRUE(mb.next(10, d));
    // Backlog of 4: the two Interactive requests jump the queue.
    ASSERT_EQ(d.batch.size(), 2u);
    EXPECT_EQ(d.batch[0].id, 2u);
    EXPECT_EQ(d.batch[1].id, 3u);
    // Batch-class requests drain next, in FIFO order.
    ASSERT_TRUE(mb.next(20, d));
    EXPECT_EQ(d.batch[0].id, 0u);
    EXPECT_EQ(d.batch[1].id, 1u);
}

// ---------------------------------------------------------------- percentile

TEST(Percentile, EmptyHistogram)
{
    sim::Histogram h(10.0, 8);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
}

TEST(Percentile, HandComputedUniform)
{
    // 100 samples: 5, 15, 25, ..., 995 — one per 10-wide bucket.
    sim::Histogram h(10.0, 128);
    for (int i = 0; i < 100; ++i)
        h.add(10.0 * i + 5.0);

    // p50: target rank 50 -> 50th bucket [490, 500), fraction 1.0.
    EXPECT_DOUBLE_EQ(h.percentile(50), 500.0);
    // p95: rank 95 -> bucket [940, 950), fraction 1.0 -> 950.
    EXPECT_DOUBLE_EQ(h.percentile(95), 950.0);
    // p0 clamps to the observed minimum.
    EXPECT_DOUBLE_EQ(h.percentile(0), 5.0);
    // p100 clamps to the observed maximum.
    EXPECT_DOUBLE_EQ(h.percentile(100), 995.0);
}

TEST(Percentile, InterpolatesWithinBucket)
{
    // 4 samples in one bucket [0, 10): ranks interpolate linearly.
    sim::Histogram h(10.0, 4);
    for (int i = 0; i < 4; ++i)
        h.add(2.0 * i + 1.0); // 1, 3, 5, 7
    // p50 -> target 2 of 4 -> fraction 0.5 of [0,10) = 5.
    EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
    // p25 -> target 1 of 4 -> 2.5.
    EXPECT_DOUBLE_EQ(h.percentile(25), 2.5);
}

TEST(Percentile, OverflowBucketClampsToObservedMax)
{
    // Histogram spans [0, 40); samples far beyond land in the
    // overflow bucket and must not be reported as ~40.
    sim::Histogram h(10.0, 4);
    h.add(5.0);
    h.add(1000.0);
    h.add(2000.0);
    h.add(3000.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 3000.0);
    // p75 -> target 3 of 4 -> 2/3 through the overflow bucket
    // [30, 3000]: 30 + (2/3) * 2970 = 2010.
    EXPECT_DOUBLE_EQ(h.percentile(75), 2010.0);
    EXPECT_GT(h.percentile(99), 40.0);
}

TEST(Percentile, BatchHandComputedUniform)
{
    // The same 100-sample stream as HandComputedUniform, resolved in
    // one bucket walk; quantiles are fractions, not percents.
    sim::Histogram h(10.0, 128);
    for (int i = 0; i < 100; ++i)
        h.add(10.0 * i + 5.0);
    const std::vector<double> ps =
        h.percentiles({0.0, 0.5, 0.95, 1.0});
    ASSERT_EQ(ps.size(), 4u);
    EXPECT_DOUBLE_EQ(ps[0], 5.0);   // clamps to observed minimum
    EXPECT_DOUBLE_EQ(ps[1], 500.0); // p50
    EXPECT_DOUBLE_EQ(ps[2], 950.0); // p95
    EXPECT_DOUBLE_EQ(ps[3], 995.0); // clamps to observed maximum
}

TEST(Percentile, BatchMatchesSingleCallsEverywhere)
{
    // Contract: percentiles({q})[0] == percentile(100 * q) for any q,
    // including the high-tail quantiles the serve tables print.
    sim::Histogram h(10.0, 64);
    h.add(5.0);
    h.add(1000.0); // overflow bucket
    h.add(2000.0);
    h.add(3000.0);
    const std::vector<double> qs = {0.0,  0.25, 0.5,  0.75,
                                    0.95, 0.99, 0.999, 1.0};
    const std::vector<double> batch = h.percentiles(qs);
    ASSERT_EQ(batch.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i)
        EXPECT_DOUBLE_EQ(batch[i], h.percentile(100.0 * qs[i]))
            << "q = " << qs[i];
}

TEST(Percentile, BatchPreservesUnsortedInputOrder)
{
    sim::Histogram h(10.0, 16);
    for (int i = 0; i < 10; ++i)
        h.add(10.0 * i + 5.0);
    // Deliberately unsorted (and duplicated) quantiles: results come
    // back in the caller's order.
    const std::vector<double> ps =
        h.percentiles({0.99, 0.5, 0.99});
    ASSERT_EQ(ps.size(), 3u);
    EXPECT_DOUBLE_EQ(ps[0], h.percentile(99));
    EXPECT_DOUBLE_EQ(ps[1], h.percentile(50));
    EXPECT_DOUBLE_EQ(ps[2], ps[0]);
}

TEST(Percentile, BatchEmptyHistogramIsAllZero)
{
    sim::Histogram h(10.0, 8);
    const std::vector<double> ps = h.percentiles({0.5, 0.999});
    ASSERT_EQ(ps.size(), 2u);
    EXPECT_DOUBLE_EQ(ps[0], 0.0);
    EXPECT_DOUBLE_EQ(ps[1], 0.0);
    EXPECT_TRUE(h.percentiles({}).empty());
}

// ---------------------------------------------------------------- end to end

std::unique_ptr<platforms::WorkloadBundle>
tinyBundle()
{
    graph::WorkloadSpec spec = graph::workload("OGBN");
    flash::FlashConfig flash_cfg;
    gnn::ModelConfig model;
    return platforms::makeBundle(spec, flash_cfg, model, 1500);
}

TEST(Serve, EndToEndCompletesEveryRequest)
{
    auto bundle = tinyBundle();
    platforms::RunConfig rc;
    ServeConfig sc;
    sc.arrivals.ratePerSec = 20000;
    sc.arrivals.requests = 96;
    sc.arrivals.seed = 9;
    sc.policy.maxBatch = 16;

    std::vector<RequestOutcome> outcomes;
    auto res = serveWorkload(platforms::makePlatform(
                                 platforms::PlatformKind::BG2),
                             rc, *bundle, sc, &outcomes);

    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.requests, 96u);
    ASSERT_EQ(outcomes.size(), 96u);
    EXPECT_GT(res.batches, 0u);
    EXPECT_GT(res.achievedRate, 0.0);

    // Every request: arrival <= dispatch <= prepDone <= done, and
    // every id appears exactly once.
    std::vector<bool> seen(96, false);
    for (const auto &o : outcomes) {
        EXPECT_LE(o.arrival, o.dispatch);
        EXPECT_LE(o.dispatch, o.prepDone);
        EXPECT_LE(o.prepDone, o.done);
        ASSERT_LT(o.id, 96u);
        EXPECT_FALSE(seen[o.id]);
        seen[o.id] = true;
    }
    // Class totals match the overall tally.
    std::uint64_t class_total = 0;
    for (const auto &c : res.perClass)
        class_total += c.requests;
    EXPECT_EQ(class_total, res.requests);
}

TEST(Serve, ResultDeterministicAcrossRuns)
{
    auto bundle = tinyBundle();
    platforms::RunConfig rc;
    ServeConfig sc;
    sc.arrivals.ratePerSec = 50000;
    sc.arrivals.requests = 64;
    sc.arrivals.seed = 77;
    sc.policy.maxBatch = 8;

    auto p = platforms::makePlatform(platforms::PlatformKind::BG2);
    auto a = serveWorkload(p, rc, *bundle, sc);
    auto b = serveWorkload(p, rc, *bundle, sc);

    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.peakQueueDepth, b.peakQueueDepth);
    EXPECT_DOUBLE_EQ(a.achievedRate, b.achievedRate);
    EXPECT_DOUBLE_EQ(a.totalUs.mean(), b.totalUs.mean());
    EXPECT_DOUBLE_EQ(a.p(99), b.p(99));
    EXPECT_EQ(a.violations(), b.violations());
}

TEST(Serve, OverloadSaturatesAndQueues)
{
    auto bundle = tinyBundle();
    platforms::RunConfig rc;
    ServeConfig sc;
    sc.arrivals.requests = 96;
    sc.arrivals.seed = 5;
    sc.policy.maxBatch = 16;

    auto p = platforms::makePlatform(platforms::PlatformKind::CC);
    sc.arrivals.ratePerSec = 2000; // Light load.
    auto light = serveWorkload(p, rc, *bundle, sc);
    sc.arrivals.ratePerSec = 2e6; // Far beyond CC's capacity.
    auto heavy = serveWorkload(p, rc, *bundle, sc);

    EXPECT_FALSE(light.saturated());
    EXPECT_TRUE(heavy.saturated());
    EXPECT_GT(heavy.p(99), light.p(99));
    EXPECT_GT(heavy.peakQueueDepth, light.peakQueueDepth);
    // Under overload the mean batch fills to the cap.
    EXPECT_DOUBLE_EQ(heavy.meanBatchSize, 16.0);
}

} // namespace

namespace {

using namespace beacongnn;
using namespace beacongnn::serve;

TEST(ServeConfigValidate, DefaultsAreValid)
{
    EXPECT_TRUE(ServeConfig{}.validate().empty());
}

TEST(ServeConfigValidate, ReportsEveryReasonAtOnce)
{
    ServeConfig sc;
    sc.arrivals.requests = 0;
    sc.policy.maxBatch = 0;
    sc.arrivals.ratePerSec = std::numeric_limits<double>::infinity();
    sc.arrivals.burstFactor = 0;
    sc.arrivals.zipfTheta = std::nan("");
    auto reasons = sc.validate();
    ASSERT_EQ(reasons.size(), 5u);
    EXPECT_NE(reasons[0].find("requests"), std::string::npos);
    EXPECT_NE(reasons[1].find("max batch"), std::string::npos);
    EXPECT_NE(reasons[2].find("arrival rate"), std::string::npos);
    EXPECT_NE(reasons[3].find("burst factor"), std::string::npos);
    EXPECT_NE(reasons[4].find("Zipf theta"), std::string::npos);
}

TEST(ServeConfigValidate, ServeWorkloadRejectsAnEmptyStream)
{
    auto bundle = tinyBundle();
    ServeConfig sc;
    sc.arrivals.requests = 0;
    EXPECT_EXIT(serveWorkload(platforms::makePlatform(
                                  platforms::PlatformKind::BG2),
                              platforms::RunConfig{}, *bundle, sc),
                ::testing::ExitedWithCode(1),
                "serveWorkload: requests must be >= 1");
}

TEST(ServeConfigValidate, ServeWorkloadRejectsATinyChannelBandwidth)
{
    // bgnserve has no --channel-mbps flag; a library caller can still
    // set a rate at which one transfer overflows the tick type.
    auto bundle = tinyBundle();
    platforms::RunConfig rc;
    rc.system.flash.channelMBps = 1e-300;
    EXPECT_EXIT(serveWorkload(platforms::makePlatform(
                                  platforms::PlatformKind::BG2),
                              rc, *bundle, ServeConfig{}),
                ::testing::ExitedWithCode(1), "channel bandwidth");
}

} // namespace
