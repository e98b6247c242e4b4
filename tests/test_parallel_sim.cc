/**
 * @file
 * Conservative parallel simulation tests (DESIGN.md §13): the
 * sim::Mailbox per-source inboxes, SpinBarrier and ParallelSimulator
 * primitives (including one driver reused across many runs while the
 * worker count changes, and the join of its parked workers), the
 * EventQueue bulk-schedule fast path, and — the property the whole
 * design exists for — byte-identical metrics JSON and CSV from
 * multi-device array runs regardless of the worker count, including
 * the zero-lookahead edge case and a partition policy that maximizes
 * cross-device traffic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "platforms/report.h"
#include "sim/executor.h"
#include "sim/mailbox.h"
#include "sim/metrics.h"
#include "sim/parallel_sim.h"
#include "sim/rng.h"
#include "sim/trace_events.h"

namespace {

using namespace beacongnn;

// ==================================================================
// Mailbox.
// ==================================================================

TEST(Mailbox, PostDrainAndPostedCount)
{
    sim::Mailbox<int> mb(3);
    EXPECT_EQ(mb.stations(), 3u);
    mb.post(/*src=*/2, /*dst=*/1, 10);
    mb.post(/*src=*/0, /*dst=*/1, 20);
    mb.post(/*src=*/2, /*dst=*/1, 30);
    mb.post(/*src=*/1, /*dst=*/2, 40);
    EXPECT_EQ(mb.posted(1), 3u);
    EXPECT_EQ(mb.posted(2), 1u);

    std::vector<int> got;
    mb.drain(1, got);
    // Source by source in station order, FIFO within a source.
    std::vector<int> want = {20, 10, 30};
    EXPECT_EQ(got, want);
    got.clear();
    mb.drain(1, got);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(mb.posted(1), 3u); // posted() is a lifetime tally.
    mb.drain(0, got);
    EXPECT_TRUE(got.empty());
    got.push_back(-1);
    mb.drain(2, got); // drain appends.
    want = {-1, 40};
    EXPECT_EQ(got, want);
}

TEST(Mailbox, ConcurrentPostsAllArrive)
{
    // One posting thread per source station, all aimed at one
    // destination: each thread writes only its own inbox, so every
    // message arrives, grouped by source in posting order.
    constexpr unsigned kThreads = 4, kEach = 500;
    sim::Mailbox<unsigned> mb(kThreads);
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t)
        ts.emplace_back([&mb, t] {
            for (unsigned i = 0; i < kEach; ++i)
                mb.post(t, 0, t * kEach + i);
        });
    for (auto &t : ts)
        t.join();
    std::vector<unsigned> all;
    mb.drain(0, all);
    ASSERT_EQ(all.size(), std::size_t{kThreads} * kEach);
    for (unsigned i = 0; i < kThreads * kEach; ++i)
        EXPECT_EQ(all[i], i);
}

/** A timestamped message with the engine's sort key. */
struct KeyedMsg
{
    sim::Tick when = 0;
    unsigned src = 0;
    std::uint64_t seq = 0;

    bool
    operator<(const KeyedMsg &o) const
    {
        return std::tie(when, src, seq) < std::tie(o.when, o.src, o.seq);
    }
    bool
    operator==(const KeyedMsg &o) const
    {
        return when == o.when && src == o.src && seq == o.seq;
    }
};

TEST(Mailbox, PerSourceInboxesDrainToTheSerialSortedSequence)
{
    // Seeded traffic between 5 stations, posted once from one thread
    // and once from one thread per source: after the drain and the
    // (when, src, seq) sort every destination sees the same sequence.
    constexpr unsigned kStations = 5, kEach = 400;
    auto post_all = [](sim::Mailbox<KeyedMsg> &mb, unsigned src) {
        sim::Pcg32 rng(0xB00C, src);
        for (std::uint64_t i = 0; i < kEach; ++i) {
            const unsigned dst = rng.below(kStations);
            mb.post(src, dst, KeyedMsg{rng.below(64), src, i});
        }
    };
    sim::Mailbox<KeyedMsg> serial(kStations), threaded(kStations);
    for (unsigned src = 0; src < kStations; ++src)
        post_all(serial, src);
    std::vector<std::thread> ts;
    for (unsigned src = 0; src < kStations; ++src)
        ts.emplace_back([&threaded, &post_all, src] {
            post_all(threaded, src);
        });
    for (auto &t : ts)
        t.join();

    std::size_t total = 0;
    for (unsigned dst = 0; dst < kStations; ++dst) {
        std::vector<KeyedMsg> a, b;
        serial.drain(dst, a);
        threaded.drain(dst, b);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << "destination " << dst;
        EXPECT_EQ(serial.posted(dst), threaded.posted(dst));
        total += a.size();
    }
    EXPECT_EQ(total, std::size_t{kStations} * kEach);
}

// ==================================================================
// SpinBarrier.
// ==================================================================

TEST(SpinBarrier, RoundsNeverOverlap)
{
    constexpr unsigned kParties = 4, kRounds = 200;
    sim::SpinBarrier barrier(kParties);
    std::atomic<unsigned> in_round{0};
    std::atomic<bool> overlap{false};
    std::vector<std::thread> ts;
    for (unsigned p = 0; p < kParties; ++p)
        ts.emplace_back([&] {
            for (unsigned r = 0; r < kRounds; ++r) {
                in_round.fetch_add(1);
                barrier.arriveAndWait();
                // Everyone from round r has arrived before anyone
                // proceeds; a later arrival from round r would mean
                // the barrier released early.
                if (in_round.load() < kParties * (r + 1))
                    overlap.store(true);
                barrier.arriveAndWait();
            }
        });
    for (auto &t : ts)
        t.join();
    EXPECT_FALSE(overlap.load());
    EXPECT_EQ(in_round.load(), kParties * kRounds);
}

// ==================================================================
// EventQueue::bulkScheduleAt.
// ==================================================================

TEST(BulkSchedule, MatchesIndividualSchedulesIncludingTies)
{
    // The same (when, insertion-order) stream through scheduleAt and
    // through bulkScheduleAt must execute identically — including the
    // heap-rebuild fast path, which the large batch below triggers.
    std::vector<std::pair<sim::Tick, int>> plan;
    for (int i = 0; i < 40; ++i)
        plan.emplace_back(static_cast<sim::Tick>((i * 7) % 10), i);

    auto execute = [&](bool bulk) {
        sim::EventQueue q;
        std::vector<int> order;
        q.scheduleAt(5, [&order] { order.push_back(-1); });
        if (bulk) {
            std::vector<sim::EventQueue::TimedEvent> batch;
            for (auto &[when, id] : plan) {
                int v = id;
                batch.push_back(
                    {when, [&order, v] { order.push_back(v); }});
            }
            q.bulkScheduleAt(batch);
        } else {
            for (auto &[when, id] : plan) {
                int v = id;
                q.scheduleAt(when, [&order, v] { order.push_back(v); });
            }
        }
        q.run();
        return order;
    };

    std::vector<int> a = execute(false), b = execute(true);
    ASSERT_EQ(a.size(), plan.size() + 1);
    EXPECT_EQ(a, b);
}

// ==================================================================
// ParallelSimulator on seeded cross-station traffic.
// ==================================================================

/**
 * Seeded cross-station traffic that outlives one run(): each round
 * seeds a few messages per station, and every handled message either
 * continues on its own station (a local event) or crosses to a
 * pseudo-random station through the per-source inboxes, until its hop
 * budget runs out. Each station's executed (time, key) log is the
 * determinism witness.
 */
struct Mesh
{
    struct Msg
    {
        sim::Tick when = 0;
        unsigned src = 0;
        std::uint64_t seq = 0;
        unsigned hops = 0;
        std::uint64_t key = 0;
    };

    sim::Tick lookahead;
    std::vector<std::unique_ptr<sim::EventQueue>> queues;
    sim::Mailbox<Msg> mailbox;
    std::vector<std::uint64_t> seq;
    std::vector<std::vector<Msg>> scratch;
    std::vector<std::vector<std::pair<sim::Tick, std::uint64_t>>> logs;
    /** Events the seeded messages will execute (hops + 1 each). */
    std::size_t expected = 0;
    sim::ParallelSimulator psim;

    Mesh(unsigned n, sim::Tick la, unsigned jobs)
        : lookahead(la), queues(makeQueues(n)), mailbox(n), seq(n, 0),
          scratch(n), logs(n), psim(stations(), la, jobs)
    {
    }

    static std::vector<std::unique_ptr<sim::EventQueue>>
    makeQueues(unsigned n)
    {
        std::vector<std::unique_ptr<sim::EventQueue>> q;
        for (unsigned i = 0; i < n; ++i)
            q.push_back(std::make_unique<sim::EventQueue>());
        return q;
    }

    std::vector<sim::SimStation>
    stations()
    {
        std::vector<sim::SimStation> st;
        for (unsigned d = 0; d < queues.size(); ++d)
            st.push_back({queues[d].get(), [this, d] { return drain(d); }});
        return st;
    }

    unsigned size() const { return static_cast<unsigned>(queues.size()); }

    void
    handle(unsigned d, const Msg &m)
    {
        logs[d].emplace_back(queues[d]->now(), m.key);
        if (m.hops == 0)
            return;
        const std::uint64_t next = sim::splitmix64(m.key);
        const unsigned dst = static_cast<unsigned>(next % size());
        const sim::Tick extra = (next >> 16) % 5;
        if (dst == d) {
            queues[d]->schedule(extra, [this, d, m, next] {
                handle(d, Msg{0, d, 0, m.hops - 1, next});
            });
            return;
        }
        mailbox.post(d, dst,
                     Msg{queues[d]->now() + lookahead + extra, d,
                         seq[d]++, m.hops - 1, next});
    }

    std::size_t
    drain(unsigned d)
    {
        std::vector<Msg> &msgs = scratch[d];
        mailbox.drain(d, msgs);
        std::sort(msgs.begin(), msgs.end(),
                  [](const Msg &a, const Msg &b) {
                      return std::tie(a.when, a.src, a.seq) <
                             std::tie(b.when, b.src, b.seq);
                  });
        for (const Msg &m : msgs)
            queues[d]->scheduleAt(m.when, [this, d, m] { handle(d, m); });
        const std::size_t n = msgs.size();
        msgs.clear();
        return n;
    }

    std::size_t
    executed() const
    {
        std::size_t n = 0;
        for (const auto &l : logs)
            n += l.size();
        return n;
    }

    /** Seed round @p round's traffic and run it to quiescence. */
    sim::Tick
    round(std::uint64_t round)
    {
        sim::Pcg32 rng(0x5EED + round, 7);
        sim::Tick base = 0;
        for (const auto &q : queues)
            base = std::max(base, q->now());
        for (unsigned d = 0; d < size(); ++d) {
            const unsigned count = 1 + rng.below(8);
            for (unsigned i = 0; i < count; ++i) {
                Msg m{base + 1 + rng.below(20), d, 0, 2 + rng.below(30),
                      (round << 32) | (std::uint64_t{d} << 8) | i};
                expected += m.hops + 1;
                queues[d]->scheduleAt(m.when,
                                      [this, d, m] { handle(d, m); });
            }
        }
        return psim.run();
    }
};

TEST(ParallelSim, MeshLogsIdenticalAcrossWorkerCounts)
{
    Mesh a(4, sim::microseconds(1), /*jobs=*/1);
    Mesh b(4, sim::microseconds(1), /*jobs=*/3);
    EXPECT_EQ(a.round(0), b.round(0));
    EXPECT_EQ(a.logs, b.logs);
    EXPECT_GT(a.psim.windows(), 0u);
    EXPECT_EQ(b.psim.lastJobs(), 3u);
    // Every seeded message executed each hop of its walk.
    EXPECT_EQ(a.executed(), a.expected);
}

TEST(ParallelSim, ZeroLookaheadSerializesWithoutDeadlock)
{
    Mesh a(3, 0, 1);
    Mesh b(3, 0, 4);
    EXPECT_EQ(a.round(0), b.round(0));
    EXPECT_EQ(a.logs, b.logs);
    EXPECT_EQ(b.executed(), b.expected);
}

TEST(ParallelSim, EmptyStationsQuiesceImmediately)
{
    sim::EventQueue q;
    sim::ParallelSimulator psim({{&q, [] { return std::size_t{0}; }}},
                                sim::microseconds(1), 2);
    EXPECT_EQ(psim.run(), 0u);
}

TEST(ParallelSim, ReusedSimulatorMatchesOneWorkerAsJobsChange)
{
    // One driver per side, reused for 60 runs; the varying side
    // resolves its worker count from the process default, which
    // switches 2 -> 4 -> 1 -> 3 between runs, so parked helpers are
    // woken, left parked, and added to.
    constexpr unsigned kRuns = 60;
    const unsigned schedule[] = {2, 4, 1, 3};
    Mesh ref(5, sim::microseconds(1), /*jobs=*/1);
    Mesh var(5, sim::microseconds(1), /*jobs=*/0);
    for (unsigned r = 0; r < kRuns; ++r) {
        const sim::Tick want = ref.round(r);
        const unsigned jobs = schedule[r % 4];
        sim::SimExecutor::setDefaultJobs(jobs);
        EXPECT_EQ(var.round(r), want) << "run " << r;
        EXPECT_EQ(var.psim.lastJobs(), jobs);
        ASSERT_EQ(var.logs, ref.logs) << "run " << r;
    }
    sim::SimExecutor::setDefaultJobs(0);
    EXPECT_EQ(var.psim.windows(), ref.psim.windows());
    EXPECT_EQ(var.psim.helperThreads(), 3u); // Started once, reused.
    EXPECT_EQ(ref.psim.helperThreads(), 0u);
    EXPECT_EQ(ref.executed(), ref.expected);
}

TEST(ParallelSim, DestroyingParkedWorkersJoinsThem)
{
    // The helpers park between runs; destruction must wake and join
    // them (a hang here trips the ctest TIMEOUT).
    for (unsigned jobs = 2; jobs <= 4; ++jobs) {
        Mesh m(4, sim::microseconds(1), jobs);
        m.round(0);
        m.round(1);
        EXPECT_EQ(m.psim.helperThreads(), jobs - 1);
    }
    // A driver that never ran started no thread.
    Mesh idle(4, sim::microseconds(1), 4);
    EXPECT_EQ(idle.psim.helperThreads(), 0u);
}

// ==================================================================
// End-to-end: multi-device array runs are byte-identical across
// worker counts (metrics JSON, CSV row and Chrome trace).
// ==================================================================

struct ArrayRig
{
    std::unique_ptr<platforms::WorkloadBundle> bundle;
    platforms::RunConfig rc;

    ArrayRig()
    {
        gnn::ModelConfig model;
        ssd::SystemConfig sys;
        auto spec = graph::workload("amazon");
        spec.simNodes = 4000;
        bundle = platforms::makeBundle(spec, sys.flash, model);
        rc.batchSize = 32;
        rc.batches = 2;
    }

    ~ArrayRig() { sim::SimExecutor::setDefaultJobs(0); }

    /** metrics JSON + CSV row + trace of one run at @p jobs. */
    struct Fingerprint
    {
        std::string json, csv, trace;
        std::uint64_t crossDevice = 0;
        bool ok = false;

        bool
        operator==(const Fingerprint &o) const
        {
            return json == o.json && csv == o.csv &&
                   trace == o.trace && crossDevice == o.crossDevice;
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
        fp.crossDevice = r.crossDevice;
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

TEST(ArrayDeterminism, TwoDevicesByteIdenticalAcrossJobCounts)
{
    ArrayRig rig;
    platforms::TopologyConfig acfg;
    acfg.devices = 2;
    auto j1 = rig.run(acfg, 1);
    auto j2 = rig.run(acfg, 2);
    auto j8 = rig.run(acfg, 8);
    EXPECT_TRUE(j1.ok);
    EXPECT_FALSE(j1.json.empty());
    EXPECT_FALSE(j1.trace.empty());
    EXPECT_EQ(j1, j2);
    EXPECT_EQ(j1, j8);
}

TEST(ArrayDeterminism, EightDevicesByteIdenticalAcrossJobCounts)
{
    ArrayRig rig;
    platforms::TopologyConfig acfg;
    acfg.devices = 8;
    auto j1 = rig.run(acfg, 1);
    auto j2 = rig.run(acfg, 2);
    auto j8 = rig.run(acfg, 8);
    EXPECT_TRUE(j1.ok);
    EXPECT_GT(j1.crossDevice, 0u);
    EXPECT_EQ(j1, j2);
    EXPECT_EQ(j1, j8);
}

TEST(ArrayDeterminism, ZeroP2pLatencyStillTerminatesAndMatches)
{
    // lookahead = p2pLatency = 0: the simulator degenerates to
    // serialized tick-stepped windows — slower, never wrong.
    ArrayRig rig;
    platforms::TopologyConfig acfg;
    acfg.devices = 4;
    acfg.p2pLatency = 0;
    auto j1 = rig.run(acfg, 1);
    auto j4 = rig.run(acfg, 4);
    EXPECT_TRUE(j1.ok);
    EXPECT_EQ(j1, j4);
}

TEST(ArrayDeterminism, RangePartitionCrossDeviceStressMatches)
{
    // Range partition on a hub-heavy graph maximizes cross-device
    // forwarding, so the mailbox path carries most of the traffic.
    ArrayRig rig;
    platforms::TopologyConfig acfg;
    acfg.devices = 8;
    acfg.partition = platforms::PartitionPolicy::Range;
    auto j1 = rig.run(acfg, 1);
    auto j8 = rig.run(acfg, 8);
    EXPECT_TRUE(j1.ok);
    EXPECT_GT(j1.crossDevice, 0u);
    EXPECT_EQ(j1, j8);
}

TEST(ArrayDeterminism, SingleDeviceUnaffectedByJobOverride)
{
    // devices = 1 drains its one queue without the parallel driver;
    // the result must be identical under any jobs setting.
    ArrayRig rig;
    platforms::TopologyConfig acfg;
    acfg.devices = 1;
    auto j1 = rig.run(acfg, 1);
    auto j8 = rig.run(acfg, 8);
    EXPECT_TRUE(j1.ok);
    EXPECT_EQ(j1.crossDevice, 0u);
    EXPECT_EQ(j1, j8);
}

} // namespace
