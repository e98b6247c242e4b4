/**
 * @file
 * Unit tests for the discrete-event kernel, RNG, statistics and
 * analytic resource primitives.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/resources.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace {

using namespace beacongnn::sim;

TEST(Units, TimeConstructors)
{
    EXPECT_EQ(microseconds(3), 3000u);
    EXPECT_EQ(milliseconds(1), 1000000u);
    EXPECT_EQ(seconds(2), 2000000000u);
    EXPECT_DOUBLE_EQ(toMicros(1500), 1.5);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(4)), 4.0);
}

TEST(Units, TransferTime)
{
    // 800 MB/s: 4096 bytes take 5.12 us.
    EXPECT_EQ(transferTime(4096, 800.0), 5120u);
    // Zero bytes, zero time.
    EXPECT_EQ(transferTime(0, 800.0), 0u);
    // Tiny transfers still take at least one tick.
    EXPECT_GE(transferTime(1, 1e9), 1u);
    // A duration past the tick range saturates instead of wrapping.
    EXPECT_EQ(transferTime(4096, 1e-300), kTickMax);
    EXPECT_EQ(transferTime(4096, std::nan("")), kTickMax);
}

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, StableAtEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        q.schedule(5, [&] {
            ++fired;
            EXPECT_EQ(q.now(), 15u);
        });
    });
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PastSchedulingClamps)
{
    EventQueue q;
    bool ran = false;
    q.schedule(10, [&] {
        q.scheduleAt(3, [&] {
            ran = true;
            EXPECT_EQ(q.now(), 10u);
        });
    });
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.runUntil(15);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(count, 2);
}

/** Live-instance accounting of the property test's captures. */
struct Census
{
    std::int64_t constructed = 0;
    std::int64_t destroyed = 0;
    std::int64_t live() const { return constructed - destroyed; }
};

/** A capture member that counts its constructions and destructions. */
struct Tracked
{
    Census *census;
    explicit Tracked(Census *c) : census(c) { ++census->constructed; }
    Tracked(const Tracked &o) : census(o.census) { ++census->constructed; }
    Tracked(Tracked &&o) noexcept : census(o.census)
    {
        ++census->constructed;
    }
    Tracked &operator=(const Tracked &) = delete;
    ~Tracked() { ++census->destroyed; }
};

/**
 * Seeded property test of the event kernel. A sim::Pcg32 draws a mix
 * of operations that run both on a sim::EventQueue and on a reference
 * model: an ordered map keyed by (when, insertion seq), which is the
 * documented pop order by construction. Every pop must be the
 * reference's earliest event, at its time. Callbacks come in three
 * shapes — small, move-only and heap-spilled (over the 64-byte inline
 * buffer) — and some schedule more events while they run.
 */
class QueueModel
{
  public:
    QueueModel(std::uint64_t seed, Census &c) : census(c), rng(seed) {}

    /** Run @p steps drawn operations, checking as it goes. */
    void
    drive(unsigned steps)
    {
        for (unsigned i = 0; i < steps && !::testing::Test::HasFailure();
             ++i) {
            const std::uint32_t op = rng.below(100);
            if (op < 25) {
                const Tick delay = rng.below(50);
                const Tick want = q.now() + delay;
                EXPECT_EQ(q.schedule(delay, make(want)), want);
            } else if (op < 50) {
                scheduleAtDrawn();
            } else if (op < 60) {
                bulk(1 + rng.below(7)); // Sift-up path.
            } else if (op < 66) {
                // Re-heapify path: at least 8 and half the heap.
                bulk(std::max<std::size_t>(8, q.pending() / 2) +
                     rng.below(8));
            } else if (op < 98) {
                runUntil(q.now() + rng.below(40));
            } else {
                q.clear();
                ref.clear();
                ++clears;
                EXPECT_EQ(q.pending(), 0u);
                EXPECT_EQ(q.now(), 0u);
                EXPECT_EQ(census.live(), 0) << "clear() leaked a callback";
            }
        }
    }

    /** Run everything left and check the queue drained. */
    void
    drain()
    {
        runUntil(kTickMax);
        EXPECT_EQ(q.pending(), 0u);
        EXPECT_TRUE(ref.empty());
    }

    std::size_t pending() const { return q.pending(); }

    std::uint64_t fired = 0;
    std::uint64_t spawned = 0;
    std::uint64_t clamped = 0;
    std::uint64_t smallBulks = 0;
    std::uint64_t heapifyBulks = 0;
    unsigned clears = 0;

  private:
    /** A callback of a drawn shape, due at @p when (before the clamp),
     *  plus its reference entry. Call right before handing it to the
     *  queue, so both assign insertion order alike. */
    EventQueue::Callback
    make(Tick when)
    {
        const std::uint32_t id = nextId++;
        ref.emplace(std::make_pair(std::max(when, q.now()), refSeq++), id);
        Tracked t(&census);
        switch (rng.below(3)) {
        case 0:
            return [this, t, id] { fire(id); };
        case 1: {
            auto owned = std::make_unique<std::uint32_t>(id);
            return [this, t, owned = std::move(owned)] { fire(*owned); };
        }
        default: {
            std::array<std::uint64_t, 9> payload;
            for (std::size_t k = 0; k < payload.size(); ++k)
                payload[k] = id * 31ull + k;
            static_assert(sizeof(payload) > InlineCallback::kInlineSize);
            return [this, t, id, payload] {
                for (std::size_t k = 0; k < payload.size(); ++k)
                    EXPECT_EQ(payload[k], id * 31ull + k);
                fire(id);
            };
        }
        }
    }

    /** A time in [now - 20, now + 50): past times exercise the clamp. */
    Tick
    drawTime()
    {
        const Tick back = rng.below(20);
        const Tick base = q.now() > back ? q.now() - back : 0;
        return base + rng.below(50 + static_cast<std::uint32_t>(
                                         q.now() - base));
    }

    void
    scheduleAtDrawn()
    {
        const Tick when = drawTime();
        if (when < q.now())
            ++clamped;
        const Tick want = std::max(when, q.now());
        EXPECT_EQ(q.scheduleAt(when, make(when)), want);
    }

    void
    bulk(std::size_t n)
    {
        const bool heapify = n >= 8 && n >= q.pending() / 2;
        ++(heapify ? heapifyBulks : smallBulks);
        std::vector<EventQueue::TimedEvent> batch;
        for (std::size_t i = 0; i < n; ++i) {
            const Tick when = drawTime();
            batch.push_back({when, make(when)});
        }
        q.bulkScheduleAt(batch);
        EXPECT_EQ(q.pending(), ref.size());
    }

    void
    runUntil(Tick limit)
    {
        lastFired = q.now();
        // fire() checks each pop against the reference, in order.
        EXPECT_EQ(q.runUntil(limit), lastFired);
        EXPECT_TRUE(ref.empty() || ref.begin()->first.first > limit)
            << "runUntil stopped with due events";
        EXPECT_EQ(q.pending(), ref.size());
        EXPECT_EQ(q.nextTime(),
                  ref.empty() ? kTickMax : ref.begin()->first.first);
        EXPECT_EQ(census.live(), static_cast<std::int64_t>(ref.size()));
    }

    void
    fire(std::uint32_t id)
    {
        ++fired;
        ASSERT_FALSE(ref.empty()) << "event " << id << " not pending";
        auto top = ref.begin();
        ASSERT_EQ(top->second, id) << "popped out of (when, seq) order";
        EXPECT_EQ(q.now(), top->first.first);
        lastFired = top->first.first;
        ref.erase(top);
        // Schedule from inside the running callback.
        if (rng.below(3) != 0)
            return;
        for (std::uint32_t k = 1 + rng.below(2); k > 0; --k) {
            ++spawned;
            if (rng.below(2) == 0) {
                scheduleAtDrawn();
            } else {
                const Tick delay = rng.below(30);
                const Tick want = q.now() + delay;
                EXPECT_EQ(q.schedule(delay, make(want)), want);
            }
        }
    }

    Census &census; // Outlives the queue.
    Pcg32 rng;
    EventQueue q;
    std::map<std::pair<Tick, std::uint64_t>, std::uint32_t> ref;
    std::uint64_t refSeq = 0;
    std::uint32_t nextId = 0;
    Tick lastFired = 0;
};

TEST(EventQueue, SeededOpsPopInWhenSeqOrder)
{
    for (std::uint64_t seed : {1ull, 0xBEACull, 0x5EEDull}) {
        SCOPED_TRACE(seed);
        Census census;
        {
            QueueModel m(seed, census);
            m.drive(6000);
            m.drain();
            // Every path was exercised.
            EXPECT_GT(m.fired, 1000u);
            EXPECT_GT(m.spawned, 100u);
            EXPECT_GT(m.clamped, 100u);
            EXPECT_GT(m.smallBulks, 10u);
            EXPECT_GT(m.heapifyBulks, 10u);
            EXPECT_GT(m.clears, 0u);
        }
        EXPECT_GT(census.constructed, 1000);
        EXPECT_EQ(census.live(), 0);
    }
}

TEST(EventQueue, DestroyingAPendingQueueDestroysEveryCallback)
{
    for (std::uint64_t seed : {2ull, 3ull}) {
        SCOPED_TRACE(seed);
        Census census;
        {
            QueueModel m(seed, census);
            m.drive(3000);
            ASSERT_GT(m.pending(), 0u);
            EXPECT_EQ(census.live(),
                      static_cast<std::int64_t>(m.pending()));
        }
        EXPECT_EQ(census.live(), 0);
    }
}

TEST(Rng, Deterministic)
{
    Pcg32 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Pcg32 rng(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowRoughlyUniform)
{
    Pcg32 rng(123);
    std::vector<int> counts(8, 0);
    const int draws = 80000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(8)];
    for (int c : counts) {
        EXPECT_GT(c, draws / 8 - draws / 40);
        EXPECT_LT(c, draws / 8 + draws / 40);
    }
}

TEST(Rng, KeyedIsOrderIndependent)
{
    // Same key, same value, no matter how many times or when.
    auto a = keyedRandom(1, 2, 3, 4, 5);
    auto b = keyedRandom(1, 2, 3, 4, 5);
    EXPECT_EQ(a, b);
    // Different keys give different values (with high probability).
    EXPECT_NE(keyedRandom(1, 2, 3, 4, 5), keyedRandom(1, 2, 3, 4, 6));
    EXPECT_NE(keyedRandom(1, 2, 3, 4, 5), keyedRandom(1, 2, 3, 5, 5));
    EXPECT_NE(keyedRandom(1, 2, 3, 4, 5), keyedRandom(2, 2, 3, 4, 5));
}

TEST(Rng, KeyedBelowBounds)
{
    for (std::uint32_t draw = 0; draw < 500; ++draw)
        EXPECT_LT(keyedBelow(9, 1, 2, 3, draw, 13), 13u);
    EXPECT_EQ(keyedBelow(9, 1, 2, 3, 0, 1), 0u);
    EXPECT_EQ(keyedBelow(9, 1, 2, 3, 0, 0), 0u);
}

TEST(Stats, Accumulator)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.add(2.0);
    a.add(4.0);
    a.add(6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Stats, AccumulatorMerge)
{
    Accumulator a, b;
    a.add(1.0);
    a.add(3.0);
    b.add(10.0);
    Accumulator m = merged(a, b);
    EXPECT_EQ(m.count(), 3u);
    EXPECT_DOUBLE_EQ(m.sum(), 14.0);
    EXPECT_DOUBLE_EQ(m.min(), 1.0);
    EXPECT_DOUBLE_EQ(m.max(), 10.0);
}

TEST(Stats, HistogramQuantiles)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
}

TEST(Stats, IntervalTraceMergesContiguous)
{
    IntervalTrace t;
    t.add(0, 10);
    t.add(10, 20); // Contiguous: merged.
    t.add(30, 40);
    EXPECT_EQ(t.get().size(), 2u);
    EXPECT_EQ(t.busy(), 30u);
    EXPECT_EQ(t.busyWithin(5, 35), 20u);
}

TEST(Stats, ActiveSeries)
{
    IntervalTrace a, b;
    a.add(0, 100); // Busy in the whole window.
    b.add(0, 50);  // Busy in the first half.
    std::vector<const IntervalTrace *> traces = {&a, &b};
    auto series = activeSeries(traces, 100, 4);
    ASSERT_EQ(series.size(), 4u);
    EXPECT_DOUBLE_EQ(series[0], 2.0);
    EXPECT_DOUBLE_EQ(series[1], 2.0);
    EXPECT_DOUBLE_EQ(series[2], 1.0);
    EXPECT_DOUBLE_EQ(series[3], 1.0);
}

TEST(Resources, ServerPoolQueues)
{
    ServerPool pool(2);
    // Two servers: first two requests start immediately.
    Grant a = pool.acquire(0, 10);
    Grant b = pool.acquire(0, 10);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(b.start, 0u);
    // Third waits for the earliest server.
    Grant c = pool.acquire(0, 10);
    EXPECT_EQ(c.start, 10u);
    EXPECT_EQ(c.waited(0), 10u);
    EXPECT_EQ(pool.busyTime(), 30u);
    EXPECT_EQ(pool.requests(), 3u);
}

TEST(Resources, ServerPoolRespectsReadyTime)
{
    ServerPool pool(1);
    Grant a = pool.acquire(100, 10);
    EXPECT_EQ(a.start, 100u);
    Grant b = pool.acquire(50, 10); // Ready earlier, but queued behind.
    EXPECT_EQ(b.start, 110u);
}

TEST(Resources, BusSerializesAndTracks)
{
    Bus bus("b", true);
    Grant a = bus.acquire(0, 5);
    Grant b = bus.acquire(0, 5);
    EXPECT_EQ(a.end, 5u);
    EXPECT_EQ(b.start, 5u);
    EXPECT_EQ(bus.busyTime(), 10u);
    EXPECT_EQ(bus.intervals().busy(), 10u);
}

TEST(Resources, BusHoldUntil)
{
    Bus bus;
    bus.acquire(0, 5);
    bus.holdUntil(20);
    Grant g = bus.acquire(0, 5);
    EXPECT_EQ(g.start, 20u);
    // holdUntil adds no busy time.
    EXPECT_EQ(bus.busyTime(), 10u);
}

TEST(Resources, BandwidthResource)
{
    BandwidthResource bw(1000.0); // 1000 MB/s = 1 byte/ns.
    Grant a = bw.acquire(0, 1000);
    EXPECT_EQ(a.end, 1000u);
    Grant b = bw.acquire(500, 1000);
    EXPECT_EQ(b.start, 1000u);
    EXPECT_EQ(bw.bytesMoved(), 2000u);
}

TEST(Resources, UtilizationComputation)
{
    Bus bus;
    bus.acquire(0, 25);
    EXPECT_DOUBLE_EQ(bus.utilization(100), 0.25);
    ServerPool pool(4);
    pool.acquire(0, 100);
    EXPECT_DOUBLE_EQ(pool.utilization(100), 0.25);
}

} // namespace
