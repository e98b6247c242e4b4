/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The kernel is a time-ordered priority queue of closures. Components
 * schedule work with schedule(delay, fn); the main loop pops events in
 * (time, insertion-order) order so simultaneous events execute in a
 * deterministic FIFO order — a requirement for reproducible runs.
 *
 * The hot path is allocation-free once the queue is warm, and moves
 * each closure exactly twice. Callbacks are small-buffer-optimized
 * InlineCallbacks (no heap for typical captures). Each one is parked
 * once in a slot of a pool that recycles freed slots through a free
 * list; the binary heap orders only small {when, order, slot} keys,
 * so its sift steps copy 24-byte keys instead of relocating closures.
 * runUntil() moves the callback out of its slot once and runs it.
 * Because every key's (when, order) pair is unique, the pop order is
 * the same total order whatever the heap's internal layout.
 */

#ifndef BEACONGNN_SIM_EVENT_QUEUE_H
#define BEACONGNN_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/types.h"
#include "sim/validator.h"

namespace beacongnn::sim {

/**
 * Deterministic discrete-event queue.
 *
 * Events at equal timestamps fire in insertion order (stable), which
 * keeps multi-component interactions reproducible across runs and
 * platforms.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run @p delay ticks from now.
     * @return The absolute tick at which the event will fire.
     */
    Tick
    schedule(Tick delay, Callback fn)
    {
        return push(_now + delay, std::move(fn));
    }

    /**
     * Schedule @p fn at absolute time @p when. Scheduling in the past
     * is clamped to "now" (the event still runs, immediately), which
     * lets analytic resource models hand back conservative grant times
     * without extra branching at every call site.
     */
    Tick
    scheduleAt(Tick when, Callback fn)
    {
        return push(when, std::move(fn));
    }

    /** Number of pending events. */
    std::size_t pending() const { return keys.size(); }

    /** Timestamp of the earliest pending event (kTickMax if none).
     *  This is what a conservative parallel driver needs to compute
     *  the global window floor without popping anything. */
    Tick
    nextTime() const
    {
        return keys.empty() ? kTickMax : keys.front().when;
    }

    /** Pre-size the heap and the slot pool for @p n pending events. */
    void
    reserve(std::size_t n)
    {
        keys.reserve(n);
        slots.reserve(n);
        freeSlots.reserve(n);
    }

    /** One pre-timed event of a bulkScheduleAt() batch. */
    struct TimedEvent
    {
        Tick when;
        Callback fn;
    };

    /**
     * Schedule a whole message batch at once (mailbox drains). One
     * capacity reservation covers the batch, and a batch that rivals
     * the heap size re-heapifies once (O(n + k)) instead of paying k
     * sift-ups. Execution order is unaffected by the internal path:
     * the pop order is the total order (when, insertion-seq), and the
     * batch receives its sequence numbers in element order exactly as
     * k individual scheduleAt() calls would. The callbacks are moved
     * out of @p batch; the caller keeps (and may reuse) its storage.
     */
    void
    bulkScheduleAt(std::span<TimedEvent> batch)
    {
        reserve(keys.size() + batch.size());
        if (batch.size() >= 8 && batch.size() >= keys.size() / 2) {
            for (TimedEvent &e : batch)
                keys.push_back(park(e.when, std::move(e.fn)));
            std::make_heap(keys.begin(), keys.end(), Later{});
        } else {
            for (TimedEvent &e : batch)
                push(e.when, std::move(e.fn));
        }
    }

    /** Events the heap holds without growing. */
    std::size_t capacity() const { return keys.capacity(); }

    /**
     * Attach the checked-build validator, registering this queue as
     * @p station's local clock. A nullptr detaches. The setter is
     * always available; the hooks it feeds are compiled out entirely
     * unless BGN_CHECKED is defined (kCheckedBuild).
     */
    void
    setValidator(Validator *v, unsigned station)
    {
        _validator = v;
        _station = station;
    }

    /**
     * Run until the queue drains.
     * @return Final simulated time.
     */
    Tick
    run()
    {
        return runUntil(kTickMax);
    }

    /**
     * Run events with timestamp <= @p limit.
     * @return Simulated time after the last executed event (or @p limit
     *         if the queue drained earlier than the limit).
     */
    Tick
    runUntil(Tick limit)
    {
        while (!keys.empty() && keys.front().when <= limit) {
            std::pop_heap(keys.begin(), keys.end(), Later{});
            const Key k = keys.back();
            keys.pop_back();
            // Move the callback out before executing: it may schedule
            // new events, which can grow (relocate) the slot pool and
            // reuse the slot it has just freed.
            Callback fn = std::move(slots[k.slot]);
            freeSlots.push_back(k.slot);
            _now = k.when;
            if constexpr (kCheckedBuild) {
                if (_validator)
                    _validator->onPop(_station, k.when);
            }
            fn();
        }
        return _now;
    }

    /**
     * Drop all pending events and release the heap's and the slot
     * pool's memory (used between benchmark repetitions so one
     * oversized run does not pin its peak allocation forever).
     */
    void
    clear()
    {
        std::vector<Key>().swap(keys);
        std::vector<Callback>().swap(slots);
        std::vector<std::uint32_t>().swap(freeSlots);
        _now = 0;
        seq = 0;
    }

  private:
    /** Heap entry: the event's order plus where its callback is
     *  parked. */
    struct Key
    {
        Tick when;
        std::uint64_t order;
        std::uint32_t slot;
    };

    /** Max-heap comparator: the *earliest* event wins the top slot. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };

    /** Clamp @p when, park @p fn in a free slot and return its key
     *  (not yet in the heap). */
    Key
    park(Tick when, Callback &&fn)
    {
        if constexpr (kCheckedBuild) {
            // Before the clamp: a past-scheduled event is exactly
            // what the checked build exists to catch.
            if (_validator)
                _validator->onSchedule(_station, when, _now);
        }
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(slots.size());
            slots.push_back(std::move(fn));
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
            slots[slot] = std::move(fn);
        }
        return Key{std::max(when, _now), seq++, slot};
    }

    Tick
    push(Tick when, Callback &&fn)
    {
        const Key k = park(when, std::move(fn));
        keys.push_back(k);
        std::push_heap(keys.begin(), keys.end(), Later{});
        return k.when;
    }

    /** Binary heap of pending events, ordered by Later. */
    std::vector<Key> keys;
    /** Parked callbacks, indexed by Key::slot; freed slots hold empty
     *  callbacks until reused. */
    std::vector<Callback> slots;
    /** Slots whose callback has run (LIFO, so a hot slot is reused). */
    std::vector<std::uint32_t> freeSlots;
    Tick _now = 0;
    std::uint64_t seq = 0;
    /** Checked-build hooks (DESIGN.md §16); unused when off. */
    Validator *_validator = nullptr;
    unsigned _station = 0;
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_EVENT_QUEUE_H
