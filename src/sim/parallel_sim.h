/**
 * @file
 * Conservative parallel discrete-event simulation across stations
 * (DESIGN.md §13).
 *
 * Each station owns a private EventQueue (its local clock) and a
 * drain hook that delivers its pending inbound mailbox messages. The
 * driver runs a synchronous-window (YAWNS-style Chandy–Misra)
 * algorithm. Per round, every worker drains its own stations' inboxes
 * and publishes the earliest pending event among them; after a
 * barrier every worker derives the same global floor T from those
 * minima and advances its stations through the window
 * [T, T + lookahead); a second barrier ends the round. The lookahead
 * is the fabric's minimum cross-station latency (one P2P hop): any
 * message generated inside the window is stamped at or beyond the
 * horizon, so no station can receive work it should already have
 * executed.
 *
 * Determinism contract: the executed event sequence of every station
 * is a pure function of (initial queues, drain hooks, lookahead) —
 * the worker count never changes which window an event lands in or
 * the order inside a window, because windows are global barriers and
 * each drain hook must deliver in a deterministically sorted order.
 * One worker runs the very same loop on the calling thread, so
 * jobs = 1 is byte-identical to any other worker count.
 *
 * Zero lookahead does not deadlock: the window degenerates to a
 * single timestamp ([T, T]) and the simulation proceeds as globally
 * serialized tick-stepped rounds — still deterministic for every
 * worker count, merely without look-ahead parallelism.
 */

#ifndef BEACONGNN_SIM_PARALLEL_SIM_H
#define BEACONGNN_SIM_PARALLEL_SIM_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/event_queue.h"
#include "sim/types.h"

namespace beacongnn::sim {

/** One parallel station: a device's queue plus its inbox drain. */
struct SimStation
{
    EventQueue *queue = nullptr;
    /** Deliver pending inbound messages into `queue` in a
     *  deterministically sorted order; returns how many. Called
     *  between windows by the worker that owns the station; drains
     *  of different stations run concurrently. */
    std::function<std::size_t()> drain;
};

/**
 * Reusable spinning barrier for the window loop. std::barrier (or
 * spawning threads per window) costs a futex round-trip per window;
 * windows are microseconds of work, so the workers spin briefly and
 * then yield — oversubscribed hosts degrade gracefully instead of
 * burning a core per waiter.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(unsigned parties = 1) : n(parties) {}

    /** Change the party count; only while no thread is inside. */
    void setParties(unsigned parties) { n = parties; }

    /**
     * Arrive and wait for the other parties. The last arrival runs
     * @p onLast before releasing them, so it sees every party's
     * writes and its own writes are visible to all of them.
     */
    template <typename OnLast>
    void
    arriveAndWait(OnLast &&onLast)
    {
        std::uint64_t my = gen.load(std::memory_order_acquire);
        if (count.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
            onLast();
            count.store(0, std::memory_order_relaxed);
            gen.fetch_add(1, std::memory_order_release);
            return;
        }
        unsigned spins = 0;
        while (gen.load(std::memory_order_acquire) == my) {
            if (++spins > kSpinLimit)
                yieldNow();
        }
    }

    void arriveAndWait() { arriveAndWait([] {}); }

  private:
    static constexpr unsigned kSpinLimit = 4096;
    static void yieldNow();

    unsigned n;
    std::atomic<unsigned> count{0};
    std::atomic<std::uint64_t> gen{0};
};

/**
 * Conservative windowed driver over a set of stations. Helper worker
 * threads are started on the first run() that needs them and live as
 * long as the driver, parked on an atomic wait between run() calls;
 * the calling thread is always worker 0.
 */
class ParallelSimulator
{
  public:
    /**
     * @param stations  The per-device queues + drain hooks.
     * @param lookahead Minimum cross-station latency (ticks). Zero is
     *                  legal and falls back to serialized windows.
     * @param jobs      Worker count; 0 resolves SimExecutor's default
     *                  (--jobs / BGN_JOBS / cores) at each run() and
     *                  is clamped to the station count.
     */
    ParallelSimulator(std::vector<SimStation> stations, Tick lookahead,
                      unsigned jobs = 0);

    /** Wakes the parked workers and joins them. */
    ~ParallelSimulator();

    ParallelSimulator(const ParallelSimulator &) = delete;
    ParallelSimulator &operator=(const ParallelSimulator &) = delete;

    /**
     * Run until global quiescence: every queue drained and every
     * mailbox empty. @return max station clock reached.
     */
    Tick run();

    /** Synchronization windows executed across all run() calls. */
    std::uint64_t windows() const { return _windows; }

    /** Lookahead this driver synchronizes with. */
    Tick lookahead() const { return _lookahead; }

    /** Worker count the last run() resolved to (0 before any run). */
    unsigned lastJobs() const { return _lastJobs; }

    /** Helper threads started so far (parked between runs). */
    std::size_t helperThreads() const { return _helpers.size(); }

    /**
     * Attach the checked-build validator (DESIGN.md §16): the last
     * worker to reach a barrier reports window open/close, and
     * workers claim their stations around each drain and each
     * runUntil. Station queues register themselves via
     * EventQueue::setValidator. Nullptr detaches; an OFF build
     * compiles every report out.
     */
    void setValidator(Validator *v) { _validator = v; }

  private:
    /** Body of helper thread @p w (>= 1): park, run, repeat. */
    void helperMain(unsigned w, std::uint64_t signal);
    /** The window loop, as worker @p w of @p workers. */
    void runWindows(unsigned w, unsigned workers);
    /** Global floor: the minimum of the first @p workers minima. */
    Tick floorOf(unsigned workers) const;
    Tick windowLimit(Tick floor) const;

    std::vector<SimStation> _stations;
    Tick _lookahead;
    unsigned _jobsParam;
    unsigned _lastJobs = 0;
    std::uint64_t _windows = 0;
    /** Checked-build hooks (DESIGN.md §16); unused when off. */
    Validator *_validator = nullptr;

    /** One worker's earliest pending event after its drains, padded
     *  so the workers' stores never share a line. */
    struct alignas(64) LocalFloor
    {
        Tick t = kTickMax;
    };
    std::vector<LocalFloor> _floors;
    /** All drains done (floors published) / all windows done. */
    SpinBarrier _drained, _ran;
    /** Run signal for the parked helpers: (generation << 32) |
     *  worker count of the run; a worker count of 0 means stop. */
    std::atomic<std::uint64_t> _signal{0};
    /** Helpers still inside the current run. */
    std::atomic<unsigned> _busy{0};
    /** Helper threads 1..size(); worker 0 is the run() caller. */
    std::vector<std::thread> _helpers;
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_PARALLEL_SIM_H
