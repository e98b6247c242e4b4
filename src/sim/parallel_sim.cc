#include "sim/parallel_sim.h"

#include <algorithm>

#include "sim/executor.h"
#include "sim/log.h"

namespace beacongnn::sim {

namespace {

constexpr std::uint64_t kWorkerBits = 0xFFFFFFFFull;

} // namespace

void
SpinBarrier::yieldNow()
{
    std::this_thread::yield();
}

ParallelSimulator::ParallelSimulator(std::vector<SimStation> stations,
                                     Tick lookahead, unsigned jobs)
    : _stations(std::move(stations)), _lookahead(lookahead),
      _jobsParam(jobs)
{
    for (const SimStation &s : _stations)
        if (!s.queue || !s.drain)
            fatal("ParallelSimulator: station without queue or drain");
}

ParallelSimulator::~ParallelSimulator()
{
    if (_helpers.empty())
        return;
    // Worker count 0 in a new generation tells every parked helper to
    // return.
    _signal.store(((_signal.load() >> 32) + 1) << 32,
                  std::memory_order_release);
    _signal.notify_all();
    for (std::thread &t : _helpers)
        t.join();
}

void
ParallelSimulator::helperMain(unsigned w, std::uint64_t signal)
{
    for (;;) {
        _signal.wait(signal, std::memory_order_acquire);
        signal = _signal.load(std::memory_order_acquire);
        const auto workers = static_cast<unsigned>(signal & kWorkerBits);
        if (workers == 0)
            return;
        if (w >= workers)
            continue; // Not needed this run; park again.
        runWindows(w, workers);
        if (_busy.fetch_sub(1, std::memory_order_acq_rel) == 1)
            _busy.notify_one();
    }
}

Tick
ParallelSimulator::floorOf(unsigned workers) const
{
    Tick floor = kTickMax;
    for (unsigned i = 0; i < workers; ++i)
        floor = std::min(floor, _floors[i].t);
    return floor;
}

Tick
ParallelSimulator::windowLimit(Tick floor) const
{
    // Inclusive runUntil() limit: [floor, floor + lookahead). With a
    // zero lookahead the window collapses to the single timestamp
    // `floor` — serialized but deadlock-free (messages posted at
    // `floor` are delivered next round, in sorted order).
    if (_lookahead == 0)
        return floor;
    if (_lookahead - 1 > kTickMax - floor)
        return kTickMax;
    return floor + (_lookahead - 1);
}

void
ParallelSimulator::runWindows(unsigned w, unsigned workers)
{
    // Worker w owns stations w, w + workers, ... for the whole run:
    // it alone drains them, runs them and reads their clocks. The
    // barriers order everything else. A station posts into a
    // (source, destination) inbox only inside a window and its
    // destination's owner drains that inbox only after `_ran`; every
    // worker publishes its floor before `_drained` and reads the
    // others' only after it, and writes it again only after `_ran`.
    auto claim = [this](std::size_t s) {
        if constexpr (kCheckedBuild) {
            if (_validator)
                _validator->claimStation(static_cast<unsigned>(s));
        }
    };
    auto release = [this](std::size_t s) {
        if constexpr (kCheckedBuild) {
            if (_validator)
                _validator->releaseStation(static_cast<unsigned>(s));
        }
    };
    // The last arrival at a barrier is the only running thread, so
    // the checked-build window reports happen with every station
    // quiescent.
    auto open = [this, workers] {
        if constexpr (kCheckedBuild) {
            const Tick floor = floorOf(workers);
            if (_validator && floor != kTickMax)
                _validator->windowOpen(floor, windowLimit(floor));
        }
    };
    auto close = [this] {
        if constexpr (kCheckedBuild) {
            if (_validator)
                _validator->windowClose();
        }
    };

    for (;;) {
        Tick local = kTickMax;
        for (std::size_t s = w; s < _stations.size(); s += workers) {
            claim(s);
            _stations[s].drain();
            release(s);
            local = std::min(local, _stations[s].queue->nextTime());
        }
        _floors[w].t = local;
        _drained.arriveAndWait(open);

        const Tick floor = floorOf(workers);
        if (floor == kTickMax)
            return;
        const Tick limit = windowLimit(floor);
        if (w == 0)
            ++_windows;
        for (std::size_t s = w; s < _stations.size(); s += workers) {
            claim(s);
            _stations[s].queue->runUntil(limit);
            release(s);
        }
        _ran.arriveAndWait(close);
    }
}

Tick
ParallelSimulator::run()
{
    if (_stations.empty())
        return 0;
    unsigned jobs = _jobsParam ? _jobsParam : SimExecutor::defaultJobs();
    const auto workers = static_cast<unsigned>(std::min<std::size_t>(
        std::max(1u, jobs), _stations.size()));
    _lastJobs = workers;
    _floors.resize(std::max<std::size_t>(_floors.size(), workers));
    _drained.setParties(workers);
    _ran.setParties(workers);

    if (workers > 1) {
        const std::uint64_t gen = (_signal.load() >> 32) + 1;
        // A new helper parks on the signal value it was started with,
        // so it cannot miss the wake-up below.
        while (_helpers.size() + 1 < workers) {
            const auto w = static_cast<unsigned>(_helpers.size() + 1);
            _helpers.emplace_back(&ParallelSimulator::helperMain, this,
                                  w, _signal.load());
        }
        _busy.store(workers - 1, std::memory_order_relaxed);
        _signal.store((gen << 32) | workers, std::memory_order_release);
        _signal.notify_all();
    }
    runWindows(0, workers);
    // Helpers leave the loop after reading the final floors; wait for
    // them so the next run() may reuse the floors and the barriers.
    for (unsigned b; (b = _busy.load(std::memory_order_acquire)) != 0;)
        _busy.wait(b, std::memory_order_acquire);

    Tick end = 0;
    for (SimStation &s : _stations)
        end = std::max(end, s.queue->now());
    return end;
}

} // namespace beacongnn::sim
