#include "sim/executor.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "sim/log.h"

namespace beacongnn::sim {

namespace {
/** Process-wide --jobs override; 0 = resolve from env/hardware. */
std::atomic<unsigned> gForcedJobs{0};
} // namespace

unsigned
SimExecutor::defaultJobs()
{
    if (unsigned forced = gForcedJobs.load(std::memory_order_relaxed))
        return forced;
    if (const char *env = std::getenv("BGN_JOBS")) {
        unsigned v = 0;
        const char *last = env + std::strlen(env);
        auto [ptr, ec] = std::from_chars(env, last, v);
        if (ptr == env || ptr != last || ec != std::errc() || v < 1 ||
            v > kMaxJobs)
            fatal("BGN_JOBS must be an integer in 1.." +
                  std::to_string(kMaxJobs) + " (got '" + env + "')");
        return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
SimExecutor::setDefaultJobs(unsigned jobs)
{
    gForcedJobs.store(jobs, std::memory_order_relaxed);
}

SimExecutor::SimExecutor(unsigned jobs)
    : _jobs(jobs ? jobs : defaultJobs())
{
}

void
SimExecutor::run(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(_jobs, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Atomic-counter dispatch: each worker claims the next unclaimed
    // index. No per-job queues, no stealing — jobs are coarse
    // (whole simulations), so contention on one counter is nil.
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed))
            fn(i);
    };

    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (unsigned t = 0; t + 1 < workers; ++t)
        threads.emplace_back(work);
    work(); // The calling thread is worker zero.
    for (auto &th : threads)
        th.join();
}

} // namespace beacongnn::sim
