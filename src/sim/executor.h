/**
 * @file
 * Parallel run executor for design-space sweeps.
 *
 * Every simulation run (platforms::runPlatform) owns its private
 * EventQueue and component tree, so an N-point evaluation grid is
 * embarrassingly parallel. SimExecutor fans index-addressed jobs
 * across a fixed pool of worker threads; callers write result i into
 * slot i of a pre-sized vector, so collected results are always in
 * deterministic submission order regardless of which worker finished
 * first — printed tables and CSVs stay byte-identical to a serial
 * run.
 *
 * Job count resolution (first match wins):
 *   1. explicit constructor argument / --jobs flag,
 *   2. the BGN_JOBS environment variable (1..kMaxJobs),
 *   3. std::thread::hardware_concurrency().
 * With jobs == 1 the executor runs everything inline on the calling
 * thread — no threads are spawned at all.
 */

#ifndef BEACONGNN_SIM_EXECUTOR_H
#define BEACONGNN_SIM_EXECUTOR_H

#include <cstddef>
#include <functional>
#include <vector>

namespace beacongnn::sim {

class SimExecutor
{
  public:
    /**
     * @param jobs Worker count; 0 means "resolve the default" (BGN_JOBS
     *             env var, else hardware concurrency).
     */
    explicit SimExecutor(unsigned jobs = 0);

    /** Worker count this executor resolved to (>= 1). */
    unsigned jobs() const { return _jobs; }

    /**
     * Execute fn(0) .. fn(n-1) across the workers and block until all
     * are done. fn must be safe to call concurrently for distinct
     * indices. Exceptions escaping fn terminate (the simulator reports
     * errors via sim::fatal/panic, not exceptions).
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn);

    /**
     * Map fn over [0, n) and return the results in index order.
     * R must be default-constructible and movable.
     */
    template <typename R, typename Fn>
    std::vector<R>
    map(std::size_t n, Fn &&fn)
    {
        std::vector<R> out(n);
        run(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /** Largest worker count --jobs and BGN_JOBS accept. */
    static constexpr unsigned kMaxJobs = 1024;

    /**
     * Resolve the default job count: BGN_JOBS if set, else
     * std::thread::hardware_concurrency(), else 1. BGN_JOBS must be a
     * plain decimal in 1..kMaxJobs; anything else is a fatal
     * configuration error.
     */
    static unsigned defaultJobs();

    /**
     * Override the process-wide default job count (what a jobs == 0
     * executor resolves to). Used by --jobs command-line flags; 0
     * restores env/hardware resolution.
     */
    static void setDefaultJobs(unsigned jobs);

  private:
    unsigned _jobs;
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_EXECUTOR_H
