/**
 * @file
 * The command-line layer shared by bgnsim, bgnserve and the bench
 * binaries (DESIGN.md §18): checked flag parsers, the flags both CLIs
 * accept, their startup (BGN_JOBS check, sweep-axis resolution,
 * validation, bundle building) and the one metrics/trace writer.
 *
 * Parsers check syntax and the range of the field's type; the config
 * rules themselves live in RunConfig::validate() and
 * serve::ServeConfig::validate(), stated once for the CLIs and the
 * library alike. A CLI prints every reason and exits 2; the library
 * calls sim::fatal.
 */

#ifndef BEACONGNN_PLATFORMS_OPTIONS_H
#define BEACONGNN_PLATFORMS_OPTIONS_H

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platforms/runner.h"
#include "sim/metrics.h"
#include "sim/trace_events.h"

namespace beacongnn::platforms {

/**
 * Parse one kill spec: "DEV@US" (whole device) or "DEV.DIE@US" (one
 * die), US in microseconds. Every field is a plain unsigned decimal:
 * signs, blanks and values that overflow their field (including a
 * time whose tick conversion wraps) are rejected. Empty on error.
 */
std::optional<KillEvent> parseKillEvent(const std::string &spec);

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &csv);

/**
 * Command-line helper: parse @p text, the value of @p flag (a flag or
 * an environment variable) of command-line tool @p tool, as a plain
 * unsigned decimal in [lo, hi]. Anything else (a sign, blanks,
 * trailing junk, an out-of-range or overflowing value) prints
 * "<tool>: <flag> must be an integer in lo..hi" with the text and
 * exits 2, so no narrowing cast downstream can wrap it.
 */
unsigned long flagInRange(const char *tool, const char *flag,
                          const char *text, unsigned long lo,
                          unsigned long hi);

/**
 * Command-line helper: parse all of @p text as a finite real number.
 * Trailing junk, inf, nan and values out of double range exit 2 with
 * a reason; the config's validate() checks the value's range.
 */
double flagReal(const char *tool, const char *flag, const char *text);

/** The value of flag argv[i], advancing i; exits 2 when it is the
 *  last argument. */
const char *flagValue(const char *tool, int argc, char **argv, int &i);

/** Consume "--jobs N" at argv[i] (1..SimExecutor::kMaxJobs, exit 2
 *  otherwise) as the default worker count; false for another flag. */
bool parseJobs(const char *tool, int argc, char **argv, int &i);

/** @p found (an optional or a pointer) when it holds a value, else
 *  exit 2 naming @p name and the @p valid choices of @p what. */
template <typename Found>
Found
known(const char *tool, const char *what, const std::string &name,
      Found found, const std::string &valid)
{
    if (!found) {
        std::fprintf(stderr, "%s: unknown %s '%s' (valid: %s)\n", tool,
                     what, name.c_str(), valid.c_str());
        std::exit(2);
    }
    return found;
}

/** Exit 2 with a reason unless BGN_JOBS is unset or an integer in
 *  1..SimExecutor::kMaxJobs. Call before anything prints. */
void checkJobsEnv(const char *tool);

/** Print "<tool>: <reason>" once per distinct reason and exit 2; no-op
 *  when @p reasons is empty. */
void exitIfInvalid(const char *tool, const std::vector<std::string> &reasons);

/** sim::fatal("<who>: <reason>; <reason>...") when @p reasons is not
 *  empty (the library-side counterpart of exitIfInvalid). */
void fatalIfInvalid(const char *who, const std::vector<std::string> &reasons);

/** Validator helper: append "<what> must be a finite number > lo (got
 *  v)" to @p reasons unless @p v is finite and above @p lo (or equal
 *  to it when @p or_equal). */
void requireFinite(std::vector<std::string> &reasons, const char *what,
                   double v, double lo, bool or_equal = false);

/** How one run is labelled in the metrics JSON and CSV. */
struct RunLabel
{
    std::string platform;
    std::string workload;
    std::optional<std::string> algo; ///< Vertex-program runs.
    std::optional<double> offeredRate; ///< Serving sweep points.
};

/**
 * The flags bgnsim and bgnserve share. A tool offers each argument to
 * parse() first and handles only its own flags; prepare() then turns
 * the sweep axes into platforms and bundles, and writeOutputs() dumps
 * the registries and trace the runs filled.
 */
class SharedOptions
{
  public:
    /** @param default_platforms Platform list when --platform is
     *  absent. Checks BGN_JOBS. */
    SharedOptions(const char *tool, std::string default_platforms);
    /** run.traceSink points at the owned sink. */
    SharedOptions(const SharedOptions &) = delete;
    SharedOptions &operator=(const SharedOptions &) = delete;

    /** Usage lines of the shared flags. */
    void printUsage() const;

    /** Consume argv[i] (and its value) if it is a shared flag. */
    bool parse(int argc, char **argv, int &i);

    /**
     * Resolve both sweep axes, validate run against every platform
     * under @p model, check that --trace names a single run of
     * `platforms × workloads × points`, and build one bundle per
     * workload. Exits 2 printing every reason on bad input, the
     * tool's own @p reasons included.
     */
    void prepare(const gnn::ModelSpec &model, std::size_t points = 1,
                 std::vector<std::string> reasons = {});

    /** Runs of the sweep (valid after prepare()). */
    std::size_t
    runs() const
    {
        return kinds.size() * bundles.size() * points;
    }

    /** Registry for run @p i, or nullptr when no metrics file is
     *  requested. */
    sim::MetricRegistry *registry(std::size_t i);

    /** --csv opened for appending; @p header is written first when
     *  the file is new. */
    std::ofstream appendCsv(
        const std::function<void(std::ostream &)> &header) const;

    /** Write --metrics, --metrics-csv and --trace; each confirmation
     *  line is prefixed by @p indent. */
    void writeOutputs(const std::vector<RunLabel> &labels,
                      const char *indent) const;

    const char *tool;
    std::string platformList;
    std::string workloadList = "amazon";
    graph::NodeId nodes = 0; ///< Node-count override (0 = spec's).
    std::string csvPath, metricsPath, metricsCsvPath, tracePath;
    RunConfig run;

    std::vector<PlatformKind> kinds;
    std::vector<std::unique_ptr<WorkloadBundle>> bundles;

  private:
    std::size_t points = 1;
    std::vector<sim::MetricRegistry> regs;
    sim::TraceSink sink;
};

} // namespace beacongnn::platforms

#endif // BEACONGNN_PLATFORMS_OPTIONS_H
