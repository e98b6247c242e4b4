#include "platforms/options.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>

#include "sim/executor.h"
#include "sim/log.h"

namespace beacongnn::platforms {

namespace {

/** Parse all of @p s as an unsigned decimal: no sign, no blanks, no
 *  overflow of @p out's type. */
template <typename T>
bool
parseUnsigned(std::string_view s, T &out)
{
    const char *last = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), last, out);
    return !s.empty() && ec == std::errc() && ptr == last;
}

/** "a; b; c" */
std::string
joined(const std::vector<std::string> &reasons)
{
    std::string out;
    for (const std::string &r : reasons)
        out += (out.empty() ? "" : "; ") + r;
    return out;
}

/**
 * Append a reason to @p reasons when a link of @p mbps (already checked
 * finite and > 0) cannot carry its largest transfer in a tick count
 * that fits sim::Tick. Every transfer's byte count is a uint32 (a page,
 * a result or config frame, a forwarded command), so the bound is the
 * time of 2^32 - 1 bytes.
 */
void
requireTickRate(std::vector<std::string> &reasons, const char *what,
                double mbps)
{
    const double worst_ns =
        static_cast<double>(std::numeric_limits<std::uint32_t>::max()) *
        1000.0 / mbps;
    if (!(mbps > 0.0) || !std::isfinite(mbps) || worst_ns < 0x1p64)
        return;
    std::ostringstream s;
    s << what << " of " << mbps
      << " is too small: a 4 GiB transfer would take more ticks than a "
         "64-bit tick count holds";
    reasons.push_back(s.str());
}

} // namespace

std::optional<KillEvent>
parseKillEvent(const std::string &spec)
{
    const std::size_t at = spec.find('@');
    if (at == std::string::npos)
        return std::nullopt;
    const std::string_view target = std::string_view(spec).substr(0, at);
    const std::string_view when = std::string_view(spec).substr(at + 1);
    const std::size_t dot = target.find('.');
    KillEvent k;
    if (!parseUnsigned(target.substr(0, dot), k.device))
        return std::nullopt;
    if (dot != std::string_view::npos) {
        unsigned die = 0;
        if (!parseUnsigned(target.substr(dot + 1), die) || die > INT_MAX)
            return std::nullopt;
        k.die = static_cast<int>(die);
    }
    std::uint64_t us = 0;
    if (!parseUnsigned(when, us) ||
        us > sim::kTickMax / sim::microseconds(1))
        return std::nullopt;
    k.at = sim::microseconds(us);
    return k;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > pos)
            out.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

unsigned long
flagInRange(const char *tool, const char *flag, const char *text,
            unsigned long lo, unsigned long hi)
{
    unsigned long v = 0;
    if (!parseUnsigned(std::string_view(text), v) || v < lo || v > hi) {
        std::fprintf(stderr,
                     "%s: %s must be an integer in %lu..%lu (got '%s')\n",
                     tool, flag, lo, hi, text);
        std::exit(2);
    }
    return v;
}

double
flagReal(const char *tool, const char *flag, const char *text)
{
    double v = 0;
    const char *last = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, last, v);
    if (ptr == text || ptr != last || ec != std::errc() ||
        !std::isfinite(v)) {
        std::fprintf(stderr,
                     "%s: %s must be a finite number (got '%s')\n", tool,
                     flag, text);
        std::exit(2);
    }
    return v;
}

const char *
flagValue(const char *tool, int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", tool, argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

void
checkJobsEnv(const char *tool)
{
    if (const char *env = std::getenv("BGN_JOBS"))
        flagInRange(tool, "BGN_JOBS", env, 1, sim::SimExecutor::kMaxJobs);
}

void
exitIfInvalid(const char *tool, const std::vector<std::string> &reasons)
{
    if (reasons.empty())
        return;
    for (auto r = reasons.begin(); r != reasons.end(); ++r) {
        if (std::find(reasons.begin(), r, *r) == r)
            std::fprintf(stderr, "%s: %s\n", tool, r->c_str());
    }
    std::exit(2);
}

void
fatalIfInvalid(const char *who, const std::vector<std::string> &reasons)
{
    if (!reasons.empty())
        sim::fatal(std::string(who) + ": " + joined(reasons));
}

void
requireFinite(std::vector<std::string> &reasons, const char *what,
              double v, double lo, bool or_equal)
{
    if (std::isfinite(v) && (v > lo || (or_equal && v == lo)))
        return;
    std::ostringstream s;
    s << what << " must be a finite number " << (or_equal ? ">= " : "> ")
      << lo << " (got " << v << ")";
    reasons.push_back(s.str());
}

SharedOptions::SharedOptions(const char *tool_,
                             std::string default_platforms)
    : tool(tool_), platformList(std::move(default_platforms))
{
    // BGN_JOBS is read wherever a worker count is resolved; check it
    // like --jobs, before any thread starts or anything prints.
    checkJobsEnv(tool);
}

void
SharedOptions::printUsage() const
{
    std::printf(
        "  --platform NAME[,NAME...]  CC|GLIST|SmartSage|BG-1|BG-DG|"
        "BG-SP|BG-DGSP|BG-2\n"
        "                      (default %s)\n"
        "  --workload NAME[,NAME...]  reddit|amazon|movielens|OGBN|PPI "
        "(default amazon)\n"
        "  --nodes N           override the workload's node count\n"
        "  --channels N / --dies N   SSD geometry\n"
        "  --devices N         SSDs in a scale-out array (default 1, at "
        "most %u;\n"
        "                      >1 needs a streaming platform)\n"
        "  --p2p-mbps X        per-device P2P link bandwidth "
        "(default 4000)\n"
        "  --p2p-latency-us N  P2P hop latency in us (default 1; the "
        "parallel\n"
        "                      simulator's lookahead — 0 serializes)\n"
        "  --partition NAME    hash|range|balanced graph partition "
        "(default hash)\n"
        "  --replication N     replicas per node (chained "
        "declustering, clamped to\n"
        "                      --devices; default 1)\n"
        "  --retry-prob X      per-die read-retry probability in "
        "[0, 1] (default 0)\n"
        "  --die-kill SPEC[,SPEC...]  kill schedule: DEV@US kills a "
        "whole device,\n"
        "                      DEV.DIE@US one die, at US "
        "microseconds\n"
        "  --cache-mb X        per-device DRAM vertex cache in MiB "
        "(default 0 = off)\n"
        "  --cache-policy NAME lru|mslru|fifo eviction policy "
        "(default lru)\n"
        "  --jobs N            parallel workers (1..%u): runs of the "
        "sweep, and the\n"
        "                      device queues within one multi-device "
        "run (default:\n"
        "                      BGN_JOBS or cores)\n"
        "  --csv FILE          append CSV result rows to FILE\n"
        "  --metrics FILE      dump every instrument as JSON\n"
        "  --metrics-csv FILE  dump every instrument as CSV\n"
        "  --trace FILE        Chrome-trace event file (single run "
        "only; Perfetto)\n",
        platformList.c_str(), TopologyConfig::kMaxDevices,
        sim::SimExecutor::kMaxJobs);
}

bool
parseJobs(const char *tool, int argc, char **argv, int &i)
{
    if (std::strcmp(argv[i], "--jobs") != 0)
        return false;
    sim::SimExecutor::setDefaultJobs(static_cast<unsigned>(
        flagInRange(tool, argv[i], flagValue(tool, argc, argv, i), 1,
                    sim::SimExecutor::kMaxJobs)));
    return true;
}

bool
SharedOptions::parse(int argc, char **argv, int &i)
{
    const std::string a = argv[i];
    auto next = [&] { return flagValue(tool, argc, argv, i); };
    auto count = [&](unsigned long lo, unsigned long hi) {
        return flagInRange(tool, a.c_str(), next(), lo, hi);
    };
    auto real = [&] { return flagReal(tool, a.c_str(), next()); };
    if (a == "--platform") platformList = next();
    else if (a == "--workload") workloadList = next();
    else if (a == "--nodes") nodes =
        static_cast<graph::NodeId>(count(1, UINT32_MAX));
    else if (a == "--channels") run.system.flash.channels =
        static_cast<unsigned>(count(0, UINT_MAX));
    else if (a == "--dies") run.system.flash.diesPerChannel =
        static_cast<unsigned>(count(0, UINT_MAX));
    else if (a == "--devices") run.topology.devices =
        static_cast<unsigned>(count(0, UINT_MAX));
    else if (a == "--p2p-mbps") run.topology.p2pMBps = real();
    else if (a == "--p2p-latency-us") run.topology.p2pLatency =
        sim::microseconds(
            count(0, sim::kTickMax / sim::microseconds(1)));
    else if (a == "--partition") {
        std::string n = next();
        run.topology.partition = *known(tool, "partition", n,
                                        findPartitionPolicy(n),
                                        partitionPolicyList());
    }
    else if (a == "--replication") run.topology.replication =
        static_cast<unsigned>(count(0, UINT_MAX));
    else if (a == "--retry-prob") run.system.disturb.retryProb = real();
    else if (a == "--die-kill") {
        for (const std::string &spec : splitList(next())) {
            auto k = parseKillEvent(spec);
            if (!k) {
                std::fprintf(stderr,
                             "%s: bad --die-kill '%s' (want DEV@US or "
                             "DEV.DIE@US)\n",
                             tool, spec.c_str());
                std::exit(2);
            }
            run.kills.push_back(*k);
        }
    }
    else if (a == "--cache-mb") run.cache.capacityMB = real();
    else if (a == "--cache-policy") {
        std::string n = next();
        run.cache.policy = *known(tool, "cache policy", n,
                                  cache::findCachePolicy(n),
                                  cache::cachePolicyList());
    }
    else if (parseJobs(tool, argc, argv, i)) {}
    else if (a == "--csv") csvPath = next();
    else if (a == "--metrics") metricsPath = next();
    else if (a == "--metrics-csv") metricsCsvPath = next();
    else if (a == "--trace") tracePath = next();
    else return false;
    return true;
}

void
SharedOptions::prepare(const gnn::ModelSpec &model, std::size_t points_,
                       std::vector<std::string> reasons)
{
    // Resolve both sweep axes up front: a bad name exits 2 with the
    // valid choices, before any expensive layout build.
    for (const std::string &n : splitList(platformList))
        kinds.push_back(*known(tool, "platform", n, findPlatform(n),
                               platformNameList()));
    std::vector<const graph::WorkloadSpec *> specs;
    for (const std::string &n : splitList(workloadList))
        specs.push_back(known(tool, "workload", n, graph::findWorkload(n),
                              graph::workloadNameList()));
    points = points_;

    if (kinds.empty() || specs.empty())
        reasons.push_back("--platform and --workload need at least one "
                          "name each");
    for (PlatformKind k : kinds) {
        for (std::string &r : run.validate(makePlatform(k), model))
            reasons.push_back(std::move(r));
    }
    const std::size_t total = kinds.size() * specs.size() * points;
    if (!tracePath.empty() && total != 1)
        reasons.push_back("--trace requires a single run (this sweep "
                          "has " + std::to_string(total) + ")");
    exitIfInvalid(tool, reasons);

    // One bundle per workload, shared read-only across all runs.
    for (const graph::WorkloadSpec *w : specs)
        bundles.push_back(makeBundle(*w, run.system.flash, model, nodes));
    if (!metricsPath.empty() || !metricsCsvPath.empty())
        regs.resize(total);
    if (!tracePath.empty())
        run.traceSink = &sink;
}

sim::MetricRegistry *
SharedOptions::registry(std::size_t i)
{
    return regs.empty() ? nullptr : &regs[i];
}

std::ofstream
SharedOptions::appendCsv(
    const std::function<void(std::ostream &)> &header) const
{
    const bool fresh = !std::ifstream(csvPath).good();
    std::ofstream out(csvPath, std::ios::app);
    if (fresh)
        header(out);
    return out;
}

void
SharedOptions::writeOutputs(const std::vector<RunLabel> &labels,
                            const char *indent) const
{
    if (!metricsPath.empty()) {
        std::ofstream out(metricsPath);
        out << "{\"runs\": [";
        for (std::size_t i = 0; i < labels.size(); ++i) {
            const RunLabel &l = labels[i];
            out << (i == 0 ? "\n" : ",\n");
            out << "{\"platform\": \"" << l.platform
                << "\", \"workload\": \"" << l.workload << "\", ";
            if (l.algo)
                out << "\"algo\": \"" << *l.algo << "\", ";
            if (l.offeredRate)
                out << "\"offered_rate\": " << *l.offeredRate << ", ";
            out << "\"metrics\": ";
            regs[i].writeJson(out);
            out << "}";
        }
        out << "\n]}\n";
        std::printf("%swrote metrics snapshot to %s\n", indent,
                    metricsPath.c_str());
    }
    if (!metricsCsvPath.empty()) {
        std::ofstream out(metricsCsvPath);
        sim::MetricRegistry::writeCsvHeader(out, "platform,workload,");
        for (std::size_t i = 0; i < labels.size(); ++i)
            regs[i].writeCsv(out, labels[i].platform + "," +
                                      labels[i].workload + ",");
        std::printf("%swrote metrics CSV to %s\n", indent,
                    metricsCsvPath.c_str());
    }
    if (!tracePath.empty()) {
        std::ofstream out(tracePath);
        sink.write(out);
        std::printf("%swrote %zu trace event(s) to %s%s\n", indent,
                    sink.events(), tracePath.c_str(),
                    sink.dropped() ? " (truncated)" : "");
    }
}

std::vector<std::string>
RunConfig::validate(const PlatformConfig &platform,
                    const gnn::ModelSpec &spec) const
{
    std::vector<std::string> r;
    auto fail = [&r](std::string why) { r.push_back(std::move(why)); };

    const TopologyConfig &topo = topology;
    const flash::FlashConfig &fc = system.flash;
    if (topo.devices < 1 || topo.devices > TopologyConfig::kMaxDevices)
        fail("devices must be in 1.." +
             std::to_string(TopologyConfig::kMaxDevices) + " (got " +
             std::to_string(topo.devices) + ")");
    if (topo.multi() && !platform.flags.directGraph)
        fail("a " + std::to_string(topo.devices) +
             "-device array needs a streaming (DirectGraph) platform; '" +
             platform.name + "' is not");
    if (topo.replication < 1)
        fail("replication must be >= 1");
    requireFinite(r, "P2P bandwidth (MB/s)", topo.p2pMBps, 0);
    requireTickRate(r, "P2P bandwidth (MB/s)", topo.p2pMBps);

    if (fc.channels < 1)
        fail("flash channels must be >= 1");
    if (fc.diesPerChannel < 1)
        fail("dies per channel must be >= 1");
    if (fc.pageSize < 1)
        fail("flash page size must be >= 1 byte");
    if (system.controller.cores < 1)
        fail("controller cores must be >= 1");
    requireFinite(r, "channel bandwidth (MB/s)", fc.channelMBps, 0);
    requireTickRate(r, "channel bandwidth (MB/s)", fc.channelMBps);
    const double retry = system.disturb.retryProb;
    if (!(retry >= 0.0 && retry <= 1.0)) {
        std::ostringstream s;
        s << "read-retry probability must be in [0, 1] (got " << retry
          << ")";
        fail(s.str());
    }

    for (const KillEvent &k : kills) {
        if (k.device >= topo.devices)
            fail("kill schedule names device " + std::to_string(k.device) +
                 " of a " + std::to_string(topo.devices) +
                 "-device topology");
        else if (k.die >= 0 &&
                 static_cast<unsigned>(k.die) >= fc.totalDies())
            fail("kill schedule names die " + std::to_string(k.die) +
                 " of a " + std::to_string(fc.totalDies()) +
                 "-die device");
    }

    // The tier sizes itself in whole lines; the count must fit uint64.
    requireFinite(r, "cache capacity (MiB)", cache.capacityMB, 0, true);
    if (cache.enabled() && std::isfinite(cache.capacityMB) &&
        !(cache.capacityMB * 1048576.0 / cache.lineBytes < 0x1p64)) {
        std::ostringstream s;
        s << "a cache of " << cache.capacityMB
          << " MiB does not fit a 64-bit count of " << cache.lineBytes
          << "-byte lines";
        fail(s.str());
    }
    requireFinite(r, "Zipf theta", zipfTheta, 0, true);

    // Work bound: in the worst case every target expands its full
    // fanout tree on one device, batch × Σ_h ∏_{i<h} fanout_i entries,
    // which must fit that device's lane of the packed slot space.
    double entries = 0, level = batchSize;
    for (unsigned h = 0; h <= spec.hops; ++h) {
        entries += level;
        level *= spec.fanoutAt(h);
    }
    const std::uint32_t lane = engines::slotMask(
        engines::slotShiftFor(std::max(1u, topo.devices)));
    if (entries > lane) {
        std::ostringstream s;
        s << "a " << batchSize << "-target batch of "
          << unsigned{spec.hops} << "-hop subgraphs can reach "
          << entries << " entries, over the " << lane
          << " one device holds";
        fail(s.str());
    }
    return r;
}

} // namespace beacongnn::platforms
