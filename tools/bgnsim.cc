/**
 * @file
 * bgnsim — command-line driver for the BeaconGNN simulator.
 *
 * Runs any platform on any workload with any system configuration
 * without writing code:
 *
 *   bgnsim --platform BG-2 --workload amazon --batches 4 \
 *          --batch-size 128 --channels 16 --dies 8 --cores 4 \
 *          --page-kb 4 --channel-mbps 800 --traditional \
 *          --nodes 30000 --trace-util --csv out.csv
 *
 * Prints a human-readable summary; optionally appends a CSV row for
 * scripting sweeps. --platform and --workload accept comma-separated
 * lists; the resulting grid runs in parallel on --jobs workers
 * (BGN_JOBS env var / hardware cores by default) with output in
 * deterministic grid order.
 *
 * Observability (DESIGN.md §10): --metrics/--metrics-csv dump every
 * registered instrument of every run; --trace (single run only)
 * writes a Chrome-trace-format event file loadable in Perfetto.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platforms/algo_runner.h"
#include "platforms/report.h"
#include "sim/executor.h"
#include "sim/log.h"
#include "sim/metrics.h"
#include "sim/trace_events.h"
#include "platforms/runner.h"

using namespace beacongnn;
using namespace beacongnn::platforms;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --platform NAME[,NAME...]  CC|GLIST|SmartSage|BG-1|BG-DG|"
        "BG-SP|BG-DGSP|BG-2 (default BG-2)\n"
        "  --workload NAME[,NAME...]  reddit|amazon|movielens|OGBN|PPI "
        "(default amazon)\n"
        "  --jobs N            parallel workers: grid cells, and the "
        "device queues\n"
        "                      within one multi-device run "
        "(default: BGN_JOBS or cores)\n"
        "  --nodes N           override the workload's node count\n"
        "  --batches N         mini-batches to run (default 4)\n"
        "  --batch-size N      targets per mini-batch (default 128)\n"
        "  --hops N / --fanout N   GNN sampling shape (default 3/3)\n"
        "  --model NAME        gcn|gin|gat aggregate/combine pair "
        "(default gcn)\n"
        "  --fanouts N[,N...]  per-hop fanout schedule (overrides "
        "--fanout)\n"
        "  --algo NAME         run a vertex program instead of GNN "
        "inference:\n"
        "                      pagerank|bfs|kcore, iterated to "
        "convergence\n"
        "  --channels N / --dies N / --cores N   SSD geometry\n"
        "  --page-kb N         flash page size in KiB (default 4)\n"
        "  --channel-mbps X    channel bandwidth (default 800)\n"
        "  --traditional       20 us flash instead of 3 us ULL\n"
        "  --dedupe            batch-level node deduplication\n"
        "  --no-coalesce       disable secondary coalescing\n"
        "  --seed N            target-selection seed\n"
        "  --devices N         SSDs in a scale-out array (default 1; "
        ">1 needs a streaming platform)\n"
        "  --p2p-mbps X        per-device P2P link bandwidth "
        "(default 4000)\n"
        "  --p2p-latency-us X  P2P hop latency in us (default 1; the "
        "parallel\n"
        "                      simulator's lookahead — 0 serializes)\n"
        "  --partition NAME    hash|range|balanced graph partition "
        "(default hash)\n"
        "  --replication N     replicas per node (chained "
        "declustering, clamped to --devices; default 1)\n"
        "  --retry-prob X      per-die flash read-retry probability "
        "scale (default 0 = off)\n"
        "  --die-kill SPEC[,SPEC...]  kill schedule: DEV@US kills a "
        "whole device,\n"
        "                      DEV.DIE@US one die, at US "
        "microseconds\n"
        "  --cache-mb X        per-device DRAM vertex cache capacity "
        "in MiB (default 0 = off)\n"
        "  --cache-policy NAME lru|mslru|fifo eviction policy "
        "(default lru)\n"
        "  --zipf-theta X      Zipf(theta) skew of the target stream "
        "(default 0 = uniform)\n"
        "  --trace-util        collect utilization series\n"
        "  --csv FILE          append a CSV result row to FILE\n"
        "  --metrics FILE      dump every instrument as JSON\n"
        "  --metrics-csv FILE  dump every instrument as CSV\n"
        "  --trace FILE        Chrome-trace event file (single run "
        "only; open in Perfetto)\n",
        argv0);
    std::exit(2);
}

/**
 * Parse @p text, the value of @p flag, as a plain unsigned decimal in
 * [lo, hi]. Anything else (a sign, trailing junk, an out-of-range or
 * overflowing value) exits 2 with a reason, so no narrowing cast
 * downstream can wrap it.
 */
unsigned long
flagInRange(const char *flag, const char *text, unsigned long lo,
            unsigned long hi)
{
    unsigned long v = 0;
    const char *last = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, last, v);
    if (ptr == text || ptr != last || ec != std::errc() || v < lo ||
        v > hi) {
        std::fprintf(stderr, "bgnsim: %s must be an integer in %lu..%lu "
                             "(got '%s')\n",
                     flag, lo, hi, text);
        std::exit(2);
    }
    return v;
}

/**
 * Parse @p text, the value of @p flag, as a finite number > 0 in full.
 * Anything else (trailing junk, zero, a negative, inf or nan) exits 2
 * with a reason.
 */
double
flagPositive(const char *flag, const char *text)
{
    double v = 0;
    const char *last = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, last, v);
    if (ptr == text || ptr != last || ec != std::errc() ||
        !std::isfinite(v) || !(v > 0)) {
        std::fprintf(stderr, "bgnsim: %s must be a finite number > 0 "
                             "(got '%s')\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string platform_name = "BG-2";
    std::string workload_name = "amazon";
    std::string csv_path, metrics_path, metrics_csv_path, trace_path;
    graph::NodeId nodes = 0;
    RunConfig rc;
    rc.batchSize = 128;
    rc.batches = 4;
    gnn::ModelConfig model;
    std::optional<gnn::AlgoKind> algo;
    bool dedupe = false, no_coalesce = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--platform") platform_name = next();
        else if (a == "--workload") workload_name = next();
        else if (a == "--nodes") nodes = static_cast<graph::NodeId>(
            std::strtoul(next(), nullptr, 10));
        else if (a == "--batches") rc.batches = static_cast<std::uint32_t>(
            flagInRange("--batches", next(), 1, UINT32_MAX));
        else if (a == "--batch-size") rc.batchSize =
            static_cast<std::uint32_t>(
                flagInRange("--batch-size", next(), 1, UINT32_MAX));
        else if (a == "--hops") model.hops = static_cast<std::uint8_t>(
            flagInRange("--hops", next(), 1, 255));
        else if (a == "--fanout") model.fanout = static_cast<std::uint8_t>(
            flagInRange("--fanout", next(), 1, 255));
        else if (a == "--model") {
            std::string n = next();
            auto k = gnn::findModelKind(n);
            if (!k) {
                std::fprintf(stderr,
                             "bgnsim: unknown model '%s' (valid: %s)\n",
                             n.c_str(), gnn::modelKindList().c_str());
                return 2;
            }
            model.kind = *k;
        }
        else if (a == "--fanouts") {
            std::string n = next();
            auto f = gnn::parseFanouts(n);
            if (!f) {
                std::fprintf(stderr,
                             "bgnsim: bad --fanouts '%s' (want a "
                             "comma-separated list of 1..255)\n",
                             n.c_str());
                return 2;
            }
            model.fanouts = std::move(*f);
            model.normalizeFanouts();
        }
        else if (a == "--algo") {
            std::string n = next();
            auto k = gnn::findAlgoKind(n);
            if (!k) {
                std::fprintf(stderr,
                             "bgnsim: unknown algo '%s' (valid: %s)\n",
                             n.c_str(), gnn::algoKindList().c_str());
                return 2;
            }
            algo = *k;
        }
        else if (a == "--channels") rc.system.flash.channels =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        else if (a == "--dies") rc.system.flash.diesPerChannel =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        else if (a == "--cores") rc.system.controller.cores =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        else if (a == "--page-kb") rc.system.flash.pageSize =
            static_cast<std::uint32_t>(
                flagInRange("--page-kb", next(), 1, UINT32_MAX / 1024)) *
            1024;
        else if (a == "--channel-mbps") rc.system.flash.channelMBps =
            flagPositive("--channel-mbps", next());
        else if (a == "--traditional")
            rc.system.flash.readLatency = sim::microseconds(20);
        else if (a == "--dedupe") dedupe = true;
        else if (a == "--no-coalesce") no_coalesce = true;
        else if (a == "--seed") rc.targetSeed =
            std::strtoull(next(), nullptr, 10);
        else if (a == "--devices") rc.topology.devices =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        else if (a == "--p2p-mbps") rc.topology.p2pMBps =
            std::strtod(next(), nullptr);
        else if (a == "--p2p-latency-us") rc.topology.p2pLatency =
            sim::microseconds(static_cast<sim::Tick>(
                std::strtoul(next(), nullptr, 10)));
        else if (a == "--partition") {
            std::string n = next();
            auto p = findPartitionPolicy(n);
            if (!p) {
                std::fprintf(stderr,
                             "bgnsim: unknown partition '%s' "
                             "(valid: %s)\n",
                             n.c_str(), partitionPolicyList().c_str());
                return 2;
            }
            rc.topology.partition = *p;
        }
        else if (a == "--replication") rc.topology.replication =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        else if (a == "--retry-prob") {
            rc.system.disturb.retryProb = std::strtod(next(), nullptr);
            if (rc.system.disturb.retryProb < 0.0 ||
                rc.system.disturb.retryProb > 1.0) {
                std::fprintf(stderr, "bgnsim: --retry-prob must be "
                                     "in [0, 1]\n");
                return 2;
            }
        }
        else if (a == "--die-kill") {
            for (const std::string &spec : splitList(next())) {
                auto k = parseKillEvent(spec);
                if (!k) {
                    std::fprintf(stderr,
                                 "bgnsim: bad --die-kill '%s' (want "
                                 "DEV@US or DEV.DIE@US)\n",
                                 spec.c_str());
                    return 2;
                }
                rc.kills.push_back(*k);
            }
        }
        else if (a == "--cache-mb") {
            rc.cache.capacityMB = std::strtod(next(), nullptr);
            if (rc.cache.capacityMB <= 0.0) {
                std::fprintf(stderr,
                             "bgnsim: --cache-mb must be positive "
                             "(omit the flag to disable the cache)\n");
                return 2;
            }
        }
        else if (a == "--cache-policy") {
            std::string n = next();
            auto p = cache::findCachePolicy(n);
            if (!p) {
                std::fprintf(stderr,
                             "bgnsim: unknown cache policy '%s' "
                             "(valid: %s)\n",
                             n.c_str(),
                             cache::cachePolicyList().c_str());
                return 2;
            }
            rc.cache.policy = *p;
        }
        else if (a == "--zipf-theta") {
            rc.zipfTheta = std::strtod(next(), nullptr);
            if (rc.zipfTheta <= 0.0) {
                std::fprintf(stderr,
                             "bgnsim: --zipf-theta must be positive "
                             "(omit the flag for uniform targets)\n");
                return 2;
            }
        }
        else if (a == "--jobs") {
            long v = std::strtol(next(), nullptr, 10);
            if (v >= 1)
                sim::SimExecutor::setDefaultJobs(
                    static_cast<unsigned>(v));
        }
        else if (a == "--trace-util") rc.traceUtilization = true;
        else if (a == "--csv") csv_path = next();
        else if (a == "--metrics") metrics_path = next();
        else if (a == "--metrics-csv") metrics_csv_path = next();
        else if (a == "--trace") trace_path = next();
        else usage(argv[0]);
    }

    // Validate both sweep axes up front: a bad name exits nonzero
    // with the valid choices instead of dying mid-sweep.
    std::vector<PlatformKind> kinds;
    for (const auto &n : splitList(platform_name)) {
        auto k = findPlatform(n);
        if (!k) {
            std::fprintf(stderr,
                         "bgnsim: unknown platform '%s' (valid: %s)\n",
                         n.c_str(), platformNameList().c_str());
            return 2;
        }
        kinds.push_back(*k);
    }
    std::vector<std::string> workloads = splitList(workload_name);
    for (auto &n : workloads) {
        const graph::WorkloadSpec *w = graph::findWorkload(n);
        if (!w) {
            std::fprintf(stderr,
                         "bgnsim: unknown workload '%s' (valid: %s)\n",
                         n.c_str(), graph::workloadNameList().c_str());
            return 2;
        }
        n = w->name; // Canonical capitalization.
    }
    if (kinds.empty() || workloads.empty())
        usage(argv[0]);
    if (rc.topology.devices == 0) {
        std::fprintf(stderr, "bgnsim: --devices must be >= 1\n");
        return 2;
    }
    if (rc.topology.replication == 0) {
        std::fprintf(stderr, "bgnsim: --replication must be >= 1\n");
        return 2;
    }
    for (const platforms::KillEvent &k : rc.kills) {
        if (k.device >= rc.topology.devices) {
            std::fprintf(stderr,
                         "bgnsim: --die-kill names device %u of a "
                         "%u-device topology\n",
                         k.device, rc.topology.devices);
            return 2;
        }
    }
    if (rc.topology.multi()) {
        for (PlatformKind k : kinds) {
            auto p = makePlatform(k);
            if (!p.flags.directGraph) {
                std::fprintf(stderr,
                             "bgnsim: --devices %u needs a streaming "
                             "(DirectGraph) platform; '%s' is not\n",
                             rc.topology.devices, p.name.c_str());
                return 2;
            }
        }
    }

    auto configured = [&](PlatformKind kind) {
        auto p = makePlatform(kind);
        p.flags.dedupeNodes = dedupe;
        p.flags.coalesceSecondary = !no_coalesce;
        return p;
    };

    // One bundle per workload, shared read-only across all runs.
    std::vector<std::unique_ptr<WorkloadBundle>> bundles;
    for (const auto &w : workloads)
        bundles.push_back(makeBundle(graph::workload(w),
                                     rc.system.flash, model, nodes));

    const std::size_t nw = workloads.size();
    const std::size_t total = kinds.size() * nw;

    if (!trace_path.empty() && total != 1) {
        std::fprintf(stderr, "bgnsim: --trace requires a single "
                             "platform/workload run\n");
        return 2;
    }
    const bool want_metrics =
        !metrics_path.empty() || !metrics_csv_path.empty();
    std::vector<sim::MetricRegistry> regs(want_metrics ? total : 0);
    sim::TraceSink sink;
    if (!trace_path.empty())
        rc.traceSink = &sink;

    if (algo) {
        // Vertex-program mode: iterate-until-convergence supersteps
        // instead of fixed mini-batches, same platform x workload grid.
        AlgoRunConfig ac;
        ac.program.algo = *algo;
        std::vector<AlgoRunResult> ares;
        if (total == 1) {
            ares.push_back(runVertexProgram(
                configured(kinds[0]), rc, *bundles[0], ac,
                want_metrics ? &regs[0] : nullptr));
        } else {
            sim::SimExecutor ex;
            std::printf("bgnsim: %zu-run grid on %u worker(s)\n", total,
                        ex.jobs());
            ares = ex.map<AlgoRunResult>(total, [&](std::size_t i) {
                return runVertexProgram(
                    configured(kinds[i / nw]), rc, *bundles[i % nw], ac,
                    want_metrics ? &regs[i] : nullptr);
            });
        }
        bool aok = true;
        for (std::size_t i = 0; i < total; ++i) {
            const AlgoRunResult &r = ares[i];
            const WorkloadBundle &b = *bundles[i % nw];
            aok = aok && r.ok;
            std::printf("bgnsim: %s on %s via %s (%u nodes, avg "
                        "degree %.0f)\n",
                        r.algo.c_str(), b.name.c_str(),
                        r.platform.c_str(), b.graph.numNodes(),
                        b.graph.avgDegree());
            std::printf("  %s in %u superstep(s) | %llu frontier "
                        "reads | %.2f ms | %.2f Knodes/s | checksum "
                        "%.6g\n",
                        r.converged ? "converged" : "iteration cap",
                        r.iterations,
                        static_cast<unsigned long long>(
                            r.frontierNodes),
                        sim::toMillis(r.totalTime),
                        r.throughput / 1e3, r.checksum);
        }
        if (!csv_path.empty()) {
            bool fresh = !std::ifstream(csv_path).good();
            std::ofstream out(csv_path, std::ios::app);
            if (fresh)
                out << "platform,workload,algo,ok,converged,"
                       "iterations,frontier_nodes,total_time_us,"
                       "frontier_per_sec,checksum,devices\n";
            for (const AlgoRunResult &r : ares)
                out << r.platform << ',' << r.workload << ','
                    << r.algo << ',' << (r.ok ? 1 : 0) << ','
                    << (r.converged ? 1 : 0) << ',' << r.iterations
                    << ',' << r.frontierNodes << ','
                    << sim::toMicros(r.totalTime) << ','
                    << r.throughput << ',' << r.checksum << ','
                    << r.devices << '\n';
            std::printf("  appended %zu CSV row(s) to %s\n",
                        ares.size(), csv_path.c_str());
        }
        if (!metrics_path.empty()) {
            std::ofstream out(metrics_path);
            out << "{\"runs\": [";
            for (std::size_t i = 0; i < total; ++i) {
                out << (i == 0 ? "\n" : ",\n");
                out << "{\"platform\": \"" << ares[i].platform
                    << "\", \"workload\": \"" << ares[i].workload
                    << "\", \"algo\": \"" << ares[i].algo
                    << "\", \"metrics\": ";
                regs[i].writeJson(out);
                out << "}";
            }
            out << "\n]}\n";
            std::printf("  wrote metrics snapshot to %s\n",
                        metrics_path.c_str());
        }
        if (!metrics_csv_path.empty()) {
            std::ofstream out(metrics_csv_path);
            sim::MetricRegistry::writeCsvHeader(out,
                                                "platform,workload,");
            for (std::size_t i = 0; i < total; ++i)
                regs[i].writeCsv(out, ares[i].platform + "," +
                                          ares[i].workload + ",");
            std::printf("  wrote metrics CSV to %s\n",
                        metrics_csv_path.c_str());
        }
        if (!trace_path.empty()) {
            std::ofstream out(trace_path);
            sink.write(out);
            std::printf("  wrote %zu trace event(s) to %s%s\n",
                        sink.events(), trace_path.c_str(),
                        sink.dropped() ? " (truncated)" : "");
        }
        return aok ? 0 : 1;
    }

    std::vector<RunResult> results;
    if (total == 1) {
        results.push_back(runPlatform(configured(kinds[0]), rc,
                                      *bundles[0],
                                      want_metrics ? &regs[0] : nullptr));
    } else {
        sim::SimExecutor ex;
        std::printf("bgnsim: %zu-run grid on %u worker(s)\n", total,
                    ex.jobs());
        results = ex.map<RunResult>(total, [&](std::size_t i) {
            return runPlatform(configured(kinds[i / nw]), rc,
                               *bundles[i % nw],
                               want_metrics ? &regs[i] : nullptr);
        });
    }

    bool ok = true;
    for (std::size_t i = 0; i < total; ++i) {
        const RunResult &r = results[i];
        const WorkloadBundle &b = *bundles[i % nw];
        ok = ok && r.ok;
        std::printf("bgnsim: %s on %s (%u nodes, avg degree %.0f, "
                    "%u-dim features)\n",
                    r.platform.c_str(), b.name.c_str(),
                    b.graph.numNodes(), b.graph.avgDegree(),
                    b.features.dim());
        std::printf("%s\n", summaryLine(r).c_str());
        std::printf("  prep %.2f ms | die util %.3f | channel util "
                    "%.3f | core util %.3f\n",
                    sim::toMillis(r.prepTime), r.dieUtil,
                    r.channelUtil, r.coreUtil);
        std::printf("  flash reads %llu | channel %.1f MB | PCIe "
                    "%.1f MB | aborted %llu\n",
                    static_cast<unsigned long long>(
                        r.tally.flashReads),
                    static_cast<double>(r.tally.channelBytes) /
                        1048576.0,
                    static_cast<double>(r.tally.pcieBytes) / 1048576.0,
                    static_cast<unsigned long long>(
                        r.tally.abortedCommands));
        std::printf("  cmd lifetime %.1f us (wait %.1f + flash %.1f "
                    "+ wait %.1f)\n",
                    r.cmdStats.lifetime.mean(),
                    r.cmdStats.waitBefore.mean(),
                    r.cmdStats.flashTime.mean(),
                    r.cmdStats.waitAfter.mean());
        if (r.devices > 1) {
            std::uint64_t lo = ~0ull, hi = 0;
            for (const auto &d : r.perDevice) {
                lo = std::min(lo, d.commands);
                hi = std::max(hi, d.commands);
            }
            std::printf("  array: %u devices (%s) | cross-device "
                        "%.1f%% | per-device commands %llu..%llu\n",
                        r.devices,
                        partitionPolicyName(rc.topology.partition),
                        100.0 * r.crossFraction,
                        static_cast<unsigned long long>(lo),
                        static_cast<unsigned long long>(hi));
        }
    }

    if (!csv_path.empty()) {
        bool fresh = !std::ifstream(csv_path).good();
        std::ofstream out(csv_path, std::ios::app);
        if (fresh)
            writeCsvHeader(out);
        for (const RunResult &r : results)
            writeCsvRow(out, r);
        std::printf("  appended %zu CSV row(s) to %s\n", results.size(),
                    csv_path.c_str());
    }

    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        out << "{\"runs\": [";
        for (std::size_t i = 0; i < total; ++i) {
            out << (i == 0 ? "\n" : ",\n");
            out << "{\"platform\": \"" << results[i].platform
                << "\", \"workload\": \"" << results[i].workload
                << "\", \"metrics\": ";
            regs[i].writeJson(out);
            out << "}";
        }
        out << "\n]}\n";
        std::printf("  wrote metrics snapshot to %s\n",
                    metrics_path.c_str());
    }
    if (!metrics_csv_path.empty()) {
        std::ofstream out(metrics_csv_path);
        sim::MetricRegistry::writeCsvHeader(out, "platform,workload,");
        for (std::size_t i = 0; i < total; ++i)
            regs[i].writeCsv(out, results[i].platform + "," +
                                      results[i].workload + ",");
        std::printf("  wrote metrics CSV to %s\n",
                    metrics_csv_path.c_str());
    }
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        sink.write(out);
        std::printf("  wrote %zu trace event(s) to %s%s\n",
                    sink.events(), trace_path.c_str(),
                    sink.dropped() ? " (truncated)" : "");
    }
    return ok ? 0 : 1;
}
