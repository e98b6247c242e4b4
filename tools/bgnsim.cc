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
 * The flags shared with bgnserve (sweep axes, array, faults, cache,
 * workers and output files; README "Command-line flags shared by
 * bgnsim and bgnserve") are parsed and checked by
 * platforms::SharedOptions. Observability (DESIGN.md §10):
 * --metrics/--metrics-csv dump every registered instrument of every
 * run; --trace (single run only) writes a Chrome-trace-format event
 * file loadable in Perfetto.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "platforms/algo_runner.h"
#include "platforms/options.h"
#include "platforms/report.h"
#include "sim/executor.h"

using namespace beacongnn;
using namespace beacongnn::platforms;

namespace {

[[noreturn]] void
usage(const SharedOptions &opts, const char *argv0, int status = 2)
{
    std::printf(
        "usage: %s [options]\n"
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
        "  --cores N           SSD controller cores\n"
        "  --page-kb N         flash page size in KiB (default 4)\n"
        "  --channel-mbps X    channel bandwidth (default 800)\n"
        "  --traditional       20 us flash instead of 3 us ULL\n"
        "  --dedupe            batch-level node deduplication\n"
        "  --no-coalesce       disable secondary coalescing\n"
        "  --seed N            target-selection seed\n"
        "  --zipf-theta X      Zipf(theta) skew of the target stream "
        "(default 0)\n"
        "  --trace-util        collect utilization series\n",
        argv0);
    opts.printUsage();
    std::exit(status);
}

/** Run @p total runs: a grid on the executor, one run on this
 *  thread. */
template <typename R, typename Fn>
std::vector<R>
sweep(std::size_t total, Fn &&run_one)
{
    if (total == 1)
        return std::vector<R>{run_one(0)};
    sim::SimExecutor ex;
    std::printf("bgnsim: %zu-run grid on %u worker(s)\n", total,
                ex.jobs());
    return ex.map<R>(total, run_one);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *tool = "bgnsim";
    SharedOptions opts(tool, "BG-2");
    RunConfig &rc = opts.run;
    rc.batchSize = 128;
    rc.batches = 4;
    gnn::ModelConfig model;
    std::optional<gnn::AlgoKind> algo;
    bool dedupe = false, no_coalesce = false;

    for (int i = 1; i < argc; ++i) {
        if (opts.parse(argc, argv, i))
            continue;
        const std::string a = argv[i];
        auto next = [&] { return flagValue(tool, argc, argv, i); };
        auto count = [&](unsigned long lo, unsigned long hi) {
            return flagInRange(tool, a.c_str(), next(), lo, hi);
        };
        if (a == "--batches") rc.batches =
            static_cast<std::uint32_t>(count(1, UINT32_MAX));
        else if (a == "--batch-size") rc.batchSize =
            static_cast<std::uint32_t>(count(1, UINT32_MAX));
        else if (a == "--hops") model.hops =
            static_cast<std::uint8_t>(count(1, 255));
        else if (a == "--fanout") model.fanout =
            static_cast<std::uint8_t>(count(1, 255));
        else if (a == "--model") {
            std::string n = next();
            model.kind = *known(tool, "model", n, gnn::findModelKind(n),
                                gnn::modelKindList());
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
            algo = known(tool, "algo", n, gnn::findAlgoKind(n),
                         gnn::algoKindList());
        }
        else if (a == "--cores") rc.system.controller.cores =
            static_cast<unsigned>(count(0, UINT32_MAX));
        else if (a == "--page-kb") rc.system.flash.pageSize =
            static_cast<std::uint32_t>(count(1, UINT32_MAX / 1024)) *
            1024;
        else if (a == "--channel-mbps") rc.system.flash.channelMBps =
            flagReal(tool, "--channel-mbps", next());
        else if (a == "--traditional")
            rc.system.flash.readLatency = sim::microseconds(20);
        else if (a == "--dedupe") dedupe = true;
        else if (a == "--no-coalesce") no_coalesce = true;
        else if (a == "--seed") rc.targetSeed = count(0, UINT64_MAX);
        else if (a == "--zipf-theta") rc.zipfTheta =
            flagReal(tool, "--zipf-theta", next());
        else if (a == "--trace-util") rc.traceUtilization = true;
        else if (a == "--help" || a == "-h") usage(opts, argv[0], 0);
        else {
            std::fprintf(stderr, "bgnsim: unknown option '%s'\n",
                         a.c_str());
            usage(opts, argv[0]);
        }
    }
    opts.prepare(model);

    auto configured = [&](PlatformKind kind) {
        auto p = makePlatform(kind);
        p.flags.dedupeNodes = dedupe;
        p.flags.coalesceSecondary = !no_coalesce;
        return p;
    };
    const std::size_t nw = opts.bundles.size();
    const std::size_t total = opts.runs();
    std::vector<RunLabel> labels;

    if (algo) {
        // Vertex-program mode: iterate-until-convergence supersteps
        // instead of fixed mini-batches, same platform x workload grid.
        AlgoRunConfig ac;
        ac.program.algo = *algo;
        auto ares = sweep<AlgoRunResult>(total, [&](std::size_t i) {
            return runVertexProgram(configured(opts.kinds[i / nw]), rc,
                                    *opts.bundles[i % nw], ac,
                                    opts.registry(i));
        });
        bool aok = true;
        for (std::size_t i = 0; i < total; ++i) {
            const AlgoRunResult &r = ares[i];
            const WorkloadBundle &b = *opts.bundles[i % nw];
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
            labels.push_back({r.platform, r.workload, r.algo, {}});
        }
        if (!opts.csvPath.empty()) {
            std::ofstream out = opts.appendCsv([](std::ostream &os) {
                os << "platform,workload,algo,ok,converged,"
                      "iterations,frontier_nodes,total_time_us,"
                      "frontier_per_sec,checksum,devices\n";
            });
            for (const AlgoRunResult &r : ares)
                out << r.platform << ',' << r.workload << ','
                    << r.algo << ',' << (r.ok ? 1 : 0) << ','
                    << (r.converged ? 1 : 0) << ',' << r.iterations
                    << ',' << r.frontierNodes << ','
                    << sim::toMicros(r.totalTime) << ','
                    << r.throughput << ',' << r.checksum << ','
                    << r.devices << '\n';
            std::printf("  appended %zu CSV row(s) to %s\n",
                        ares.size(), opts.csvPath.c_str());
        }
        opts.writeOutputs(labels, "  ");
        return aok ? 0 : 1;
    }

    auto results = sweep<RunResult>(total, [&](std::size_t i) {
        return runPlatform(configured(opts.kinds[i / nw]), rc,
                           *opts.bundles[i % nw], opts.registry(i));
    });
    bool ok = true;
    for (std::size_t i = 0; i < total; ++i) {
        const RunResult &r = results[i];
        const WorkloadBundle &b = *opts.bundles[i % nw];
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
        labels.push_back({r.platform, r.workload, {}, {}});
    }
    if (!opts.csvPath.empty()) {
        std::ofstream out = opts.appendCsv(writeCsvHeader);
        for (const RunResult &r : results)
            writeCsvRow(out, r);
        std::printf("  appended %zu CSV row(s) to %s\n", results.size(),
                    opts.csvPath.c_str());
    }
    opts.writeOutputs(labels, "  ");
    return ok ? 0 : 1;
}
