/**
 * @file
 * bgnserve — online serving driver for the BeaconGNN simulator.
 *
 * Sweeps platform x workload x arrival-rate points of an open-loop
 * serving experiment and prints, per (platform, workload), a
 * latency-vs-load table with throughput, mean/p50/p95/p99 latency
 * and SLO-violation rates, plus the saturation rate each platform
 * sustains:
 *
 *   bgnserve --platform CC,BG2 --workload amazon \
 *            --rates 500,1000,2000,4000 --requests 512 --seed 7 \
 *            --max-batch 32 --timeout-us 200 --jobs 8
 *
 * Sweep points run in parallel on --jobs workers (BGN_JOBS env var /
 * hardware cores by default); output is in deterministic sweep order
 * and byte-identical across worker counts and repeated runs with the
 * same seed. The flags shared with bgnsim (README "Command-line flags
 * shared by bgnsim and bgnserve") are parsed and checked by
 * platforms::SharedOptions.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "platforms/options.h"
#include "serve/report.h"
#include "serve/serve.h"
#include "sim/executor.h"

using namespace beacongnn;
using namespace beacongnn::serve;
using platforms::flagInRange;
using platforms::flagReal;
using platforms::splitList;

namespace {

[[noreturn]] void
usage(const platforms::SharedOptions &opts, const char *argv0,
      int status = 2)
{
    std::printf(
        "usage: %s [options]\n"
        "  --rates R[,R...]    offered arrival rates, req/s "
        "(default 500,1000,2000,4000)\n"
        "  --requests N        requests per stream (default 512)\n"
        "  --seed N            arrival-stream seed (default 0x5EED)\n"
        "  --arrival P         poisson|bursty (default poisson)\n"
        "  --burst-factor X    bursty: rate multiplier in bursts\n"
        "  --max-batch N       micro-batch dispatch threshold "
        "(default 32)\n"
        "  --timeout-us N      micro-batch timeout (default 200)\n"
        "  --tenants N         tenant count; QoS class = tenant %% 3\n"
        "  --model NAME[,NAME...]  serve this model mix: each request "
        "runs the\n"
        "                      model of its tenant (tenant %% count); "
        "gcn|gin|gat\n"
        "  --slo-ms A,B,C      per-class SLO targets, ms "
        "(default 5,20,100)\n"
        "  --zipf-theta X      Zipf(theta) skew of request targets "
        "(default 0)\n"
        "  --breakdown         print per-QoS-class breakdown per rate\n",
        argv0);
    opts.printUsage();
    std::exit(status);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *tool = "bgnserve";
    platforms::SharedOptions opts(tool, "CC,BG-2");
    std::string rate_list = "500,1000,2000,4000";
    bool breakdown = false;
    ServeConfig sc;

    for (int i = 1; i < argc; ++i) {
        if (opts.parse(argc, argv, i))
            continue;
        const std::string a = argv[i];
        auto next = [&] {
            return platforms::flagValue(tool, argc, argv, i);
        };
        auto count = [&](unsigned long hi) {
            return flagInRange(tool, a.c_str(), next(), 0, hi);
        };
        if (a == "--rates") rate_list = next();
        else if (a == "--requests") sc.arrivals.requests =
            count(UINT64_MAX);
        else if (a == "--seed") sc.arrivals.seed = count(UINT64_MAX);
        else if (a == "--arrival") {
            std::string p = next();
            if (p == "poisson")
                sc.arrivals.process = ArrivalProcess::Poisson;
            else if (p == "bursty")
                sc.arrivals.process = ArrivalProcess::Bursty;
            else {
                std::fprintf(stderr,
                             "bgnserve: unknown arrival process '%s' "
                             "(valid: poisson, bursty)\n",
                             p.c_str());
                return 2;
            }
        }
        else if (a == "--burst-factor") sc.arrivals.burstFactor =
            flagReal(tool, "--burst-factor", next());
        else if (a == "--max-batch") sc.policy.maxBatch =
            static_cast<std::uint32_t>(count(UINT32_MAX));
        else if (a == "--timeout-us") sc.policy.timeout =
            sim::microseconds(
                count(sim::kTickMax / sim::microseconds(1)));
        else if (a == "--tenants") sc.arrivals.tenants =
            static_cast<std::uint32_t>(count(UINT32_MAX));
        else if (a == "--model") {
            sc.models.clear();
            for (const auto &n : splitList(next()))
                sc.models.push_back(*platforms::known(
                    tool, "model", n, gnn::findModelKind(n),
                    gnn::modelKindList()));
            if (sc.models.empty()) {
                std::fprintf(stderr,
                             "bgnserve: --model needs at least one "
                             "name (valid: %s)\n",
                             gnn::modelKindList().c_str());
                return 2;
            }
        }
        else if (a == "--slo-ms") {
            auto parts = splitList(next());
            if (parts.size() != kQosClasses) {
                std::fprintf(stderr,
                             "bgnserve: --slo-ms needs %zu values\n",
                             kQosClasses);
                return 2;
            }
            for (std::size_t q = 0; q < kQosClasses; ++q)
                sc.slo.target[q] = sim::milliseconds(flagInRange(
                    tool, "--slo-ms", parts[q].c_str(), 0,
                    sim::kTickMax / sim::milliseconds(1)));
        }
        else if (a == "--zipf-theta") sc.arrivals.zipfTheta =
            flagReal(tool, "--zipf-theta", next());
        else if (a == "--breakdown") breakdown = true;
        else if (a == "--help" || a == "-h") usage(opts, argv[0], 0);
        else {
            std::fprintf(stderr, "bgnserve: unknown option '%s'\n",
                         a.c_str());
            usage(opts, argv[0]);
        }
    }

    // Every rate is a sweep point of the same stream config; validate
    // each, then the platform config against the largest dispatch.
    std::vector<double> rates;
    std::vector<std::string> reasons;
    for (const auto &r : splitList(rate_list)) {
        sc.arrivals.ratePerSec = flagReal(tool, "--rates", r.c_str());
        rates.push_back(sc.arrivals.ratePerSec);
        for (std::string &why : sc.validate())
            reasons.push_back(std::move(why));
    }
    if (rates.empty())
        reasons.push_back("--rates needs at least one rate");
    if (!sc.models.empty())
        sc.arrivals.modelCount =
            static_cast<std::uint32_t>(sc.models.size());
    opts.run.batchSize = sc.policy.maxBatch;
    opts.prepare(gnn::ModelConfig{}, rates.size(), std::move(reasons));

    const std::size_t nr = rates.size();
    const std::size_t nw = opts.bundles.size();
    const std::size_t total = opts.runs();
    sim::SimExecutor ex;
    if (total > 1)
        // stderr: stdout stays byte-identical across worker counts.
        std::fprintf(stderr, "bgnserve: %zu-point sweep on %u worker(s)\n",
                     total, ex.jobs());
    auto results = ex.map<ServeResult>(total, [&](std::size_t i) {
        std::size_t k = i / (nw * nr);
        std::size_t w = (i / nr) % nw;
        std::size_t r = i % nr;
        ServeConfig point = sc;
        point.arrivals.ratePerSec = rates[r];
        return serveWorkload(platforms::makePlatform(opts.kinds[k]),
                             opts.run, *opts.bundles[w], point, nullptr,
                             opts.registry(i));
    });

    std::ofstream csv;
    if (!opts.csvPath.empty())
        csv = opts.appendCsv(writeServeCsvHeader);

    bool ok = true;
    for (std::size_t k = 0; k < opts.kinds.size(); ++k) {
        for (std::size_t w = 0; w < nw; ++w) {
            const auto *first = &results[(k * nw + w) * nr];
            std::printf("\n%s on %s (%s arrivals, %llu requests, "
                        "max batch %u, timeout %llu us, seed %llu)\n",
                        first->platform.c_str(), first->workload.c_str(),
                        arrivalName(sc.arrivals.process),
                        static_cast<unsigned long long>(
                            sc.arrivals.requests),
                        sc.policy.maxBatch,
                        static_cast<unsigned long long>(
                            sc.policy.timeout / 1000),
                        static_cast<unsigned long long>(
                            sc.arrivals.seed));
            printRateHeader();
            std::vector<ServeResult> curve;
            for (std::size_t r = 0; r < nr; ++r) {
                const ServeResult &res = results[(k * nw + w) * nr + r];
                ok = ok && res.ok;
                printRateRow(res);
                printDegraded(res);
                if (breakdown)
                    printClassBreakdown(res);
                if (csv.is_open())
                    writeServeCsvRow(csv, res);
                curve.push_back(res);
            }
            printSaturation(curve);
            if (!sc.models.empty()) {
                const ServeResult &last = curve.back();
                std::printf("  model mix (last rate):");
                for (std::size_t m = 0;
                     m < last.perModelRequests.size(); ++m)
                    std::printf(" %s %llu",
                                gnn::modelKindName(sc.models[m]),
                                static_cast<unsigned long long>(
                                    last.perModelRequests[m]));
                std::printf(" request(s)\n");
            }
            if (first->devices > 1) {
                const ServeResult &last = curve.back();
                std::printf("  array: %u devices, command share",
                            last.devices);
                for (std::size_t d = 0; d < last.perDevice.size(); ++d)
                    std::printf(" dev%zu %.2f", d, last.deviceShare(d));
                std::printf(", cross-device %.1f%%\n",
                            100.0 * last.crossFraction);
            }
        }
    }
    if (csv.is_open())
        std::printf("\nappended %zu CSV row(s) to %s\n", total,
                    opts.csvPath.c_str());

    std::vector<platforms::RunLabel> labels;
    for (const ServeResult &r : results)
        labels.push_back({r.platform, r.workload, {}, r.offeredRate});
    opts.writeOutputs(labels, "");
    return ok ? 0 : 1;
}
