/**
 * @file
 * perfbench driver: runs one benchmark workload against the simulator
 * library for a fixed wall-clock budget and writes what it measured
 * for run.py to summarise and check.
 *
 * usage: perfbench_driver --workload NAME --seed N --seconds S
 *                         --trace 0|1 --out DIR
 *
 * Every layer is timed from outside, around calls into its public
 * functions; the library itself is unchanged. Host clocks live here
 * only (bgnlint BGN001 bans them in src/ and tools/).
 *
 * Files written to DIR:
 *  - result.json           raw host timings with the speed probe time
 *                          of each, modelled (sim_*) values, RSS
 *  - registry_timed.json   registry snapshot of the first untraced rep
 *  - registry_traced.json  registry snapshot of the first traced rep
 *  - registry_reference.json  offline workloads: the same run through
 *                          platforms::runPlatform on a makeBundle bundle
 *  - trace.json            --trace 1: Chrome-trace spans (Perfetto)
 *
 * --trace 0 times untraced repetitions for the budget, then runs one
 * traced repetition only to compare its registry. --trace 1 alternates
 * untraced and traced repetitions for the budget; the traced ones run
 * on a bundle built step by step under spans and record one span per
 * session phase, batch and serve point.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "directgraph/builder.h"
#include "directgraph/source.h"
#include "graph/dataset.h"
#include "platforms/platform.h"
#include "platforms/runner.h"
#include "serve/serve.h"
#include "sim/executor.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/zipf.h"
#include "ssd/ftl.h"

using namespace beacongnn;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::uint32_t kBatches = 128;
constexpr std::uint32_t kBatchSize = 128;
constexpr unsigned kSetups = 7;
/** Serve requests per timed ladder point, for the modelled latency at
 *  the reference rate, for the capacity at the top rate, and per
 *  max-rate bisection step. Longer modelled streams keep the seed-to-
 *  seed spread of the sim_* metrics small. */
constexpr std::uint64_t kServeRequests = 2000;
constexpr std::uint64_t kLatencyRequests = 40000;
constexpr std::uint64_t kCapacityRequests = 10000;
constexpr std::uint64_t kBisectRequests = 4000;
constexpr double kReferenceRate = 100000.0;
const std::vector<double> kLadder = {50000.0, 100000.0, 125000.0,
                                     150000.0, 200000.0};
constexpr double kRateResolution = 1000.0;
/** Host batch samples (offline batches, serve points) a run needs so
 *  that at least 10 lie beyond the reported p90. */
constexpr std::size_t kMinBatchSamples = 100;

struct Workload
{
    const char *name;
    const char *dataset;
    platforms::PlatformKind platform;
    unsigned devices;
    double zipfTheta;
    double cacheMB;
    bool serve;
};

const Workload kWorkloads[] = {
    {"bg2_amazon", "amazon", platforms::PlatformKind::BG2, 1, 0.0, 0.0,
     false},
    {"cc_amazon", "amazon", platforms::PlatformKind::CC, 1, 0.0, 0.0,
     false},
    {"array8_cache", "amazon", platforms::PlatformKind::BG2, 8, 0.8, 4.0,
     false},
    {"serve_ogbn", "OGBN", platforms::PlatformKind::BG2, 1, 0.0, 0.0,
     true},
};

std::int64_t
nsSince(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * A LayoutSource that counts and times its fetch() calls. Array
 * workers call it concurrently, hence the relaxed atomics; readers
 * take deltas around a batch or serve point.
 */
class TimedSource final : public dg::LayoutSource
{
  public:
    using dg::LayoutSource::LayoutSource;

    std::optional<dg::SectionData>
    fetch(dg::DgAddress addr) const override
    {
        auto t0 = Clock::now();
        auto out = dg::LayoutSource::fetch(addr);
        auto ns = nsSince(t0, Clock::now());
        _calls.fetch_add(1, std::memory_order_relaxed);
        _ns.fetch_add(static_cast<std::uint64_t>(ns),
                      std::memory_order_relaxed);
        return out;
    }

    std::uint64_t
    calls() const
    {
        return _calls.load(std::memory_order_relaxed);
    }

    std::uint64_t ns() const { return _ns.load(std::memory_order_relaxed); }

  private:
    mutable std::atomic<std::uint64_t> _calls{0};
    mutable std::atomic<std::uint64_t> _ns{0};
};

/** One host span: name, start, end and the index of its parent. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::uint64_t calls = 0; ///< Aggregated fetch spans only.
};

/**
 * In-memory span recorder; written as Chrome-trace JSON at exit.
 * Aggregated fetch spans carry the summed fetch time of their parent
 * batch or serve point (summed over array workers, so they can be
 * longer than the parent) and go on their own track.
 */
class Tracer
{
  public:
    int
    open(const char *name, int parent)
    {
        spans.push_back({name, now(), 0, parent, 0});
        return static_cast<int>(spans.size()) - 1;
    }

    void close(int id) { spans[static_cast<std::size_t>(id)].endNs = now(); }

    void
    fetch(int parent, std::uint64_t calls, std::uint64_t ns)
    {
        std::int64_t start = spans[static_cast<std::size_t>(parent)].startNs;
        spans.push_back({"fetch", start,
                         start + static_cast<std::int64_t>(ns), parent,
                         calls});
    }

    void
    writeChrome(const std::string &path, const std::string &run_id) const
    {
        std::ofstream os(path);
        os << std::fixed << std::setprecision(3);
        os << "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"run\": \""
           << run_id << "\"}, \"traceEvents\": [\n";
        os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": 1, \"args\": {\"name\": \"perfbench\"}},\n";
        os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": 2, \"args\": {\"name\": \"fetch (summed)\"}}";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << ",\n{\"name\": \"" << s.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
               << (s.name == "fetch" ? 2 : 1)
               << ", \"ts\": " << static_cast<double>(s.startNs) / 1e3
               << ", \"dur\": "
               << static_cast<double>(s.endNs - s.startNs) / 1e3
               << ", \"args\": {\"run\": \"" << run_id
               << "\", \"id\": " << i << ", \"parent\": " << s.parent
               << ", \"calls\": " << s.calls << "}}";
        }
        os << "\n]}\n";
    }

  private:
    std::int64_t now() const { return nsSince(origin, Clock::now()); }

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
};

/**
 * Machine-speed probe: a fixed kernel shaped like the simulator's hot
 * path (dependent random reads over a table far larger than L2, one
 * small heap allocation per step, as LayoutSource::fetch does). The
 * box's speed drifts by up to 2x over minutes as co-tenants load the
 * shared caches; timing the probe around every repetition lets run.py
 * report host times at the reference speed (kProbeRefS). The probe
 * calls nothing in src/, so no library change can move it.
 */
class SpeedProbe
{
  public:
    static constexpr std::size_t kWords = std::size_t{4} << 20; // 16 MiB

    SpeedProbe() : table(kWords)
    {
        for (std::size_t i = 0; i < kWords; ++i)
            table[i] = static_cast<std::uint32_t>((i * 2654435761u) % kWords);
    }

    /** Mean seconds the kernel takes now on each of @p threads
     *  concurrent threads (the cores a multi-threaded workload runs
     *  on). */
    double
    seconds(unsigned threads)
    {
        if (threads <= 1)
            return kernel();
        std::vector<double> secs(threads);
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < threads; ++i)
            pool.emplace_back([this, &secs, i] { secs[i] = kernel(); });
        for (auto &t : pool)
            t.join();
        double sum = 0;
        for (double x : secs)
            sum += x;
        return sum / threads;
    }

    std::atomic<std::uint64_t> sink{0};

  private:
    double
    kernel()
    {
        auto t0 = Clock::now();
        std::uint64_t x = 1, acc = 0;
        for (int k = 0; k < 20000; ++k) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            std::size_t base = (x >> 20) % (kWords - 64);
            std::vector<std::uint32_t> out;
            out.reserve(24);
            for (std::size_t j = 0; j < 24; ++j)
                out.push_back(table[table[base + j] % kWords]);
            acc += out[x % 24];
        }
        sink.fetch_add(acc, std::memory_order_relaxed);
        return secondsSince(t0);
    }

    std::vector<std::uint32_t> table;
};

/** Single-thread probe time on the reference box (4-vCPU Xeon, 105 MiB
 *  shared L3) when co-tenants leave it quiet; host times are reported
 *  at this speed. */
constexpr double kProbeRefS = 0.0075;

/** What one repetition of the workload measured. */
struct Rep
{
    bool traced = false;
    double runS = 0;
    std::vector<double> batchMs;     ///< Offline: each runBatch call.
    std::vector<double> pointS;      ///< Serve: each ladder point.
    std::vector<double> pointBatches; ///< Serve: micro-batches per point.
    std::uint64_t attempted = 0;     ///< Batches or requests.
    std::uint64_t failed = 0;        ///< Not ok.
    std::string registry;            ///< Labelled snapshot JSON.
    double probeS = 0;               ///< Speed probe around the rep.
};

std::string
registryJson(const sim::MetricRegistry &reg)
{
    std::ostringstream os;
    reg.writeJson(os);
    return os.str();
}

/** Everything a repetition needs besides the bundle. */
struct Bench
{
    const Workload &w;
    platforms::PlatformConfig platform;
    platforms::RunConfig run;
    serve::ServeConfig serve;
    std::vector<std::vector<graph::NodeId>> targets;
};

/** Draw the offline targets exactly as platforms::runPlatform does. */
std::vector<std::vector<graph::NodeId>>
drawTargets(const platforms::RunConfig &rc, graph::NodeId n_nodes)
{
    sim::Pcg32 rng(rc.targetSeed, 0xACE5);
    std::unique_ptr<sim::ZipfSampler> zipf;
    if (rc.zipfTheta > 0.0)
        zipf = std::make_unique<sim::ZipfSampler>(rc.zipfTheta, n_nodes);
    std::vector<std::vector<graph::NodeId>> out(rc.batches);
    for (auto &batch : out) {
        batch.resize(rc.batchSize);
        for (auto &t : batch)
            t = zipf ? static_cast<graph::NodeId>(zipf->draw(rng))
                     : rng.below(n_nodes);
    }
    return out;
}

Rep
runOffline(const Bench &b, const platforms::WorkloadBundle &bundle,
           Tracer *tr, const TimedSource *src)
{
    Rep rep;
    rep.traced = tr != nullptr;
    auto t0 = Clock::now();
    int root = tr ? tr->open("run", -1) : -1;
    int init = tr ? tr->open("session_init", root) : -1;
    platforms::PlatformSession session(b.platform, b.run, bundle);
    if (tr)
        tr->close(init);
    for (const auto &targets : b.targets) {
        int span = tr ? tr->open("batch", root) : -1;
        std::uint64_t c0 = src ? src->calls() : 0;
        std::uint64_t n0 = src ? src->ns() : 0;
        auto tb = Clock::now();
        platforms::BatchService svc =
            session.runBatch(session.prepFree(), targets);
        rep.batchMs.push_back(secondsSince(tb) * 1e3);
        if (tr) {
            tr->close(span);
            tr->fetch(span, src->calls() - c0, src->ns() - n0);
        }
        ++rep.attempted;
        if (!svc.ok)
            ++rep.failed;
    }
    int fin = tr ? tr->open("finish", root) : -1;
    session.finish();
    if (tr) {
        tr->close(fin);
        tr->close(root);
    }
    rep.runS = secondsSince(t0);
    sim::MetricRegistry reg; // runPlatform's merged copy, verbatim
    reg.merge(session.metrics());
    rep.registry = "{\"run\": " + registryJson(reg) + "}";
    return rep;
}

serve::ServeResult
servePoint(const Bench &b, const platforms::WorkloadBundle &bundle,
           double rate, std::uint64_t requests, sim::MetricRegistry *reg)
{
    serve::ServeConfig sc = b.serve;
    sc.arrivals.ratePerSec = rate;
    sc.arrivals.requests = requests;
    return serve::serveWorkload(b.platform, b.run, bundle, sc, nullptr,
                                reg);
}

std::string
rateLabel(double rate)
{
    return "rate_" + std::to_string(static_cast<long long>(rate));
}

Rep
runServe(const Bench &b, const platforms::WorkloadBundle &bundle,
         Tracer *tr, const TimedSource *src)
{
    Rep rep;
    rep.traced = tr != nullptr;
    auto t0 = Clock::now();
    int root = tr ? tr->open("run", -1) : -1;
    std::string json = "{";
    for (double rate : kLadder) {
        int span = tr ? tr->open("serve_point", root) : -1;
        std::uint64_t c0 = src ? src->calls() : 0;
        std::uint64_t n0 = src ? src->ns() : 0;
        sim::MetricRegistry reg;
        auto tp = Clock::now();
        serve::ServeResult r = servePoint(b, bundle, rate, kServeRequests,
                                          &reg);
        rep.pointS.push_back(secondsSince(tp));
        if (tr) {
            tr->close(span);
            tr->fetch(span, src->calls() - c0, src->ns() - n0);
        }
        rep.pointBatches.push_back(static_cast<double>(r.batches));
        rep.attempted += kServeRequests;
        if (!r.ok)
            rep.failed += kServeRequests;
        json += (json.size() > 1 ? ",\n\"" : "\n\"") + rateLabel(rate) +
                "\": " + registryJson(reg);
    }
    if (tr)
        tr->close(root);
    rep.runS = secondsSince(t0);
    rep.registry = json + "}";
    return rep;
}

Rep
runRep(const Bench &b, const platforms::WorkloadBundle &bundle, Tracer *tr,
       const TimedSource *src)
{
    return b.w.serve ? runServe(b, bundle, tr, src)
                     : runOffline(b, bundle, tr, src);
}

/** The bundle makeBundle builds, step by step under spans. */
std::unique_ptr<platforms::WorkloadBundle>
tracedBundle(const graph::WorkloadSpec &spec,
             const flash::FlashConfig &flash_cfg, Tracer &tr)
{
    int root = tr.open("bundle", -1);
    auto bundle = std::make_unique<platforms::WorkloadBundle>();
    platforms::WorkloadBundle &b = *bundle;
    b.name = spec.name;
    int gen = tr.open("generate", root);
    b.graph = spec.makeGraph();
    b.features = spec.makeFeatures();
    tr.close(gen);
    gnn::ModelConfig model;
    model.featureDim = spec.featureDim;
    b.model = model;
    int lay = tr.open("layout", root);
    // Same block reservation as platforms::makeBundle; the registry
    // comparison against an untraced makeBundle run guards the copy.
    std::uint64_t raw =
        b.graph.numEdges() * 4 +
        std::uint64_t{b.graph.numNodes()} * b.features.bytesPerNode();
    std::uint64_t block_bytes =
        std::uint64_t{flash_cfg.pagesPerBlock} * flash_cfg.pageSize;
    std::uint64_t blocks = std::max<std::uint64_t>(
        (raw * 3) / block_bytes + 16, flash_cfg.totalDies() + 8);
    ssd::Ftl ftl(flash_cfg);
    auto reserved = ftl.reserveBlocks(blocks);
    if (reserved.empty())
        sim::fatal("tracedBundle: cannot reserve blocks");
    b.layout = dg::buildLayout(b.graph, b.features, flash_cfg, reserved);
    tr.close(lay);
    b.source = std::make_unique<TimedSource>(b.layout, b.graph);
    tr.close(root);
    return bundle;
}

/** Serve: does @p rate meet the Interactive p99 limit unsaturated? */
bool
meetsSlo(const Bench &b, const platforms::WorkloadBundle &bundle,
         double rate)
{
    serve::ServeResult r =
        servePoint(b, bundle, rate, kBisectRequests, nullptr);
    double limit_us = sim::toMicros(b.serve.slo.target[static_cast<
        std::size_t>(serve::QosClass::Interactive)]);
    return r.ok && !r.saturated() && r.p(99.0) <= limit_us;
}

/** Highest rate meeting the limit, bisected to kRateResolution. */
double
maxRate(const Bench &b, const platforms::WorkloadBundle &bundle)
{
    double lo = kReferenceRate;
    while (lo > kRateResolution && !meetsSlo(b, bundle, lo))
        lo /= 2;
    double hi = 2 * kReferenceRate;
    while (meetsSlo(b, bundle, hi)) {
        lo = hi;
        hi *= 2;
    }
    while (hi - lo > kRateResolution) {
        double mid = std::floor((lo + hi) / 2);
        (meetsSlo(b, bundle, mid) ? lo : hi) = mid;
    }
    return lo;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
}

std::string
jsonList(const std::vector<double> &xs)
{
    std::ostringstream os;
    os << std::setprecision(17) << "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        os << (i ? ", " : "") << xs[i];
    os << "]";
    return os.str();
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR\n  workloads:",
                 argv0);
    for (const auto &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name, out;
    std::uint64_t seed = 0xF00D;
    double seconds = 10;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string a = argv[i];
        const char *v = argv[i + 1];
        if (a == "--workload") name = v;
        else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds") seconds = std::strtod(v, nullptr);
        else if (a == "--trace") trace = std::atoi(v);
        else if (a == "--out") out = v;
        else return usage(argv[0]);
    }
    const Workload *wp = nullptr;
    for (const auto &w : kWorkloads)
        if (name == w.name)
            wp = &w;
    if (!wp || out.empty() || (trace != 0 && trace != 1) || !(seconds > 0))
        return usage(argv[0]);
    const Workload &w = *wp;
    const bool traced_mode = trace == 1;

    unsigned jobs = 1;
    if (w.devices > 1)
        jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    sim::SimExecutor::setDefaultJobs(jobs);

    Bench b{w, platforms::makePlatform(w.platform), {}, {}, {}};
    b.run.batchSize = kBatchSize;
    b.run.batches = kBatches;
    b.run.targetSeed = seed;
    b.run.zipfTheta = w.zipfTheta;
    b.run.topology.devices = w.devices;
    b.run.cache.capacityMB = w.cacheMB;
    b.run.cache.policy = cache::CachePolicy::MsLru;
    b.serve.arrivals.seed = seed;
    b.serve.models = {gnn::ModelKind::GCN, gnn::ModelKind::GIN};
    b.serve.arrivals.modelCount = 2;

    const graph::WorkloadSpec &spec = graph::workload(w.dataset);
    const flash::FlashConfig &flash_cfg = b.run.system.flash;
    const std::string run_id =
        std::string(w.name) + "-" + std::to_string(seed);

    // Set-up: several bundle builds, the last one kept. Untraced mode
    // times platforms::makeBundle; traced mode builds step by step.
    // Every timed step is bracketed by speed probes on as many threads
    // as the step uses (set-up runs on one); a step's probe time is the
    // mean of the probes before and after it.
    SpeedProbe probe;
    unsigned probe_threads = 1;
    double last_probe = probe.seconds(probe_threads);
    auto probe_mean = [&] {
        double now = probe.seconds(probe_threads);
        double mean = (last_probe + now) / 2;
        last_probe = now;
        return mean;
    };
    Tracer tracer;
    std::vector<double> setup_s, setup_probe_s;
    std::unique_ptr<platforms::WorkloadBundle> bundle, traced_bundle;
    for (unsigned i = 0; i < kSetups; ++i) {
        bundle.reset(); // one bundle alive at a time keeps peak RSS honest
        traced_bundle.reset();
        auto t0 = Clock::now();
        if (traced_mode)
            traced_bundle = tracedBundle(spec, flash_cfg, tracer);
        else
            bundle = platforms::makeBundle(spec, flash_cfg, {});
        setup_s.push_back(secondsSince(t0));
        setup_probe_s.push_back(probe_mean());
    }
    if (traced_mode)
        bundle = platforms::makeBundle(spec, flash_cfg, {});
    else
        traced_bundle = nullptr;
    if (!w.serve)
        b.targets = drawTargets(b.run, bundle->graph.numNodes());

    // Modelled metrics (deterministic for a seed), computed before the
    // timed loop so that they also warm the caches it runs in.
    std::ostringstream sim_json;
    sim_json << std::setprecision(17);
    if (w.serve) {
        sim::MetricRegistry ref_reg, top_reg;
        serve::ServeResult ref = servePoint(b, *bundle, kReferenceRate,
                                            kLatencyRequests, &ref_reg);
        servePoint(b, *bundle, kLadder.back(), kCapacityRequests,
                   &top_reg);
        auto pct = ref.percentiles({0.5, 0.99});
        double mj = ref_reg.findGauge("energy.total_j")->value() * 1e3 /
                    static_cast<double>(ref.requests);
        sim_json << "{\"sim_targets_per_s\": "
                 << top_reg.findGauge("run.throughput")->value()
                 << ", \"sim_mj_per_target\": " << mj
                 << ", \"sim_p50_us\": " << pct[0]
                 << ", \"sim_p99_us\": " << pct[1]
                 << ", \"sim_max_rate_rps\": " << maxRate(b, *bundle)
                 << ", \"latency_samples\": " << ref.requests << "}";
    } else {
        sim::MetricRegistry ref_reg;
        platforms::RunResult rr =
            platforms::runPlatform(b.platform, b.run, *bundle, &ref_reg);
        writeFile(out + "/registry_reference.json",
                  "{\"run\": " + registryJson(ref_reg) + "}");
        const sim::Histogram *life =
            ref_reg.findHistogram("engine.cmd.lifetime_us_hist");
        auto pct = life->percentiles({0.5, 0.99});
        sim_json << "{\"sim_targets_per_s\": " << rr.throughput
                 << ", \"sim_mj_per_target\": "
                 << ref_reg.findGauge("energy.total_j")->value() * 1e3 /
                        static_cast<double>(rr.targets)
                 << ", \"sim_p50_us\": " << pct[0]
                 << ", \"sim_p99_us\": " << pct[1]
                 << ", \"sim_max_rate_rps\": " << rr.throughput
                 << ", \"latency_samples\": " << life->summary().count();
        if (w.platform == platforms::PlatformKind::BG2 && w.devices == 1) {
            platforms::RunResult cc = platforms::runPlatform(
                platforms::makePlatform(platforms::PlatformKind::CC), b.run,
                *bundle);
            sim_json << ", \"cc_targets_per_s\": " << cc.throughput;
        }
        sim_json << "}";
    }

    // Timed repetitions. Traced mode alternates untraced and traced
    // ones so both see the same machine conditions.
    std::vector<Rep> reps;
    const TimedSource *traced_src =
        traced_mode
            ? static_cast<const TimedSource *>(traced_bundle->source.get())
            : nullptr;
    std::size_t samples = 0;
    probe_threads = jobs;
    last_probe = probe.seconds(probe_threads);
    auto budget0 = Clock::now();
    while (reps.size() < 2 || samples < kMinBatchSamples ||
           secondsSince(budget0) < seconds) {
        bool traced = traced_mode && reps.size() % 2 == 1;
        if (traced) {
            reps.push_back(runRep(b, *traced_bundle, &tracer, traced_src));
        } else {
            reps.push_back(runRep(b, *bundle, nullptr, nullptr));
            samples += reps.back().batchMs.size() + reps.back().pointS.size();
        }
        reps.back().probeS = probe_mean();
    }

    bool identical = true;
    const Rep *first_timed = nullptr, *first_traced = nullptr;
    for (const Rep &r : reps) {
        const Rep *&first = r.traced ? first_traced : first_timed;
        if (!first)
            first = &r;
        identical = identical && r.registry == first->registry;
    }
    writeFile(out + "/registry_timed.json", first_timed->registry);
    if (first_traced) {
        writeFile(out + "/registry_traced.json", first_traced->registry);
    } else {
        // Untraced mode: one traced repetition, for the comparison only.
        auto src = std::make_unique<TimedSource>(bundle->layout,
                                                 bundle->graph);
        const TimedSource *timed = src.get();
        bundle->source = std::move(src);
        Tracer scratch;
        Rep check = runRep(b, *bundle, &scratch, timed);
        writeFile(out + "/registry_traced.json", check.registry);
    }

    if (traced_mode)
        tracer.writeChrome(out + "/trace.json", run_id);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ofstream os(out + "/result.json");
    os << std::setprecision(17);
    os << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
       << ", \"trace\": " << trace << ", \"run_id\": \"" << run_id
       << "\", \"jobs\": " << jobs << ", \"batches\": " << kBatches
       << ", \"batch_size\": " << kBatchSize
       << ", \"serve_requests\": " << kServeRequests
       << ", \"serve_rates\": " << jsonList(kLadder)
       << ", \"reference_rate\": " << kReferenceRate
       << ", \"rate_resolution\": " << kRateResolution
       << ", \"reps_identical\": " << (identical ? "true" : "false")
       << ", \"peak_rss_kb\": " << ru.ru_maxrss
       << ", \"probe_bytes\": " << SpeedProbe::kWords * 4
       << ", \"probe_ref_s\": " << kProbeRefS
       << ", \"probe_sink\": " << probe.sink.load() // keeps reads live
       << ", \"setup_s\": " << jsonList(setup_s)
       << ", \"setup_probe_s\": " << jsonList(setup_probe_s)
       << ", \"sim\": " << sim_json.str() << ", \"reps\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        os << (i ? ",\n" : "\n") << "{\"traced\": "
           << (r.traced ? "true" : "false") << ", \"run_s\": " << r.runS
           << ", \"probe_s\": " << r.probeS
           << ", \"attempted\": " << r.attempted
           << ", \"failed\": " << r.failed
           << ", \"batch_ms\": " << jsonList(r.batchMs)
           << ", \"point_s\": " << jsonList(r.pointS)
           << ", \"point_batches\": " << jsonList(r.pointBatches) << "}";
    }
    os << "]}\n";
    return 0;
}
