/**
 * @file
 * Scale sweep: amazon from 12k to 1.6M nodes.
 *
 * Synthetic graphs derive their edges from a keyed hash, so a graph
 * costs 8 B per node and paper-scale node counts fit in memory
 * (DESIGN.md §1). DESIGN.md's scale-down substitution rests on BG-2's
 * offline throughput being scale-invariant; the extensions that reuse
 * data across targets are not. At each scale this bench prints, for
 * 16 batches of 128 targets on the default 3-hop, fanout-3 task:
 *
 *  - BG-2 targets/s (uniform targets, one device);
 *  - the hit rate of a 4 MiB mslru vertex cache under Zipf(0.8)
 *    targets;
 *  - the reads batch-level node dedupe saves (uniform targets);
 *  - the fraction of commands that cross devices on a hash-partitioned
 *    8-device array;
 *  - the peak RSS of this process so far. Scales run in ascending
 *    order with one workload bundle alive at a time, so the peak
 *    after a scale is that scale's footprint.
 *
 * The grid goes to results/scale_sweep.csv. A 12k-vs-100k throughput
 * check lives in tests/test_properties.cc.
 */

#include "common.h"

#include <sys/resource.h>

#include "sim/metrics.h"

using namespace bench;

namespace {

struct ScalePoint
{
    graph::NodeId nodes = 0;
    std::uint64_t edges = 0;
    double throughput = 0;
    double cacheHitRate = 0;
    std::uint64_t dedupedReads = 0;
    double crossFraction = 0;
    double peakRssMiB = 0;
};

/** Peak resident set of this process so far, in MiB. */
double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

ScalePoint
measure(graph::NodeId nodes)
{
    ssd::SystemConfig sys;
    auto b = platforms::makeBundle(graph::workload("amazon"), sys.flash,
                                   gnn::ModelConfig{}, nodes);
    RunConfig rc;
    rc.batchSize = 128;
    rc.batches = 16;
    const platforms::PlatformConfig bg2 =
        platforms::makePlatform(PlatformKind::BG2);

    ScalePoint p;
    p.nodes = nodes;
    p.edges = b->graph.numEdges();
    p.throughput = runPlatform(bg2, rc, *b).throughput;

    RunConfig cached = rc;
    cached.cache.capacityMB = 4.0;
    cached.cache.policy = cache::CachePolicy::MsLru;
    cached.zipfTheta = 0.8;
    sim::MetricRegistry cache_reg;
    runPlatform(bg2, cached, *b, &cache_reg);
    p.cacheHitRate = cache_reg.gauge("engine.cache.hit_rate").value();

    platforms::PlatformConfig dedupe = bg2;
    dedupe.flags.dedupeNodes = true;
    sim::MetricRegistry dedupe_reg;
    runPlatform(dedupe, rc, *b, &dedupe_reg);
    p.dedupedReads = dedupe_reg.counter("engine.deduped_reads").value();

    RunConfig array = rc;
    array.topology.devices = 8;
    p.crossFraction = runPlatform(bg2, array, *b).crossFraction;

    p.peakRssMiB = peakRssMiB();
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    parseJobs(argc, argv);
    banner("Scale sweep: amazon, BG-2, 16 x 128 targets per run");
    std::printf("%9s %9s %12s %10s %10s %10s %10s\n", "nodes",
                "edges(M)", "targets/s", "hit_rate", "deduped",
                "x8_cross", "rss_MiB");
    std::printf("%9s %9s %12s %10s %10s %10s %10s\n", "", "", "(BG-2)",
                "(4MiB,.8)", "(reads)", "(frac)", "(peak)");

    std::filesystem::create_directories("results");
    std::ofstream csv("results/scale_sweep.csv");
    csv << "nodes,edges,bg2_targets_per_s,cache_hit_rate,deduped_reads,"
           "x8_cross_fraction,peak_rss_mib\n";
    for (graph::NodeId nodes : {12000u, 100000u, 400000u, 1600000u}) {
        const ScalePoint p = measure(nodes);
        std::printf("%9u %9.1f %12.0f %10.3f %10llu %10.3f %10.0f\n",
                    p.nodes, static_cast<double>(p.edges) / 1e6,
                    p.throughput, p.cacheHitRate,
                    static_cast<unsigned long long>(p.dedupedReads),
                    p.crossFraction, p.peakRssMiB);
        std::fflush(stdout);
        csv << p.nodes << ',' << p.edges << ',' << p.throughput << ','
            << p.cacheHitRate << ',' << p.dedupedReads << ','
            << p.crossFraction << ',' << p.peakRssMiB << '\n';
    }
    rule();
    std::printf("Throughput is scale-invariant (the substitution of "
                "DESIGN.md section 1);\ncache hits, dedupe and device "
                "locality fall as the graph grows.\n");
    return 0;
}
