#include "graph/generator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/log.h"
#include "sim/rng.h"

namespace beacongnn::graph {

namespace {

/**
 * Draw from a truncated power law P(d) ~ d^-alpha on
 * [min_deg, max_deg] via inverse-CDF sampling.
 */
std::uint32_t
powerLawDraw(sim::Pcg32 &rng, double alpha, double min_deg, double max_deg)
{
    double u = rng.uniform();
    double one_m_a = 1.0 - alpha;
    double lo = std::pow(min_deg, one_m_a);
    double hi = std::pow(max_deg, one_m_a);
    double d = std::pow(lo + u * (hi - lo), 1.0 / one_m_a);
    return static_cast<std::uint32_t>(std::max(min_deg, d));
}

} // namespace

Graph
generatePowerLaw(const GeneratorParams &p)
{
    if (p.nodes == 0)
        sim::fatal("generatePowerLaw: zero nodes requested");
    sim::Pcg32 rng(p.seed, 0x7ea7);

    // Draw raw degrees, then rescale to the requested mean. The
    // rescale keeps the distribution's shape while making the
    // synthetic dataset match the paper workload's average degree.
    // offsets[v + 1] holds v's raw degree until the prefix pass below
    // replaces it, so the graph never needs more than its offsets.
    std::vector<std::uint64_t> offsets(std::size_t{p.nodes} + 1, 0);
    double raw_sum = 0;
    for (NodeId v = 0; v < p.nodes; ++v) {
        offsets[v + 1] = powerLawDraw(rng, p.exponent, p.minDegree,
                                      static_cast<double>(p.maxDegree));
        raw_sum += static_cast<double>(offsets[v + 1]);
    }
    double scale = p.avgDegree * p.nodes / std::max(1.0, raw_sum);
    for (NodeId v = 0; v < p.nodes; ++v) {
        auto d = static_cast<std::uint32_t>(
            std::lround(static_cast<double>(offsets[v + 1]) * scale));
        d = std::clamp<std::uint32_t>(d, 1, p.maxDegree);
        offsets[v + 1] = offsets[v] + d;
    }
    // Salt the edge stream's key: the degree draws and the feature
    // table are keyed by the same seed.
    return Graph::keyed(std::move(offsets),
                        sim::splitmix64(p.seed ^ 0xed6e5eedull));
}

Graph
generateRmat(const RmatParams &p)
{
    if (p.nodes == 0)
        sim::fatal("generateRmat: zero nodes requested");
    double psum = p.a + p.b + p.c + p.d;
    if (psum < 0.99 || psum > 1.01)
        sim::fatal("generateRmat: quadrant probabilities must sum to 1");

    unsigned levels = 0;
    while ((NodeId{1} << levels) < p.nodes)
        ++levels;
    sim::Pcg32 rng(p.seed, 0x52AA7);
    auto edges_wanted = static_cast<std::uint64_t>(
        p.avgDegree * static_cast<double>(p.nodes));

    std::vector<std::vector<NodeId>> adj(p.nodes);
    std::uint64_t placed = 0;
    // Draw edges by recursive quadrant descent; redraw any edge whose
    // endpoint lands beyond the (non-power-of-two) node count.
    while (placed < edges_wanted) {
        NodeId src = 0, dst = 0;
        for (unsigned l = 0; l < levels; ++l) {
            double u = rng.uniform();
            NodeId bit = NodeId{1} << (levels - 1 - l);
            if (u < p.a) {
                // Top-left: no bits set.
            } else if (u < p.a + p.b) {
                dst |= bit;
            } else if (u < p.a + p.b + p.c) {
                src |= bit;
            } else {
                src |= bit;
                dst |= bit;
            }
        }
        if (src >= p.nodes || dst >= p.nodes)
            continue;
        adj[src].push_back(dst);
        ++placed;
    }
    // R-MAT leaves some nodes isolated; give every node one edge so
    // samplers never dead-end (matches the power-law generator's
    // minimum-degree guarantee).
    for (NodeId v = 0; v < p.nodes; ++v)
        if (adj[v].empty())
            adj[v].push_back(rng.below(p.nodes));
    return Graph(adj);
}

Graph
generateRing(NodeId nodes, std::uint32_t degree)
{
    std::vector<std::uint64_t> offsets(nodes + 1, 0);
    for (NodeId v = 0; v < nodes; ++v)
        offsets[v + 1] = offsets[v] + degree;
    std::vector<NodeId> edges(offsets.back());
    std::uint64_t e = 0;
    for (NodeId v = 0; v < nodes; ++v)
        for (std::uint32_t i = 1; i <= degree; ++i)
            edges[e++] = (v + i) % nodes;
    return Graph(std::move(offsets), std::move(edges));
}

} // namespace beacongnn::graph
