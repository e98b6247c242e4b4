/**
 * @file
 * Synthetic graph generators.
 *
 * The evaluation workloads are synthetic stand-ins for the scaled PyG
 * datasets of Table III: truncated-power-law degree sequences with a
 * configurable mean, uniform random endpoints. See DESIGN.md §1 for
 * the substitution rationale.
 */

#ifndef BEACONGNN_GRAPH_GENERATOR_H
#define BEACONGNN_GRAPH_GENERATOR_H

#include <cstdint>

#include "graph/graph.h"

namespace beacongnn::graph {

/** Parameters of the synthetic power-law generator. */
struct GeneratorParams
{
    NodeId nodes = 10000;
    double avgDegree = 32.0;
    /** Power-law exponent of the degree distribution (> 1). */
    double exponent = 2.1;
    std::uint32_t minDegree = 2;
    /** Cap on any single node's degree (keeps memory bounded). */
    std::uint32_t maxDegree = 60000;
    std::uint64_t seed = 42;
};

/**
 * Generate a directed graph with a truncated-power-law out-degree
 * distribution rescaled to hit @p params.avgDegree on average. The
 * graph is in keyed form: it stores only its offsets, and each
 * uniform endpoint is derived from the seed and the edge index.
 */
Graph generatePowerLaw(const GeneratorParams &params);

/**
 * Small deterministic ring+chords graph for unit tests: node v links
 * to (v+1), (v+2), ... (v+degree) mod n.
 */
Graph generateRing(NodeId nodes, std::uint32_t degree);

/** Parameters of the R-MAT (Graph500-style) generator. */
struct RmatParams
{
    /** Nodes are rounded up to the next power of two internally and
     *  edges with endpoints >= nodes are re-drawn. */
    NodeId nodes = 16384;
    double avgDegree = 16.0;
    /** Quadrant probabilities; a+b+c+d must be ~1. The Graph500
     *  defaults (0.57/0.19/0.19/0.05) give strong community skew. */
    double a = 0.57, b = 0.19, c = 0.19, d = 0.05;
    std::uint64_t seed = 42;
};

/**
 * Generate an R-MAT graph: recursively subdivided adjacency matrix
 * with biased quadrant probabilities. Produces skewed degrees and
 * community structure, a common alternative to the power-law
 * configuration model for storage-system benchmarking.
 */
Graph generateRmat(const RmatParams &params);

} // namespace beacongnn::graph

#endif // BEACONGNN_GRAPH_GENERATOR_H
