/**
 * @file
 * CSR graph (stored or keyed edges) and procedural FP16 feature table.
 *
 * The graph is the "raw dataset" input to DirectGraph conversion and
 * the golden reference for all samplers. Features are procedural:
 * element (node, i) is a deterministic function of both, so a feature
 * table of any size can be checked byte-for-byte after a round trip
 * through flash pages without storing it twice.
 */

#ifndef BEACONGNN_GRAPH_GRAPH_H
#define BEACONGNN_GRAPH_GRAPH_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace beacongnn::graph {

/** Graph node id (INT-32 per §VII-A). */
using NodeId = std::uint32_t;

/**
 * Endpoint of edge @p e of a synthetic graph with @p nodes nodes whose
 * edge stream is keyed by @p key: a counter-based hash of (key, e)
 * reduced to [0, nodes). Any edge is computed in O(1), in any order.
 */
constexpr NodeId
syntheticEdgeTarget(std::uint64_t key, std::uint64_t e, NodeId nodes)
{
    return static_cast<NodeId>(sim::reduceBelow(
        sim::splitmix64(key + e * 0x9e3779b97f4a7c15ull), nodes));
}

/**
 * Directed graph in compressed sparse row form: node v's out-edges are
 * edges firstEdge(v) .. firstEdge(v) + degree(v) - 1. The offsets are
 * always stored (8 B per node); the edge endpoints come in one of two
 * forms, invisible to callers:
 *  - stored: an explicit endpoint per edge, for hand-built graphs and
 *    the ring and R-MAT generators, whose edges have no other form;
 *  - keyed: the synthetic power-law workloads, whose endpoint of edge
 *    e is syntheticEdgeTarget(key, e, nodes), derived on demand, so
 *    the graph costs O(nodes) memory whatever its degree.
 */
class Graph
{
  public:
    Graph() { offsets.push_back(0); }

    /**
     * Build from explicit adjacency.
     * @param adjacency adjacency[v] lists the out-neighbours of v.
     */
    explicit Graph(const std::vector<std::vector<NodeId>> &adjacency)
    {
        offsets.reserve(adjacency.size() + 1);
        offsets.push_back(0);
        for (const auto &nbrs : adjacency) {
            edges.insert(edges.end(), nbrs.begin(), nbrs.end());
            offsets.push_back(static_cast<std::uint64_t>(edges.size()));
        }
    }

    /** Build from CSR arrays directly (generator fast path). */
    Graph(std::vector<std::uint64_t> offs, std::vector<NodeId> dst)
        : offsets(std::move(offs)), edges(std::move(dst))
    {
    }

    /** Keyed form over @p offs: no endpoint is stored; edge e ends at
     *  syntheticEdgeTarget(@p key, e, numNodes()). */
    static Graph
    keyed(std::vector<std::uint64_t> offs, std::uint64_t key)
    {
        Graph g(std::move(offs), {});
        g.keyedEdges = true;
        g.edgeKey = key;
        return g;
    }

    NodeId numNodes() const
    {
        return static_cast<NodeId>(offsets.size() - 1);
    }

    std::uint64_t numEdges() const { return offsets.back(); }

    std::uint32_t
    degree(NodeId v) const
    {
        return static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]);
    }

    /** Index of @p v's first out-edge. */
    std::uint64_t firstEdge(NodeId v) const { return offsets[v]; }

    /** Endpoint of edge @p e (< numEdges()). */
    NodeId
    edgeTarget(std::uint64_t e) const
    {
        return keyedEdges ? syntheticEdgeTarget(edgeKey, e, numNodes())
                          : edges[e];
    }

    /** i-th neighbour of @p v (i < degree(v)). */
    NodeId
    neighbor(NodeId v, std::uint32_t i) const
    {
        return edgeTarget(offsets[v] + i);
    }

    double
    avgDegree() const
    {
        return numNodes() == 0
                   ? 0.0
                   : static_cast<double>(numEdges()) / numNodes();
    }

  private:
    std::vector<std::uint64_t> offsets;
    std::vector<NodeId> edges; ///< Stored form only.
    bool keyedEdges = false;
    std::uint64_t edgeKey = 0; ///< Keyed form only.
};

/**
 * Procedural FP16 feature table: X[v][i] is a pure function of (v, i),
 * reproducible anywhere (host builder, die sampler verification,
 * golden compute) without storage.
 */
class FeatureTable
{
  public:
    /**
     * @param dim  Feature dimension (elements per node).
     * @param seed Dataset seed.
     */
    explicit FeatureTable(std::uint16_t dim, std::uint64_t seed_ = 7)
        : _dim(dim), seed(seed_)
    {
    }

    std::uint16_t dim() const { return _dim; }
    std::uint32_t bytesPerNode() const { return std::uint32_t{_dim} * 2; }

    /** Raw FP16 bits of element (v, i). */
    std::uint16_t
    raw(NodeId v, std::uint16_t i) const
    {
        return static_cast<std::uint16_t>(
            sim::splitmix64(seed ^ (std::uint64_t{v} << 20) ^ i));
    }

    /**
     * Element (v, i) as a float in roughly [-1, 1) (deterministic;
     * used by the functional GNN compute path).
     */
    float
    value(NodeId v, std::uint16_t i) const
    {
        auto bits = raw(v, i);
        return (static_cast<float>(bits) / 32768.0f) - 1.0f;
    }

    /** Serialize node @p v's vector into @p out (little endian FP16 bits). */
    void
    fill(NodeId v, std::span<std::uint8_t> out) const
    {
        for (std::uint16_t i = 0; i < _dim && (2u * i + 1) < out.size();
             ++i) {
            std::uint16_t b = raw(v, i);
            out[2 * i] = static_cast<std::uint8_t>(b & 0xff);
            out[2 * i + 1] = static_cast<std::uint8_t>(b >> 8);
        }
    }

  private:
    std::uint16_t _dim;
    std::uint64_t seed;
};

} // namespace beacongnn::graph

#endif // BEACONGNN_GRAPH_GRAPH_H
