#include "gnn/vertex_program.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace beacongnn::gnn {

namespace {

bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

constexpr AlgoKind kAlgoKinds[] = {AlgoKind::PageRank, AlgoKind::Bfs,
                                   AlgoKind::KCore};

/**
 * Pull-based damped PageRank. Every superstep reads the rank of every
 * vertex (dense frontier), so each iteration streams the full vertex
 * state from flash; convergence is a total L1 residual below the
 * tolerance. Dangling mass is dropped (deterministic, matches the
 * simple pull formulation).
 */
class PageRankProgram final : public VertexProgram
{
  public:
    explicit PageRankProgram(const VertexProgramConfig &cfg_)
        : cfg(cfg_)
    {
    }

    const char *name() const override { return "pagerank"; }

    void
    init(const graph::Graph &g) override
    {
        const std::size_t n = g.numNodes();
        rank.assign(n, n ? 1.0 / static_cast<double>(n) : 0.0);
        active.resize(n);
        for (std::size_t v = 0; v < n; ++v)
            active[v] = static_cast<graph::NodeId>(v);
        done = n == 0;
        if (done)
            active.clear();
    }

    const std::vector<graph::NodeId> &
    frontier() const override
    {
        return active;
    }

    bool
    step(const graph::Graph &g) override
    {
        const std::size_t n = g.numNodes();
        std::vector<double> next(n, (1.0 - cfg.damping) /
                                        static_cast<double>(n));
        for (std::size_t u = 0; u < n; ++u) {
            const std::uint32_t deg = g.degree(
                static_cast<graph::NodeId>(u));
            if (deg == 0)
                continue;
            const double share =
                cfg.damping * rank[u] / static_cast<double>(deg);
            for (std::uint32_t i = 0; i < deg; ++i)
                next[g.neighbor(static_cast<graph::NodeId>(u), i)] += share;
        }
        double residual = 0.0;
        for (std::size_t v = 0; v < n; ++v)
            residual += std::abs(next[v] - rank[v]);
        rank = std::move(next);
        done = residual < cfg.tolerance;
        if (done)
            active.clear();
        return done;
    }

    const std::vector<double> &values() const override { return rank; }

  private:
    VertexProgramConfig cfg;
    std::vector<double> rank;
    std::vector<graph::NodeId> active;
    bool done = false;
};

/**
 * Breadth-first distances. The frontier is exactly the wave of newly
 * discovered vertices, so the flash traffic per superstep tracks the
 * true BFS expansion; unreached vertices keep value -1.
 */
class BfsProgram final : public VertexProgram
{
  public:
    explicit BfsProgram(const VertexProgramConfig &cfg_) : cfg(cfg_) {}

    const char *name() const override { return "bfs"; }

    void
    init(const graph::Graph &g) override
    {
        dist.assign(g.numNodes(), -1.0);
        wave.clear();
        depth = 0;
        if (cfg.source < g.numNodes()) {
            dist[cfg.source] = 0.0;
            wave.push_back(cfg.source);
        }
    }

    const std::vector<graph::NodeId> &
    frontier() const override
    {
        return wave;
    }

    bool
    step(const graph::Graph &g) override
    {
        ++depth;
        std::vector<graph::NodeId> next;
        for (graph::NodeId u : wave) {
            for (std::uint32_t i = 0, d = g.degree(u); i < d; ++i) {
                const graph::NodeId w = g.neighbor(u, i);
                if (dist[w] < 0.0) {
                    dist[w] = static_cast<double>(depth);
                    next.push_back(w);
                }
            }
        }
        wave = std::move(next);
        return wave.empty();
    }

    const std::vector<double> &values() const override { return dist; }

  private:
    VertexProgramConfig cfg;
    std::vector<double> dist;
    std::vector<graph::NodeId> wave;
    std::uint32_t depth = 0;
};

/**
 * k-core peeling: repeatedly remove vertices whose degree among the
 * surviving vertices is below k. The frontier of superstep i is the
 * set of vertices whose effective degree must be re-read — all alive
 * vertices on the first round, then the alive neighbours of the last
 * peel. values() is 1 for core members, 0 for peeled vertices.
 */
class KCoreProgram final : public VertexProgram
{
  public:
    explicit KCoreProgram(const VertexProgramConfig &cfg_) : cfg(cfg_)
    {
    }

    const char *name() const override { return "kcore"; }

    void
    init(const graph::Graph &g) override
    {
        const std::size_t n = g.numNodes();
        inCore.assign(n, 1.0);
        deg.resize(n);
        for (std::size_t v = 0; v < n; ++v)
            deg[v] = g.degree(static_cast<graph::NodeId>(v));
        check.resize(n);
        for (std::size_t v = 0; v < n; ++v)
            check[v] = static_cast<graph::NodeId>(v);
        done = n == 0;
        if (done)
            check.clear();
    }

    const std::vector<graph::NodeId> &
    frontier() const override
    {
        return check;
    }

    bool
    step(const graph::Graph &g) override
    {
        std::vector<graph::NodeId> peeled;
        for (graph::NodeId v : check) {
            if (inCore[v] > 0.0 && deg[v] < cfg.k) {
                inCore[v] = 0.0;
                peeled.push_back(v);
            }
        }
        std::vector<graph::NodeId> next;
        for (graph::NodeId v : peeled) {
            for (std::uint32_t i = 0, d = g.degree(v); i < d; ++i) {
                const graph::NodeId w = g.neighbor(v, i);
                if (inCore[w] > 0.0) {
                    --deg[w];
                    next.push_back(w);
                }
            }
        }
        // A vertex may appear once per lost edge; deduplicate so the
        // next superstep reads each candidate once.
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        check = std::move(next);
        done = check.empty();
        return done;
    }

    const std::vector<double> &
    values() const override
    {
        return inCore;
    }

  private:
    VertexProgramConfig cfg;
    std::vector<double> inCore;
    std::vector<std::uint32_t> deg;
    std::vector<graph::NodeId> check;
    bool done = false;
};

} // namespace

const char *
algoKindName(AlgoKind k)
{
    switch (k) {
    case AlgoKind::PageRank:
        return "pagerank";
    case AlgoKind::Bfs:
        return "bfs";
    case AlgoKind::KCore:
        return "kcore";
    }
    return "?";
}

std::optional<AlgoKind>
findAlgoKind(std::string_view name)
{
    for (AlgoKind k : kAlgoKinds)
        if (iequals(name, algoKindName(k)))
            return k;
    return std::nullopt;
}

std::string
algoKindList()
{
    std::string out;
    for (AlgoKind k : kAlgoKinds) {
        if (!out.empty())
            out += ", ";
        out += algoKindName(k);
    }
    return out;
}

std::unique_ptr<VertexProgram>
makeVertexProgram(const VertexProgramConfig &cfg)
{
    switch (cfg.algo) {
    case AlgoKind::PageRank:
        return std::make_unique<PageRankProgram>(cfg);
    case AlgoKind::Bfs:
        return std::make_unique<BfsProgram>(cfg);
    case AlgoKind::KCore:
        return std::make_unique<KCoreProgram>(cfg);
    }
    return nullptr;
}

} // namespace beacongnn::gnn
