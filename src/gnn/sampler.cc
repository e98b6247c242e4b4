#include "gnn/sampler.h"

#include <algorithm>

#include "sim/rng.h"

namespace beacongnn::gnn {

void
drawPrimary(std::uint64_t seed, std::uint64_t batch, std::uint8_t hop,
            graph::NodeId node, std::uint8_t fanout, std::uint32_t degree,
            std::uint32_t in_page, dg::SecondaryRefs secondaries,
            PrimaryDraws &out)
{
    out.inPageCount = 0;
    out.secondaryCount = 0;
    if (degree == 0)
        return;
    for (std::uint8_t i = 0; i < fanout; ++i) {
        auto r = static_cast<std::uint32_t>(
            sim::keyedBelow(seed, batch, hop, node, i, degree));
        if (r < in_page) {
            out.inPage[out.inPageCount++] = r;
            continue;
        }
        // Locate the secondary section covering index r.
        std::uint32_t j = 0;
        r -= in_page;
        while (j < secondaries.size() && r >= secondaries[j].count)
            r -= secondaries[j++].count;
        if (j == secondaries.size())
            continue; // Not covered by any secondary: no command.
        // Count the hit, keeping the list ordered by section index.
        PrimaryDraws::SecondaryHits *first = out.secondary.data();
        PrimaryDraws::SecondaryHits *last = first + out.secondaryCount;
        PrimaryDraws::SecondaryHits *at = std::lower_bound(
            first, last, j,
            [](const PrimaryDraws::SecondaryHits &h, std::uint32_t idx) {
                return h.secondary < idx;
            });
        if (at != last && at->secondary == j) {
            ++at->hits;
        } else {
            std::move_backward(at, last, last + 1);
            *at = {j, 1};
            ++out.secondaryCount;
        }
    }
}

void
drawSecondary(std::uint64_t seed, std::uint64_t batch, std::uint8_t hop,
              graph::NodeId node, std::uint32_t secondary_idx,
              std::uint32_t first_draw, std::uint32_t section_size,
              std::span<std::uint32_t> picks)
{
    for (std::uint32_t t = 0; t < picks.size(); ++t) {
        std::uint32_t draw = kSecondaryDrawBase +
                             secondary_idx * kSecondaryDrawStride +
                             first_draw + t;
        picks[t] = static_cast<std::uint32_t>(sim::keyedBelow(
            seed, batch, hop, node, draw, section_size));
    }
}

namespace {

/** Recursive expansion shared by both disciplines. */
template <typename ChildFn>
void
expand(Subgraph &sg, const ModelConfig &m, graph::NodeId node,
       std::uint8_t hop, Slot parent, ChildFn &&children)
{
    Slot slot = sg.add(node, hop, parent);
    if (hop >= m.hops)
        return;
    for (graph::NodeId c : children(node, hop)) {
        expand(sg, m, c, static_cast<std::uint8_t>(hop + 1), slot,
               children);
    }
}

} // namespace

Subgraph
csrSample(const graph::Graph &g, const ModelConfig &m, std::uint64_t batch,
          std::span<const graph::NodeId> targets)
{
    Subgraph sg;
    auto children = [&](graph::NodeId v,
                        std::uint8_t hop) -> std::vector<graph::NodeId> {
        std::vector<graph::NodeId> out;
        std::uint32_t deg = g.degree(v);
        if (deg == 0)
            return out;
        const std::uint8_t fan = m.fanoutAt(hop);
        out.reserve(fan);
        for (std::uint8_t i = 0; i < fan; ++i) {
            auto r = static_cast<std::uint32_t>(
                sim::keyedBelow(m.seed, batch, hop, v, i, deg));
            out.push_back(g.neighbor(v, r));
        }
        return out;
    };
    for (graph::NodeId t : targets)
        expand(sg, m, t, 0, kNoParent, children);
    return sg;
}

Subgraph
layoutSample(const graph::Graph &g, const dg::DirectGraphLayout &layout,
             const ModelConfig &m, std::uint64_t batch,
             std::span<const graph::NodeId> targets)
{
    Subgraph sg;
    auto children = [&](graph::NodeId v,
                        std::uint8_t hop) -> std::vector<graph::NodeId> {
        std::vector<graph::NodeId> out;
        if (g.degree(v) == 0)
            return out;
        const std::uint8_t fan = m.fanoutAt(hop);
        const auto secs = layout.secondariesOf(v);
        PrimaryDraws d;
        drawPrimary(m.seed, batch, hop, v, fan, g.degree(v),
                    layout.nodes[v].inPage, secs, d);
        out.reserve(fan);
        for (std::uint32_t r : d.inPagePicks())
            out.push_back(g.neighbor(v, r));
        std::array<std::uint32_t, kMaxDraws> buf;
        for (const PrimaryDraws::SecondaryHits &h : d.secondaryHits()) {
            const auto [first, count] =
                layout.edgeRange(*layout.find(secs[h.secondary].addr));
            std::span<std::uint32_t> picks =
                std::span(buf).first(h.hits);
            drawSecondary(m.seed, batch, hop, v, h.secondary, 0, count,
                          picks);
            for (std::uint32_t idx : picks)
                out.push_back(g.neighbor(v, first + idx));
        }
        return out;
    };
    for (graph::NodeId t : targets)
        expand(sg, m, t, 0, kNoParent, children);
    return sg;
}

} // namespace beacongnn::gnn
