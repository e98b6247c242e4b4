#include "directgraph/verify.h"

#include <string>

namespace beacongnn::dg {

std::string
checkLayoutInvariants(const DirectGraphLayout &layout, const graph::Graph &g)
{
    auto bad_node = [](std::size_t v, const std::string &what) {
        return "node " + std::to_string(v) + ": " + what;
    };
    if (layout.nodes.size() != g.numNodes())
        return "layout has " + std::to_string(layout.nodes.size()) +
               " nodes, graph has " + std::to_string(g.numNodes());
    // secondariesOf() relies on both, so they are checked first.
    const std::vector<NodeLayout> &nodes = layout.nodes;
    for (std::size_t v = 1; v < nodes.size(); ++v)
        if (nodes[v].firstSecondary < nodes[v - 1].firstSecondary)
            return bad_node(v, "firstSecondary decreases");
    if (!nodes.empty() &&
        nodes.back().firstSecondary > layout.secondaries.size())
        return bad_node(nodes.size() - 1,
                        "firstSecondary past the secondary table");

    for (graph::NodeId v = 0; v < nodes.size(); ++v) {
        const NodeLayout &nl = nodes[v];
        const SectionPlacement *p = layout.find(nl.primary);
        if (!p)
            return bad_node(v, "primary address unresolvable");
        if (p->type != SectionType::Primary)
            return bad_node(v, "primary address resolves to non-primary "
                               "section");
        if (p->node != v)
            return bad_node(v, "primary section owned by node " +
                                   std::to_string(p->node));
        std::uint64_t covered = nl.inPage;
        std::span<const SecondaryRef> secs = layout.secondariesOf(v);
        for (std::uint32_t j = 0; j < secs.size(); ++j) {
            const SectionPlacement *s = layout.find(secs[j].addr);
            if (!s || s->type != SectionType::Secondary || s->node != v ||
                s->secondaryIdx != j)
                return bad_node(v, "bad secondary reference");
            covered += secs[j].count;
        }
        if (covered != g.degree(v))
            return bad_node(v, "sections cover " + std::to_string(covered) +
                                   " of " + std::to_string(g.degree(v)) +
                                   " neighbours");
    }

    // The directory walks pages in Ppa order, so the first violation
    // reported is the same on every build.
    for (const auto &[ppa, sections] : layout.pages) {
        if (sections.size() > kMaxSectionsPerPage)
            return "page " + std::to_string(ppa) +
                   ": too many sections";
        std::uint32_t prev_end = 0;
        for (const auto &sp : sections) {
            if (sp.byteOffset % kSectionAlign != 0)
                return "page " + std::to_string(ppa) +
                       ": unaligned section";
            if (sp.byteOffset < prev_end)
                return "page " + std::to_string(ppa) +
                       ": overlapping sections";
            if (sp.byteOffset + sp.byteSize > layout.pageSize)
                return "page " + std::to_string(ppa) +
                       ": section exceeds page";
            prev_end = sp.byteOffset + sp.byteSize;
        }
    }
    return "";
}

} // namespace beacongnn::dg
