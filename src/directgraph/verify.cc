#include "directgraph/verify.h"

#include <string>

namespace beacongnn::dg {

std::string
checkLayoutInvariants(const DirectGraphLayout &layout)
{
    for (std::size_t v = 0; v < layout.nodes.size(); ++v) {
        const NodeLayout &nl = layout.nodes[v];
        const SectionPlacement *p = layout.find(nl.primary);
        if (!p)
            return "node " + std::to_string(v) +
                   ": primary address unresolvable";
        if (p->type != SectionType::Primary)
            return "node " + std::to_string(v) +
                   ": primary address resolves to non-primary section";
        if (p->node != v)
            return "node " + std::to_string(v) +
                   ": primary section owned by node " +
                   std::to_string(p->node);
        std::uint32_t covered = nl.inPage;
        for (const auto &r : nl.secondaries) {
            const SectionPlacement *s = layout.find(r.addr);
            if (!s || s->type != SectionType::Secondary || s->node != v)
                return "node " + std::to_string(v) +
                       ": bad secondary reference";
            covered += r.count;
        }
        if (covered != nl.degree)
            return "node " + std::to_string(v) +
                   ": sections cover " + std::to_string(covered) +
                   " of " + std::to_string(nl.degree) + " neighbours";
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
