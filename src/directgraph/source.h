/**
 * @file
 * Section sources: how a sampler obtains the decoded content of a
 * (page, section) address.
 *
 * Two interchangeable implementations back the same sampler logic:
 *  - PageByteSource parses real flash page bytes (what the die-level
 *    sampler hardware does); used by functional tests and examples.
 *  - LayoutSource answers from builder metadata without materializing
 *    page bytes; used for large timing runs.
 * Both return a SectionData view that resolves neighbour addresses
 * only when the sampler asks for them. The test suite checks that
 * both views agree, header and every accessor, for every primary and
 * secondary section of a materialized graph.
 */

#ifndef BEACONGNN_DIRECTGRAPH_SOURCE_H
#define BEACONGNN_DIRECTGRAPH_SOURCE_H

#include <optional>

#include "directgraph/builder.h"
#include "directgraph/codec.h"
#include "flash/page_store.h"

namespace beacongnn::dg {

/** Abstract resolver from DgAddress to decoded section content. */
class SectionSource
{
  public:
    virtual ~SectionSource() = default;

    /**
     * Decode the section at @p addr.
     * @return nullopt if the address does not name a valid section —
     *         the on-die check of §VI-E treats that as an abort.
     */
    virtual std::optional<SectionData> fetch(DgAddress addr) const = 0;
};

/** Section source over real page bytes in the flash page store. */
class PageByteSource : public SectionSource
{
  public:
    PageByteSource(const flash::PageStore &store_,
                   std::uint16_t feature_dim)
        : store(store_), featureDim(feature_dim)
    {
    }

    std::optional<SectionData>
    fetch(DgAddress addr) const override
    {
        auto page = store.read(addr.page());
        if (page.empty())
            return std::nullopt;
        return findSection(page, addr.section(), featureDim);
    }

  private:
    const flash::PageStore &store;
    std::uint16_t featureDim;
};

/** Section source over builder metadata (no page bytes needed). */
class LayoutSource : public SectionSource
{
  public:
    LayoutSource(const DirectGraphLayout &layout_,
                 const graph::Graph &graph_)
        : layout(layout_), g(graph_)
    {
    }

    std::optional<SectionData>
    fetch(DgAddress addr) const override
    {
        const SectionPlacement *sp = layout.find(addr);
        if (!sp)
            return std::nullopt;
        const auto [first, count] = layout.edgeRange(*sp);
        SectionData s;
        s.type = sp->type;
        s.node = sp->node;
        if (sp->type == SectionType::Primary) {
            s.totalNeighbors = g.degree(sp->node);
            s.hasFeature = layout.featureDim > 0;
            s.inPage = count;
            s.secondaries = layout.secondariesOf(sp->node);
        } else {
            s.totalNeighbors = count;
        }
        s.viewLayout(g, g.firstEdge(sp->node) + first, count,
                     layout.nodes.data());
        return s;
    }

  private:
    const DirectGraphLayout &layout;
    const graph::Graph &g;
};

} // namespace beacongnn::dg

#endif // BEACONGNN_DIRECTGRAPH_SOURCE_H
