/**
 * @file
 * DirectGraph layout structures: the logical description of where
 * every node's primary and secondary sections live on flash, plus the
 * flat page directory that resolves (page, section) back to a node.
 * The layout is the builder's output; it can be *materialized* into
 * real page bytes (tests, small graphs) or used directly as a
 * metadata-only section source (large timing runs) — both paths are
 * checked for equivalence in the test suite.
 */

#ifndef BEACONGNN_DIRECTGRAPH_LAYOUT_H
#define BEACONGNN_DIRECTGRAPH_LAYOUT_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "directgraph/address.h"
#include "graph/graph.h"

namespace beacongnn::dg {

/** Section type tag (first header byte on flash). */
enum class SectionType : std::uint8_t
{
    Invalid = 0,   ///< Erased / end-of-page marker.
    Primary = 1,
    Secondary = 2,
};

/** Reference from a primary section to one of its secondaries. */
struct SecondaryRef
{
    DgAddress addr;      ///< Where the secondary section lives.
    std::uint32_t count; ///< Neighbours stored in that section.
};

/** Layout of one node's data across sections. */
struct NodeLayout
{
    DgAddress primary;        ///< Address of the primary section.
    std::uint32_t inPage = 0; ///< Neighbours stored inside the primary.
    /** Its first ref in DirectGraphLayout::secondaries; 32 bits hold
     *  any index, as every secondary has its own 32-bit DgAddress. */
    std::uint32_t firstSecondary = 0;
};
static_assert(sizeof(NodeLayout) == 12);

/** One section's placement inside a page. */
struct SectionPlacement
{
    graph::NodeId node = 0;
    SectionType type = SectionType::Invalid;
    std::uint32_t byteOffset = 0;
    std::uint32_t byteSize = 0;   ///< Unpadded size.
    /** For secondaries: index of this secondary in the node's list. */
    std::uint32_t secondaryIdx = 0;
};

/** A run of one node's neighbour list: indices [first, first + count). */
struct EdgeRange
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;
};

/**
 * Flat directory of the sections on every DirectGraph page: one
 * Ppa-ordered array of placements plus a dense index over the page
 * range the layout spans, so resolving (page, section) takes two
 * array reads and no hashing. The index costs 4 B per page between
 * the lowest and highest used page; Ftl::reserveBlocks hands blocks
 * out from the bottom, so that range stays close to the pages used.
 */
class PageDirectory
{
  public:
    /** One used page with its sections in section-index order. */
    struct Page
    {
        flash::Ppa ppa;
        std::span<const SectionPlacement> sections;
    };

    /** Forward iterator over the used pages in Ppa order. */
    class Iterator
    {
      public:
        Page operator*() const { return dir->pageAt(at); }
        Iterator &
        operator++()
        {
            at = dir->nextUsed(at + 1);
            return *this;
        }
        bool operator==(const Iterator &o) const { return at == o.at; }

      private:
        friend class PageDirectory;
        Iterator(const PageDirectory *d, std::size_t i) : dir(d), at(i) {}
        const PageDirectory *dir;
        std::size_t at;
    };

    PageDirectory() = default;

    /**
     * Build from (page, placement) pairs in any page order; the
     * placements of one page must come in section-index order. A
     * counting sort by page keeps that order.
     */
    explicit PageDirectory(
        const std::vector<std::pair<flash::Ppa, SectionPlacement>> &placed)
    {
        if (placed.empty())
            return;
        auto [lo, hi] = std::minmax_element(
            placed.begin(), placed.end(),
            [](const auto &a, const auto &b) { return a.first < b.first; });
        base = lo->first;
        first.assign(std::size_t{hi->first} - base + 2, 0);
        for (const auto &entry : placed)
            ++first[entry.first - base + 1];
        for (std::size_t i = 1; i < first.size(); ++i) {
            used += first[i] != 0;
            first[i] += first[i - 1];
        }
        std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
        placements.resize(placed.size());
        for (const auto &[ppa, sp] : placed)
            placements[next[ppa - base]++] = sp;
    }

    /** Sections stored on @p ppa; empty if it holds none. */
    std::span<const SectionPlacement>
    sectionsOf(flash::Ppa ppa) const
    {
        std::size_t i = std::size_t{ppa} - base;
        if (ppa < base || i + 1 >= first.size())
            return {};
        return {placements.data() + first[i], first[i + 1] - first[i]};
    }

    /** Resolve (page, section) to its placement; nullptr if absent. */
    const SectionPlacement *
    find(DgAddress a) const
    {
        std::span<const SectionPlacement> secs = sectionsOf(a.page());
        return a.section() < secs.size() ? &secs[a.section()] : nullptr;
    }

    /** Pages holding at least one section. */
    std::size_t size() const { return used; }
    bool empty() const { return used == 0; }

    Iterator begin() const { return {this, nextUsed(0)}; }
    Iterator end() const { return {this, pageRange()}; }

  private:
    /** Pages the index covers. */
    std::size_t pageRange() const
    {
        return first.empty() ? 0 : first.size() - 1;
    }

    Page
    pageAt(std::size_t i) const
    {
        return {static_cast<flash::Ppa>(base + i),
                {placements.data() + first[i], first[i + 1] - first[i]}};
    }

    /** First used page at or after index @p i (pageRange() if none). */
    std::size_t
    nextUsed(std::size_t i) const
    {
        while (i < pageRange() && first[i] == first[i + 1])
            ++i;
        return i;
    }

    flash::Ppa base = 0;
    /** Page base + i holds placements [first[i], first[i + 1]). */
    std::vector<std::uint32_t> first;
    std::vector<SectionPlacement> placements;
    std::size_t used = 0;
};

/** Aggregate construction statistics (Table IV). */
struct BuildStats
{
    std::uint64_t rawBytes = 0;       ///< CSR + feature-table volume.
    std::uint64_t primaryPages = 0;
    std::uint64_t secondaryPages = 0;
    std::uint64_t usedBytes = 0;      ///< Sum of unpadded section bytes.
    std::uint64_t flashBytes = 0;     ///< Pages * pageSize actually used.
    std::uint64_t blockBytes = 0;     ///< Whole allocated blocks.
    std::uint64_t nodesWithSecondaries = 0;

    /** Table IV inflation: extra flash over raw data, page-granular. */
    double
    inflatePct() const
    {
        return rawBytes == 0
                   ? 0.0
                   : 100.0 *
                         (static_cast<double>(flashBytes) -
                          static_cast<double>(rawBytes)) /
                         static_cast<double>(rawBytes);
    }
};

/** The complete DirectGraph layout of a dataset. */
struct DirectGraphLayout
{
    std::vector<NodeLayout> nodes;  ///< Indexed by NodeId.
    std::vector<SecondaryRef> secondaries; ///< All nodes', in node order.
    PageDirectory pages;
    std::vector<flash::BlockId> blocks; ///< Reserved blocks consumed.
    std::uint16_t featureDim = 0;
    std::uint32_t pageSize = 0;
    BuildStats stats;

    /** Primary-section address of @p v (host-provided for targets). */
    DgAddress primaryOf(graph::NodeId v) const { return nodes[v].primary; }

    /** Secondary refs of @p v, in neighbour-list order. */
    std::span<const SecondaryRef>
    secondariesOf(graph::NodeId v) const
    {
        const std::size_t first = nodes[v].firstSecondary;
        const std::size_t end = std::size_t{v} + 1 < nodes.size()
                                    ? nodes[v + 1].firstSecondary
                                    : secondaries.size();
        return {secondaries.data() + first, end - first};
    }

    /** The neighbour-list indices @p sp stores: a secondary's follow
     *  the primary's inPage and all earlier secondaries'. */
    EdgeRange
    edgeRange(const SectionPlacement &sp) const
    {
        const std::uint32_t in_page = nodes[sp.node].inPage;
        if (sp.type == SectionType::Primary)
            return {0, in_page};
        std::span<const SecondaryRef> secs = secondariesOf(sp.node);
        std::uint32_t first = in_page;
        for (std::uint32_t j = 0; j < sp.secondaryIdx; ++j)
            first += secs[j].count;
        return {first, secs[sp.secondaryIdx].count};
    }

    /** Resolve (page, section) to its placement; nullptr if absent. */
    const SectionPlacement *find(DgAddress a) const { return pages.find(a); }
};

} // namespace beacongnn::dg

#endif // BEACONGNN_DIRECTGRAPH_LAYOUT_H
