/**
 * @file
 * On-flash byte format of DirectGraph sections (§IV-A, Fig. 8).
 *
 * Section binary layout (little endian):
 *
 *   offset  size  field
 *   0       1     type (1 = primary, 2 = secondary, 0 = end of page)
 *   1       1     flags (bit 0: feature vector present)
 *   2       2     sectionBytes (total unpadded size of this section)
 *   4       4     nodeId
 *   8       4     totalNeighbors (primary: full degree;
 *                                  secondary: count in this section)
 *   12      2     secondaryCount (primary only)
 *   14      2     reserved
 *   -- 16-byte header --
 *   primary body:
 *     secondaryCount x { u32 DgAddress, u32 count }   (8 B each)
 *     featureBytes of FP16 feature data (if flag set)
 *     inPage x u32 neighbour primary DgAddress        (4 B each)
 *   secondary body:
 *     totalNeighbors x u32 neighbour primary DgAddress
 *
 * Sections start at 64-byte aligned offsets within a page (ONFI
 * column-address granularity); at most 16 sections per page (4-bit
 * section index) and at most kMaxSectionBytes per section (16-bit
 * sectionBytes), whatever the page size.
 */

#ifndef BEACONGNN_DIRECTGRAPH_CODEC_H
#define BEACONGNN_DIRECTGRAPH_CODEC_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "directgraph/layout.h"

namespace beacongnn::dg {

/** Format constants. */
inline constexpr std::uint32_t kHeaderBytes = 16;
inline constexpr std::uint32_t kSecondaryRefBytes = 8;
inline constexpr std::uint32_t kAddrBytes = 4;
inline constexpr std::uint32_t kSectionAlign = 64;

/** Round @p bytes up to the section alignment. */
constexpr std::uint32_t
alignSection(std::uint32_t bytes)
{
    return (bytes + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/** Unpadded size of a primary section. */
constexpr std::uint32_t
primarySectionBytes(std::uint32_t secondary_count, std::uint32_t feat_bytes,
                    std::uint32_t in_page_neighbors)
{
    return kHeaderBytes + secondary_count * kSecondaryRefBytes + feat_bytes +
           in_page_neighbors * kAddrBytes;
}

/** Unpadded size of a secondary section holding @p count neighbours. */
constexpr std::uint32_t
secondarySectionBytes(std::uint32_t count)
{
    return kHeaderBytes + count * kAddrBytes;
}

/** Largest encodable section: the header's sectionBytes is 16 bits. */
inline constexpr std::uint32_t kMaxSectionBytes = 0xFFFF;

/** Read a little-endian u32 at @p p. */
inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

/**
 * Non-owning view of a primary section's secondary refs: either the
 * layout's in-memory list or the encoded list inside a page image.
 * Indexing decodes one ref; @p j must be below size().
 */
class SecondaryRefs
{
  public:
    SecondaryRefs() = default;
    SecondaryRefs(std::span<const SecondaryRef> refs)
        : mem(refs.data()), n(static_cast<std::uint32_t>(refs.size()))
    {
    }

    /** @p count refs encoded back to back at @p bytes. */
    static SecondaryRefs
    encoded(const std::uint8_t *bytes, std::uint32_t count)
    {
        SecondaryRefs r;
        r.enc = bytes;
        r.n = count;
        return r;
    }

    std::uint32_t size() const { return n; }

    SecondaryRef
    operator[](std::uint32_t j) const
    {
        if (mem)
            return mem[j];
        const std::uint8_t *p = enc + std::size_t{j} * kSecondaryRefBytes;
        return {DgAddress(loadLe32(p)), loadLe32(p + 4)};
    }

  private:
    const SecondaryRef *mem = nullptr;
    const std::uint8_t *enc = nullptr;
    std::uint32_t n = 0;
};

/**
 * One section as the on-die section iterator sees it: the header
 * fields, plus a non-owning view of the stored neighbour addresses
 * and secondary refs that resolves an entry only when asked for it.
 *
 * Both sources build this view without copying any list. A byte view
 * points into the page image, which decodeSection() has already
 * bounds-checked; a layout view names a run of the owner's edges in
 * the graph and maps each endpoint to its primary address through the
 * layout's node table. A view borrows that storage: use it before the
 * page is reprogrammed or the graph or layout is destroyed.
 */
struct SectionData
{
    SectionType type = SectionType::Invalid;
    graph::NodeId node = 0;
    std::uint32_t totalNeighbors = 0; ///< See header doc.
    bool hasFeature = false;
    std::uint32_t inPage = 0;         ///< Primary only.
    SecondaryRefs secondaries;        ///< Primary only.

    /** Neighbour addresses stored in this section: the in-page ones
     *  of a primary, all of a secondary's. */
    std::uint32_t neighborCount() const { return stored; }

    /** Stored neighbour @p i (< neighborCount()), resolved now. */
    DgAddress
    neighborAt(std::uint32_t i) const
    {
        if (addrBytes)
            return DgAddress(
                loadLe32(addrBytes + std::size_t{i} * kAddrBytes));
        return nodeTable[layoutGraph->edgeTarget(firstEdge + i)].primary;
    }

    /** Back the view with @p count encoded addresses at @p bytes. */
    void
    viewEncoded(const std::uint8_t *bytes, std::uint32_t count)
    {
        addrBytes = bytes;
        stored = count;
    }

    /** Back the view with @p count edges of @p g from edge index
     *  @p first_edge on, each endpoint resolved to the primary address
     *  @p node_table holds for it. */
    void
    viewLayout(const graph::Graph &g, std::uint64_t first_edge,
               std::uint32_t count, const NodeLayout *node_table)
    {
        layoutGraph = &g;
        firstEdge = first_edge;
        nodeTable = node_table;
        stored = count;
    }

  private:
    const std::uint8_t *addrBytes = nullptr;
    const graph::Graph *layoutGraph = nullptr;
    std::uint64_t firstEdge = 0;
    const NodeLayout *nodeTable = nullptr;
    std::uint32_t stored = 0;
};

/**
 * Encode a primary section into @p out (must hold the full size).
 *
 * @param node        Owning node.
 * @param degree      Full neighbour count of the node.
 * @param secondaries Secondary refs (addr + count).
 * @param feature     FP16 feature bytes (may be empty).
 * @param in_page     Addresses of the neighbours stored here.
 * @return Bytes written.
 */
std::uint32_t encodePrimary(std::span<std::uint8_t> out,
                            graph::NodeId node, std::uint32_t degree,
                            std::span<const SecondaryRef> secondaries,
                            std::span<const std::uint8_t> feature,
                            std::span<const DgAddress> in_page);

/** Encode a secondary section into @p out. @return Bytes written. */
std::uint32_t encodeSecondary(std::span<std::uint8_t> out,
                              graph::NodeId node,
                              std::span<const DgAddress> neighbors);

/**
 * Decode the section at byte @p offset of a page image.
 *
 * @param page         Full page bytes.
 * @param offset       Aligned section start.
 * @param feature_dim  Feature elements (from the GNN config registers;
 *                     needed to split a primary body into feature and
 *                     neighbour regions).
 * @return Section view, or nullopt if the bytes are not a valid
 *         section (type tag 0/unknown, size out of range) — the
 *         condition on which an on-die sampler aborts (§VI-E). Every
 *         size bound is checked here, so each neighbour and secondary
 *         ref the view resolves later lies inside the section.
 */
std::optional<SectionData> decodeSection(
    std::span<const std::uint8_t> page, std::uint32_t offset,
    std::uint16_t feature_dim);

/**
 * Walk a page image and decode the section with index @p section_idx
 * (sections are stored back-to-back at aligned offsets — this is the
 * operation the die sampler's section iterator performs).
 */
std::optional<SectionData> findSection(std::span<const std::uint8_t> page,
                                       unsigned section_idx,
                                       std::uint16_t feature_dim);

/** Decode every section in a page image (scrubbing, verification). */
std::vector<SectionData> decodePage(std::span<const std::uint8_t> page,
                                    std::uint16_t feature_dim);

} // namespace beacongnn::dg

#endif // BEACONGNN_DIRECTGRAPH_CODEC_H
