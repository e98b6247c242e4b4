#include "directgraph/builder.h"

#include <algorithm>
#include <limits>

#include "sim/log.h"

namespace beacongnn::dg {

namespace {

/** Largest section a page of @p page_size bytes can hold: the whole
 *  page, but never more than the 16-bit sectionBytes field encodes. */
std::uint32_t
sectionLimit(std::uint32_t page_size)
{
    return std::min(page_size, kMaxSectionBytes);
}

/**
 * Decide how a node's neighbours split between its primary section
 * and secondary sections (Algorithm 1, step 1). Nodes whose full
 * record fits in one section keep everything in the primary;
 * otherwise the primary fills a whole section and the remainder
 * spills into secondaries, each appended to @p secondaries with its
 * count and an address the packer fills in later.
 *
 * @return Neighbours kept in the primary section.
 */
std::uint32_t
planNode(std::uint32_t degree, std::uint32_t feat_bytes,
         std::uint32_t page_size, std::vector<SecondaryRef> &secondaries)
{
    const std::uint32_t limit = sectionLimit(page_size);
    if (primarySectionBytes(0, feat_bytes, degree) <= limit)
        return degree;
    const std::uint32_t sec_cap = (limit - kHeaderBytes) / kAddrBytes;
    // Fixed-point iteration: more secondaries shrink the primary's
    // in-page capacity (each ref costs 8 B), which may require yet
    // another secondary. Converges in a couple of steps.
    std::uint32_t in_page = 0;
    for (std::uint32_t s = 1;;) {
        std::uint32_t meta = kHeaderBytes + s * kSecondaryRefBytes +
                             feat_bytes;
        in_page = meta >= limit ? 0 : (limit - meta) / kAddrBytes;
        in_page = std::min(in_page, degree);
        std::uint32_t need = (degree - in_page + sec_cap - 1) / sec_cap;
        if (need <= s)
            break;
        s = need;
    }
    for (std::uint32_t spill = degree - in_page; spill > 0;) {
        std::uint32_t c = std::min(spill, sec_cap);
        secondaries.push_back({DgAddress{}, c});
        spill -= c;
    }
    return in_page;
}

/** Section placements in placement order, keyed by their page. */
using Placements = std::vector<std::pair<flash::Ppa, SectionPlacement>>;

/** An open page being filled by the best-fit packer. */
struct OpenPage
{
    flash::Ppa ppa;
    std::uint32_t used = 0;     ///< Aligned high-water mark.
    std::uint32_t sections = 0;
};

/**
 * Best-fit section packer over a bounded pool of open pages, drawing
 * fresh pages sequentially from the reserved block list.
 */
class Packer
{
  public:
    Packer(DirectGraphLayout &layout_,
           std::span<const flash::BlockId> blocks_,
           const flash::FlashConfig &cfg_, const BuilderOptions &opts)
        : layout(layout_), blocks(blocks_), cfg(cfg_),
          poolLimit(std::max(1u, opts.openPagePool))
    {
        // Pages stripe round-robin across a window of reserved blocks
        // so even a scaled-down dataset exercises every channel and
        // die, the way the paper's 100s-of-GB datasets do naturally.
        stripe = opts.stripeWidth != 0
                     ? opts.stripeWidth
                     : std::max<std::uint64_t>(1, cfg.totalDies());
        stripe = std::min<std::uint64_t>(stripe, blocks.size());
        stripe = std::max<std::uint64_t>(1, stripe);
    }

    /**
     * Place a section of @p size unpadded bytes.
     * @return Its DgAddress; records the placement in the layout.
     */
    DgAddress
    place(graph::NodeId node, SectionType type, std::uint32_t size,
          std::uint32_t secondary_idx)
    {
        if (size > sectionLimit(cfg.pageSize))
            sim::panic("DirectGraph section larger than a flash page");
        // Best fit: the open page with the least leftover that still
        // accommodates the section.
        int best = -1;
        std::uint32_t best_left = std::numeric_limits<std::uint32_t>::max();
        for (std::size_t i = 0; i < pool.size(); ++i) {
            const auto &p = pool[i];
            if (p.sections >= kMaxSectionsPerPage)
                continue;
            std::uint32_t start = alignSection(p.used);
            if (start + size > cfg.pageSize)
                continue;
            std::uint32_t left = cfg.pageSize - (start + size);
            if (left < best_left) {
                best_left = left;
                best = static_cast<int>(i);
            }
        }
        if (best < 0) {
            if (pool.size() >= poolLimit) {
                // Retire the fullest page to bound the pool.
                std::size_t fullest = 0;
                for (std::size_t i = 1; i < pool.size(); ++i)
                    if (pool[i].used > pool[fullest].used)
                        fullest = i;
                pool.erase(pool.begin() +
                           static_cast<std::ptrdiff_t>(fullest));
            }
            pool.push_back(OpenPage{nextPage(), 0, 0});
            best = static_cast<int>(pool.size() - 1);
        }
        OpenPage &p = pool[static_cast<std::size_t>(best)];
        std::uint32_t offset = alignSection(p.used);
        DgAddress addr(p.ppa, p.sections);
        placed.push_back(
            {p.ppa, SectionPlacement{node, type, offset, size,
                                     secondary_idx}});
        p.used = offset + size;
        ++p.sections;
        layout.stats.usedBytes += size;
        return addr;
    }

    /** Retire every open page: later sections start a new stream. */
    void closePages() { pool.clear(); }

    Placements placed; ///< Every placement, in placement order.
    std::uint64_t pagesUsed = 0;
    std::uint64_t blocksTouched = 0;

  private:
    flash::Ppa
    nextPage()
    {
        std::uint64_t idx = pagesUsed++;
        std::uint64_t per_group = stripe * cfg.pagesPerBlock;
        std::uint64_t group = idx / per_group;
        std::uint64_t within = idx % per_group;
        std::uint64_t block_slot = group * stripe + within % stripe;
        std::uint64_t page_in_block = within / stripe;
        if (block_slot >= blocks.size())
            sim::fatal("DirectGraph build: reserved block list exhausted");
        flash::BlockId b = blocks[block_slot];
        blocksTouched = std::max(blocksTouched, block_slot + 1);
        return b * cfg.pagesPerBlock +
               static_cast<flash::Ppa>(page_in_block);
    }

    DirectGraphLayout &layout;
    std::span<const flash::BlockId> blocks;
    const flash::FlashConfig &cfg;
    unsigned poolLimit;
    std::uint64_t stripe = 1;
    std::vector<OpenPage> pool;
};

} // namespace

DirectGraphLayout
buildLayout(const graph::Graph &g, const graph::FeatureTable &features,
            const flash::FlashConfig &cfg,
            std::span<const flash::BlockId> blocks,
            const BuilderOptions &opts)
{
    DirectGraphLayout layout;
    layout.featureDim = features.dim();
    layout.pageSize = cfg.pageSize;
    const std::uint32_t feat_bytes = features.bytesPerNode();

    if (kHeaderBytes + feat_bytes > sectionLimit(cfg.pageSize))
        sim::fatal("feature vector does not fit in a flash page");

    const graph::NodeId n = g.numNodes();
    layout.nodes.resize(n);

    // ---- Step 1: plan sections per node -------------------------
    for (graph::NodeId v = 0; v < n; ++v) {
        NodeLayout &nl = layout.nodes[v];
        nl.firstSecondary =
            static_cast<std::uint32_t>(layout.secondaries.size());
        nl.inPage = planNode(g.degree(v), feat_bytes, cfg.pageSize,
                             layout.secondaries);
    }

    // ---- Step 1b: map sections to physical pages ----------------
    // Primary and secondary pages are packed as separate streams
    // (the two page types of Fig. 8) drawn from one page sequence.
    Packer packer(layout, blocks, cfg, opts);
    packer.placed.reserve(n + layout.secondaries.size());
    for (graph::NodeId v = 0; v < n; ++v) {
        NodeLayout &nl = layout.nodes[v];
        std::uint32_t size = primarySectionBytes(
            static_cast<std::uint32_t>(layout.secondariesOf(v).size()),
            feat_bytes, nl.inPage);
        nl.primary = packer.place(v, SectionType::Primary, size, 0);
    }
    layout.stats.primaryPages = packer.pagesUsed;

    packer.closePages();
    for (graph::NodeId v = 0; v < n; ++v) {
        const std::uint32_t first = layout.nodes[v].firstSecondary;
        const std::span<const SecondaryRef> secs = layout.secondariesOf(v);
        layout.stats.nodesWithSecondaries += !secs.empty();
        for (std::uint32_t j = 0; j < secs.size(); ++j)
            layout.secondaries[first + j].addr =
                packer.place(v, SectionType::Secondary,
                             secondarySectionBytes(secs[j].count), j);
    }
    layout.stats.secondaryPages =
        packer.pagesUsed - layout.stats.primaryPages;
    layout.pages = PageDirectory(packer.placed);

    // ---- Accounting (Table IV) -----------------------------------
    const auto touched = blocks.first(packer.blocksTouched);
    layout.blocks.assign(touched.begin(), touched.end());
    layout.stats.flashBytes = packer.pagesUsed * cfg.pageSize;
    layout.stats.blockBytes = packer.blocksTouched *
                              std::uint64_t{cfg.pagesPerBlock} *
                              cfg.pageSize;
    layout.stats.rawBytes =
        g.numEdges() * 4 + std::uint64_t{n} * feat_bytes;
    return layout;
}

void
encodePageImage(const DirectGraphLayout &layout, const graph::Graph &g,
                const graph::FeatureTable &features, flash::Ppa ppa,
                std::span<std::uint8_t> buf)
{
    std::fill(buf.begin(), buf.end(), std::uint8_t{0});
    std::vector<std::uint8_t> feat(features.bytesPerNode());
    std::vector<DgAddress> addrs;
    for (const auto &sp : layout.pages.sectionsOf(ppa)) {
        const auto [first, count] = layout.edgeRange(sp);
        addrs.clear();
        for (std::uint32_t i = 0; i < count; ++i)
            addrs.push_back(
                layout.primaryOf(g.neighbor(sp.node, first + i)));
        std::span<std::uint8_t> out =
            buf.subspan(sp.byteOffset, sp.byteSize);
        if (sp.type == SectionType::Primary) {
            features.fill(sp.node, feat);
            encodePrimary(out, sp.node, g.degree(sp.node),
                          layout.secondariesOf(sp.node), feat, addrs);
        } else {
            encodeSecondary(out, sp.node, addrs);
        }
    }
}

void
materialize(const DirectGraphLayout &layout, const graph::Graph &g,
            const graph::FeatureTable &features, flash::PageStore &store)
{
    std::vector<std::uint8_t> buf(layout.pageSize);
    // The directory walks pages in Ppa order, the programming order
    // PageStore's program counters observe.
    for (const auto &page : layout.pages) {
        encodePageImage(layout, g, features, page.ppa, buf);
        if (!store.program(page.ppa, buf))
            sim::panic("materialize: page already programmed");
    }
}

} // namespace beacongnn::dg
