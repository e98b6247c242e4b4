/**
 * @file
 * DirectGraph tests: address packing, section codec round trips, the
 * Algorithm-1 builder's invariants, byte/layout source equivalence,
 * the flat page directory, memory safety of lazy section views over
 * corrupted pages, and the §VI-E security verifier.
 */

#include <gtest/gtest.h>

#include "directgraph/builder.h"
#include "directgraph/source.h"
#include "directgraph/verify.h"
#include "engines/die_sampler.h"
#include "graph/generator.h"
#include "sim/rng.h"
#include "ssd/ftl.h"

namespace {

using namespace beacongnn;
using namespace beacongnn::dg;

flash::FlashConfig
smallFlash()
{
    flash::FlashConfig cfg;
    cfg.channels = 4;
    cfg.diesPerChannel = 2;
    cfg.planesPerDie = 2;
    cfg.blocksPerPlane = 64;
    cfg.pagesPerBlock = 32;
    cfg.pageSize = 4096;
    return cfg;
}

std::vector<flash::BlockId>
reserve(const flash::FlashConfig &cfg, std::uint64_t n)
{
    ssd::Ftl ftl(cfg);
    return ftl.reserveBlocks(n);
}

TEST(DgAddress, PackUnpack)
{
    DgAddress a(0x0ABCDEF, 9);
    EXPECT_EQ(a.page(), 0x0ABCDEFu);
    EXPECT_EQ(a.section(), 9u);
    EXPECT_EQ(a.raw, (0x0ABCDEFu << 4) | 9u);
    DgAddress b(a.raw);
    EXPECT_EQ(a, b);
    // 28-bit page index (1 TB / 4 KB).
    DgAddress top((1u << 28) - 1, 15);
    EXPECT_EQ(top.page(), (1u << 28) - 1);
    EXPECT_EQ(top.section(), 15u);
}

TEST(Codec, SectionSizeFormulas)
{
    EXPECT_EQ(primarySectionBytes(0, 0, 0), kHeaderBytes);
    EXPECT_EQ(primarySectionBytes(2, 100, 5),
              kHeaderBytes + 16 + 100 + 20);
    EXPECT_EQ(secondarySectionBytes(10), kHeaderBytes + 40);
    EXPECT_EQ(alignSection(1), kSectionAlign);
    EXPECT_EQ(alignSection(64), 64u);
    EXPECT_EQ(alignSection(65), 128u);
}

TEST(Codec, PrimaryRoundTrip)
{
    std::vector<std::uint8_t> page(4096, 0);
    std::vector<SecondaryRef> secs = {{DgAddress(100, 1), 50},
                                      {DgAddress(200, 2), 30}};
    std::vector<std::uint8_t> feat(64);
    for (std::size_t i = 0; i < feat.size(); ++i)
        feat[i] = static_cast<std::uint8_t>(i * 3);
    std::vector<DgAddress> in_page = {DgAddress(7, 0), DgAddress(8, 3),
                                      DgAddress(9, 15)};
    std::uint32_t written =
        encodePrimary(page, 424242, 83, secs, feat, in_page);
    EXPECT_EQ(written, primarySectionBytes(2, 64, 3));

    auto dec = decodeSection(page, 0, 32); // 32 FP16 elems = 64 B.
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->type, SectionType::Primary);
    EXPECT_EQ(dec->node, 424242u);
    EXPECT_EQ(dec->totalNeighbors, 83u);
    EXPECT_TRUE(dec->hasFeature);
    ASSERT_EQ(dec->secondaries.size(), 2u);
    EXPECT_EQ(dec->secondaries[0].addr, DgAddress(100, 1));
    EXPECT_EQ(dec->secondaries[0].count, 50u);
    EXPECT_EQ(dec->secondaries[1].count, 30u);
    EXPECT_EQ(dec->inPage, 3u);
    ASSERT_EQ(dec->neighborCount(), 3u);
    EXPECT_EQ(dec->neighborAt(0), DgAddress(7, 0));
    EXPECT_EQ(dec->neighborAt(2), DgAddress(9, 15));
}

TEST(Codec, SecondaryRoundTrip)
{
    std::vector<std::uint8_t> page(4096, 0);
    std::vector<DgAddress> nbrs;
    for (std::uint32_t i = 0; i < 20; ++i)
        nbrs.emplace_back(i * 17, i % 16);
    std::uint32_t written = encodeSecondary(page, 777, nbrs);
    EXPECT_EQ(written, secondarySectionBytes(20));
    auto dec = decodeSection(page, 0, 128);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->type, SectionType::Secondary);
    EXPECT_EQ(dec->node, 777u);
    EXPECT_EQ(dec->totalNeighbors, 20u);
    ASSERT_EQ(dec->neighborCount(), 20u);
    EXPECT_EQ(dec->neighborAt(19), DgAddress(19 * 17, 3));
}

TEST(Codec, MultipleSectionsPerPage)
{
    std::vector<std::uint8_t> page(4096, 0);
    std::vector<DgAddress> n1 = {DgAddress(1, 0)};
    std::vector<DgAddress> n2 = {DgAddress(2, 0), DgAddress(3, 0)};
    encodeSecondary(std::span(page).subspan(0), 10, n1);
    std::uint32_t off = alignSection(secondarySectionBytes(1));
    encodeSecondary(std::span(page).subspan(off), 11, n2);

    auto s0 = findSection(page, 0, 0);
    auto s1 = findSection(page, 1, 0);
    ASSERT_TRUE(s0 && s1);
    EXPECT_EQ(s0->node, 10u);
    EXPECT_EQ(s1->node, 11u);
    EXPECT_EQ(s1->totalNeighbors, 2u);
    EXPECT_FALSE(findSection(page, 2, 0).has_value());
    EXPECT_EQ(decodePage(page, 0).size(), 2u);
}

TEST(Codec, RejectsGarbage)
{
    std::vector<std::uint8_t> page(4096, 0xEE); // Invalid type byte.
    EXPECT_FALSE(decodeSection(page, 0, 10).has_value());
    std::vector<std::uint8_t> erased(4096, 0);
    EXPECT_FALSE(decodeSection(erased, 0, 10).has_value());
    EXPECT_TRUE(decodePage(erased, 10).empty());
}

class BuilderTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BuilderTest, InvariantsHoldForVariousPageSizes)
{
    flash::FlashConfig cfg = smallFlash();
    cfg.pageSize = GetParam();
    graph::GeneratorParams gp;
    gp.nodes = 600;
    gp.avgDegree = 40;
    gp.maxDegree = 3000;
    gp.seed = GetParam();
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable feat(32, 5);

    auto blocks = reserve(cfg, 400);
    ASSERT_FALSE(blocks.empty());
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    EXPECT_EQ(checkLayoutInvariants(layout), "");
    EXPECT_EQ(layout.nodes.size(), g.numNodes());
    EXPECT_GT(layout.stats.primaryPages, 0u);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, BuilderTest,
                         ::testing::Values(2048u, 4096u, 8192u, 16384u));

TEST(Builder, HighDegreeNodesSpill)
{
    flash::FlashConfig cfg = smallFlash();
    // Node 0 has degree far exceeding one page.
    std::vector<std::vector<graph::NodeId>> adj(50);
    for (graph::NodeId i = 0; i < 4000; ++i)
        adj[0].push_back(1 + (i % 49));
    for (graph::NodeId v = 1; v < 50; ++v)
        adj[v] = {0, static_cast<graph::NodeId>((v + 1) % 50)};
    graph::Graph g(adj);
    graph::FeatureTable feat(64, 1);
    auto blocks = reserve(cfg, 64);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    EXPECT_EQ(checkLayoutInvariants(layout), "");
    const NodeLayout &nl = layout.nodes[0];
    EXPECT_GT(nl.secondaries.size(), 0u);
    std::uint32_t covered = nl.inPage;
    for (const auto &s : nl.secondaries)
        covered += s.count;
    EXPECT_EQ(covered, 4000u);
    EXPECT_GT(layout.stats.secondaryPages, 0u);
    EXPECT_EQ(layout.stats.nodesWithSecondaries, 1u);
}

TEST(Builder, CompactionPacksSmallSections)
{
    flash::FlashConfig cfg = smallFlash();
    // 64 low-degree nodes: sections must share pages.
    graph::Graph g = graph::generateRing(64, 4);
    graph::FeatureTable feat(16, 2);
    auto blocks = reserve(cfg, 16);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    EXPECT_EQ(checkLayoutInvariants(layout), "");
    // Way fewer pages than nodes.
    EXPECT_LT(layout.stats.primaryPages, 16u);
    // And no page exceeds the 4-bit section cap.
    for (const auto &[ppa, sections] : layout.pages)
        EXPECT_LE(sections.size(), kMaxSectionsPerPage);
}

/** Header fields and every accessor of two section views agree. */
void
expectSameSection(const SectionData &a, const SectionData &b)
{
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.totalNeighbors, b.totalNeighbors);
    EXPECT_EQ(a.hasFeature, b.hasFeature);
    EXPECT_EQ(a.inPage, b.inPage);
    ASSERT_EQ(a.secondaries.size(), b.secondaries.size());
    for (std::uint32_t j = 0; j < a.secondaries.size(); ++j) {
        EXPECT_EQ(a.secondaries[j].addr, b.secondaries[j].addr);
        EXPECT_EQ(a.secondaries[j].count, b.secondaries[j].count);
    }
    ASSERT_EQ(a.neighborCount(), b.neighborCount());
    for (std::uint32_t i = 0; i < a.neighborCount(); ++i)
        ASSERT_EQ(a.neighborAt(i), b.neighborAt(i)) << "neighbour " << i;
}

/** PageByteSource over the materialized @p store and LayoutSource
 *  return the same view for every primary and secondary section. */
void
expectSourcesAgree(const DirectGraphLayout &layout, const graph::Graph &g,
                   const flash::PageStore &store, std::uint16_t feature_dim)
{
    PageByteSource bytes(store, feature_dim);
    LayoutSource meta(layout, g);
    for (graph::NodeId v = 0; v < g.numNodes(); ++v) {
        SCOPED_TRACE(v);
        auto a = bytes.fetch(layout.nodes[v].primary);
        auto b = meta.fetch(layout.nodes[v].primary);
        ASSERT_TRUE(a && b);
        EXPECT_EQ(a->node, v);
        std::uint32_t covered = a->inPage;
        for (std::uint32_t j = 0; j < a->secondaries.size(); ++j)
            covered += a->secondaries[j].count;
        EXPECT_EQ(covered, g.degree(v));
        expectSameSection(*a, *b);
        for (const auto &r : layout.nodes[v].secondaries) {
            auto sa = bytes.fetch(r.addr);
            auto sb = meta.fetch(r.addr);
            ASSERT_TRUE(sa && sb);
            EXPECT_EQ(sa->node, v);
            EXPECT_EQ(sa->type, SectionType::Secondary);
            expectSameSection(*sa, *sb);
        }
    }
}

TEST(Builder, MaterializeAndSourcesAgree)
{
    flash::FlashConfig cfg = smallFlash();
    graph::GeneratorParams gp;
    gp.nodes = 400;
    gp.avgDegree = 60;
    gp.maxDegree = 2500;
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable feat(32, 5);
    auto blocks = reserve(cfg, 300);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    ASSERT_EQ(checkLayoutInvariants(layout), "");

    flash::PageStore store(cfg);
    materialize(layout, g, feat, store);
    EXPECT_EQ(store.programmedPages(), layout.pages.size());

    expectSourcesAgree(layout, g, store, feat.dim());
}

TEST(Builder, SectionsStayEncodableOnLargePages)
{
    // sectionBytes is a 16-bit header field: on pages of 64 KiB and
    // more, a degree-20,000 hub (80 KB of addresses) must still be
    // cut into sections the byte decoder reads back exactly.
    for (std::uint32_t page_kb : {64u, 128u}) {
        SCOPED_TRACE(page_kb);
        flash::FlashConfig cfg = smallFlash();
        cfg.pageSize = page_kb * 1024;
        graph::Graph g = graph::generateRing(50, 20000);
        graph::FeatureTable feat(32, 5);
        auto blocks = reserve(cfg, 64);
        DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
        ASSERT_EQ(checkLayoutInvariants(layout), "");
        for (const auto &[ppa, sections] : layout.pages)
            for (const auto &sp : sections)
                EXPECT_LE(sp.byteSize, kMaxSectionBytes);
        EXPECT_EQ(layout.stats.nodesWithSecondaries, 50u);

        flash::PageStore store(cfg);
        materialize(layout, g, feat, store);
        expectSourcesAgree(layout, g, store, feat.dim());
    }
}

TEST(Builder, FeatureBytesSurviveRoundTrip)
{
    flash::FlashConfig cfg = smallFlash();
    graph::Graph g = graph::generateRing(32, 3);
    graph::FeatureTable feat(24, 9);
    auto blocks = reserve(cfg, 8);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    flash::PageStore store(cfg);
    materialize(layout, g, feat, store);

    // Check the raw feature bytes inside the page image.
    for (graph::NodeId v = 0; v < g.numNodes(); ++v) {
        DgAddress a = layout.nodes[v].primary;
        auto page = store.read(a.page());
        ASSERT_FALSE(page.empty());
        auto sec = findSection(page, a.section(), feat.dim());
        ASSERT_TRUE(sec.has_value());
        const SectionPlacement *sp = layout.find(a);
        ASSERT_NE(sp, nullptr);
        std::uint32_t feat_off =
            sp->byteOffset + kHeaderBytes +
            static_cast<std::uint32_t>(sec->secondaries.size()) *
                kSecondaryRefBytes;
        for (std::uint16_t i = 0; i < feat.dim(); ++i) {
            std::uint16_t expect = feat.raw(v, i);
            std::uint16_t got = static_cast<std::uint16_t>(
                page[feat_off + 2 * i] |
                (page[feat_off + 2 * i + 1] << 8));
            ASSERT_EQ(got, expect) << "node " << v << " elem " << i;
        }
    }
}

TEST(Builder, ExhaustedBlockListIsFatal)
{
    flash::FlashConfig cfg = smallFlash();
    graph::Graph g = graph::generateRing(2000, 64);
    graph::FeatureTable feat(128, 3);
    std::vector<flash::BlockId> one_block = {0};
    EXPECT_DEATH(
        { buildLayout(g, feat, cfg, one_block); }, "exhausted");
}

TEST(Verifier, AcceptsOwnPagesRejectsForeign)
{
    flash::FlashConfig cfg = smallFlash();
    graph::Graph g = graph::generateRing(64, 6);
    graph::FeatureTable feat(16, 2);
    auto blocks = reserve(cfg, 8);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    flash::PageStore store(cfg);
    materialize(layout, g, feat, store);

    AddressVerifier verifier(layout.blocks, cfg.pagesPerBlock);
    for (const auto &[ppa, sections] : layout.pages) {
        EXPECT_TRUE(verifier.pageAllowed(ppa));
        auto page = store.read(ppa);
        EXPECT_TRUE(verifier.pageImageSafe(ppa, page, feat.dim()));
    }
    // A page outside the reserved blocks is rejected.
    flash::Ppa foreign =
        static_cast<flash::Ppa>(cfg.totalPages() - 1);
    EXPECT_FALSE(verifier.pageAllowed(foreign));

    // A page image with an embedded out-of-range address is rejected.
    std::vector<std::uint8_t> evil(cfg.pageSize, 0);
    std::vector<DgAddress> bad = {DgAddress(foreign, 0)};
    encodeSecondary(evil, 1, bad);
    flash::Ppa dest = layout.nodes[0].primary.page();
    EXPECT_FALSE(verifier.pageImageSafe(dest, evil, feat.dim()));
}

TEST(Builder, InflationAccounting)
{
    flash::FlashConfig cfg = smallFlash();
    graph::GeneratorParams gp;
    gp.nodes = 2000;
    gp.avgDegree = 28;
    graph::Graph g = graph::generatePowerLaw(gp);
    graph::FeatureTable feat(100, 4);
    auto blocks = reserve(cfg, 700);
    DirectGraphLayout layout = buildLayout(g, feat, cfg, blocks);
    EXPECT_EQ(layout.stats.rawBytes,
              g.numEdges() * 4 + 2000ull * 200);
    EXPECT_GE(layout.stats.flashBytes, layout.stats.usedBytes);
    EXPECT_GT(layout.stats.inflatePct(), 0.0);
    EXPECT_LT(layout.stats.inflatePct(), 120.0);
}

} // namespace

namespace {

using namespace beacongnn;
using namespace beacongnn::dg;

TEST(Codec, FuzzDecodeNeverCrashes)
{
    // decodeSection / findSection / decodePage must reject arbitrary
    // bytes gracefully — the on-die §VI-E check depends on it.
    sim::Pcg32 rng(0xF422);
    std::vector<std::uint8_t> page(4096);
    for (int round = 0; round < 300; ++round) {
        for (auto &b : page)
            b = static_cast<std::uint8_t>(rng.next());
        // Bias some rounds toward plausible type bytes so the deeper
        // decode paths get fuzzed too.
        if (round % 3 == 0)
            page[0] = static_cast<std::uint8_t>(1 + round % 2);
        auto s0 = decodeSection(page, 0, 64);
        if (s0) {
            EXPECT_LE(s0->neighborCount(), 4096u / 4);
        }
        for (unsigned idx = 0; idx < kMaxSectionsPerPage; idx += 5)
            (void)findSection(page, idx, 64);
        auto all = decodePage(page, 64);
        EXPECT_LE(all.size(), kMaxSectionsPerPage);
    }
}

TEST(Codec, FuzzTruncatedSections)
{
    // Valid sections truncated at every boundary must decode to
    // nullopt, never read out of bounds.
    std::vector<std::uint8_t> full(4096, 0);
    std::vector<SecondaryRef> secs = {{DgAddress(3, 1), 9}};
    std::vector<std::uint8_t> feat(32, 5);
    std::vector<DgAddress> nbrs = {DgAddress(1, 0), DgAddress(2, 1)};
    std::uint32_t size = encodePrimary(full, 7, 11, secs, feat, nbrs);
    for (std::uint32_t cut = 0; cut < size; ++cut) {
        std::span<const std::uint8_t> prefix(full.data(), cut);
        auto dec = decodeSection(prefix, 0, 16);
        EXPECT_FALSE(dec.has_value()) << "cut=" << cut;
    }
}

} // namespace

namespace {

using namespace beacongnn;
using namespace beacongnn::dg;

/** Overwrite the little-endian u32 at @p off of @p page. */
void
poke32(std::vector<std::uint8_t> &page, std::uint32_t off, std::uint32_t v)
{
    for (unsigned b = 0; b < 4; ++b)
        page[off + b] = static_cast<std::uint8_t>(v >> (8 * b));
}

/** A materialized layout with spilled hubs: primaries that carry both
 *  in-page neighbours and secondary refs, plus secondary sections. */
struct SpilledGraph
{
    flash::FlashConfig cfg = smallFlash();
    graph::Graph g;
    graph::FeatureTable feat{16, 3};
    DirectGraphLayout layout;
    flash::PageStore store{cfg};

    explicit SpilledGraph(std::uint64_t skip_blocks = 0)
    {
        // Three hubs of 1,100-2,500 neighbours spill past a 4 KiB
        // page; the other nodes share pages.
        sim::Pcg32 rng(11);
        std::vector<std::vector<graph::NodeId>> adj(300);
        for (graph::NodeId v = 0; v < adj.size(); ++v) {
            std::uint32_t degree = v < 3 ? 2500 - 700 * v : rng.next() % 60;
            for (std::uint32_t i = 0; i < degree; ++i)
                adj[v].push_back(rng.next() % 300);
        }
        g = graph::Graph(adj);
        ssd::Ftl ftl(cfg);
        if (skip_blocks > 0)
            ftl.reserveBlocks(skip_blocks);
        layout = buildLayout(g, feat, cfg, ftl.reserveBlocks(200));
        materialize(layout, g, feat, store);
    }

    /** A node whose primary holds in-page neighbours and secondaries. */
    graph::NodeId
    hub() const
    {
        for (graph::NodeId v = 0; v < g.numNodes(); ++v)
            if (layout.nodes[v].inPage > 0 &&
                !layout.nodes[v].secondaries.empty())
                return v;
        return g.numNodes();
    }
};

/** Read every entry a view exposes; @return a checksum of them. */
std::uint64_t
touchAll(const SectionData &s)
{
    std::uint64_t sum = s.node;
    for (std::uint32_t j = 0; j < s.secondaries.size(); ++j)
        sum += s.secondaries[j].addr.raw + s.secondaries[j].count;
    for (std::uint32_t i = 0; i < s.neighborCount(); ++i)
        sum += s.neighborAt(i).raw;
    return sum;
}

TEST(LazyView, CorruptedPagesStayMemorySafe)
{
    // Seeded byte mutation of real page images. Every view that still
    // decodes is read in full — each neighbour, each secondary ref —
    // and run through the die sampler; the ASan/UBSan builds turn any
    // read outside the page into a failure.
    SpilledGraph sg;
    std::vector<flash::Ppa> ppas;
    for (const auto &page : sg.layout.pages)
        ppas.push_back(page.ppa);
    ASSERT_GE(ppas.size(), 8u);

    engines::DieSampler sampler(ssd::EngineConfig{},
                                flash::GnnGlobalConfig{});
    flash::GnnSampleResult frame;
    flash::PageStore mutated(sg.cfg);
    PageByteSource source(mutated, sg.feat.dim());
    sim::Pcg32 rng(0xBEAC);
    std::uint64_t decoded = 0, checksum = 0;
    for (flash::Ppa round = 0; round < 600; ++round) {
        flash::Ppa src = ppas[rng.next() % ppas.size()];
        auto orig = sg.store.read(src);
        // An exactly-sized copy, so reads past the page end trap.
        std::vector<std::uint8_t> page(orig.begin(), orig.end());
        auto secs = sg.layout.pages.sectionsOf(src);
        unsigned flips = 1 + rng.next() % 8;
        for (unsigned k = 0; k < flips; ++k) {
            // Half the hits land in a section header, where they
            // reach the size and count fields.
            std::uint32_t off =
                rng.next() % 2 == 0
                    ? secs[rng.next() % secs.size()].byteOffset +
                          rng.next() % kHeaderBytes
                    : rng.next() % sg.cfg.pageSize;
            page[off] = static_cast<std::uint8_t>(rng.next());
        }

        for (const auto &s : decodePage(page, sg.feat.dim())) {
            checksum += touchAll(s);
            ++decoded;
        }
        ASSERT_TRUE(mutated.program(round, page));
        for (unsigned idx = 0; idx < kMaxSectionsPerPage; ++idx) {
            auto view = findSection(page, idx, sg.feat.dim());
            auto fetched = source.fetch(DgAddress(round, idx));
            ASSERT_EQ(view.has_value(), fetched.has_value());
            if (!view)
                continue;
            EXPECT_EQ(touchAll(*view), touchAll(*fetched));
            flash::GnnSampleParams p;
            p.isSecondary = view->type == SectionType::Secondary;
            p.sampleCount = 255;
            p.batchId = round;
            sampler.execute(fetched, p, frame);
        }
    }
    // The mutations must leave most sections decodable, or the view
    // accessors were never exercised.
    EXPECT_GT(decoded, 1000u);
    EXPECT_NE(checksum, 0u);
}

TEST(LazyView, HugeSecondaryCountIsRejected)
{
    // A count whose byte size wraps 32 bits onto the real section size
    // (0x40000000 * 4 = 2^32) must not decode into a view that claims
    // a billion stored neighbours.
    std::vector<std::uint8_t> page(4096, 0);
    std::vector<DgAddress> one = {DgAddress(1, 0)};
    encodeSecondary(page, 5, one);
    poke32(page, 8, 0x40000000u);
    page[2] = static_cast<std::uint8_t>(kHeaderBytes);
    page[3] = 0;
    EXPECT_FALSE(decodeSection(page, 0, 0).has_value());
    EXPECT_TRUE(decodePage(page, 0).empty());
}

TEST(PageDirectory, MissesReturnNulloptAndAbort)
{
    // Blocks reserved after a gap, so there are pages below the first.
    SpilledGraph sg(/*skip_blocks=*/8);
    const DirectGraphLayout &layout = sg.layout;
    ASSERT_FALSE(layout.pages.empty());
    flash::Ppa lo = (*layout.pages.begin()).ppa;
    flash::Ppa hi = lo;
    std::size_t used = 0;
    for (const auto &page : layout.pages) {
        EXPECT_GE(page.ppa, hi); // Ppa order.
        hi = page.ppa;
        ++used;
    }
    EXPECT_EQ(used, layout.pages.size());
    ASSERT_GT(lo, 0u);

    // An unprogrammed page inside the range, and a used page with
    // fewer than 16 sections.
    std::optional<flash::Ppa> hole;
    std::optional<DgAddress> past_count;
    for (flash::Ppa p = lo; p <= hi; ++p) {
        auto secs = layout.pages.sectionsOf(p);
        if (secs.empty() && !hole)
            hole = p;
        if (!secs.empty() && secs.size() < kMaxSectionsPerPage &&
            !past_count)
            past_count = DgAddress(p, static_cast<unsigned>(secs.size()));
    }
    ASSERT_TRUE(hole && past_count);

    LayoutSource meta(layout, sg.g);
    PageByteSource bytes(sg.store, sg.feat.dim());
    engines::DieSampler sampler(ssd::EngineConfig{},
                                flash::GnnGlobalConfig{});
    const DgAddress misses[] = {
        DgAddress(lo - 1, 0), DgAddress(0, 0),  // Below the first page.
        DgAddress(hi + 1, 0),                  // Past the last page.
        DgAddress((1u << 28) - 1, 15),
        DgAddress(*hole, 0),                   // Unprogrammed, in range.
        *past_count,                           // Section >= count.
        DgAddress(past_count->page(), 15),
    };
    for (DgAddress a : misses) {
        SCOPED_TRACE(a.raw);
        EXPECT_EQ(layout.find(a), nullptr);
        auto m = meta.fetch(a);
        auto b = bytes.fetch(a);
        EXPECT_FALSE(m.has_value());
        EXPECT_FALSE(b.has_value());
        flash::GnnSampleParams p;
        p.ppa = a.page();
        p.sectionIndex = static_cast<std::uint8_t>(a.section());
        p.sampleCount = 3;
        flash::GnnSampleResult r;
        sampler.execute(m, p, r);
        EXPECT_FALSE(r.ok);
        sampler.execute(b, p, r);
        EXPECT_FALSE(r.ok);
    }
    EXPECT_EQ(sampler.aborted(), 2 * std::size(misses));
}

TEST(Verifier, ChecksEveryEmbeddedAddress)
{
    // The flush check must cover every embedded address, not only
    // those a sampler would pick: corrupting just the last one of
    // each kind is enough to reject the page.
    SpilledGraph sg;
    graph::NodeId v = sg.hub();
    ASSERT_LT(v, sg.g.numNodes());
    const NodeLayout &nl = sg.layout.nodes[v];
    AddressVerifier verifier(sg.layout.blocks, sg.cfg.pagesPerBlock);
    const std::uint32_t foreign =
        DgAddress(static_cast<flash::Ppa>(sg.cfg.totalPages() - 1), 0).raw;
    ASSERT_FALSE(verifier.addressAllowed(DgAddress(foreign)));

    auto expect_rejected = [&](DgAddress section, std::uint32_t field_off) {
        const SectionPlacement *sp = sg.layout.find(section);
        ASSERT_NE(sp, nullptr);
        auto orig = sg.store.read(section.page());
        std::vector<std::uint8_t> page(orig.begin(), orig.end());
        ASSERT_TRUE(
            verifier.pageImageSafe(section.page(), page, sg.feat.dim()));
        poke32(page, sp->byteOffset + field_off, foreign);
        EXPECT_FALSE(
            verifier.pageImageSafe(section.page(), page, sg.feat.dim()));
    };

    const SectionPlacement *prim = sg.layout.find(nl.primary);
    ASSERT_NE(prim, nullptr);
    const auto n_secs = static_cast<std::uint32_t>(nl.secondaries.size());
    {
        SCOPED_TRACE("last in-page neighbour");
        expect_rejected(nl.primary, prim->byteSize - kAddrBytes);
    }
    {
        SCOPED_TRACE("last secondary ref");
        expect_rejected(nl.primary,
                        kHeaderBytes + (n_secs - 1) * kSecondaryRefBytes);
    }
    {
        SCOPED_TRACE("last entry of a secondary section");
        DgAddress last = nl.secondaries.back().addr;
        expect_rejected(last, sg.layout.find(last)->byteSize - kAddrBytes);
    }
}

} // namespace
