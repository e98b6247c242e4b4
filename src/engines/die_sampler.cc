#include "engines/die_sampler.h"

#include "gnn/sampler.h"

namespace beacongnn::engines {

void
DieSampler::executeImpl(const std::optional<dg::SectionData> &section,
                        const flash::GnnSampleParams &params,
                        flash::GnnSampleResult &res) const
{
    res.clear();
    res.hop = params.hop;
    res.batchId = params.batchId;
    res.parentSlot = params.parentSlot;

    // §VI-E on-die checks: the section must exist and match the
    // command's expectation; otherwise stop immediately and hand
    // control back to the firmware.
    if (!section) {
        res.ok = false;
        return;
    }
    const dg::SectionData &s = *section;
    bool expect_secondary = params.isSecondary;
    bool is_secondary = s.type == dg::SectionType::Secondary;
    if (s.type == dg::SectionType::Invalid ||
        expect_secondary != is_secondary) {
        res.ok = false;
        return;
    }
    res.nodeId = s.node;

    auto make_child = [&](dg::DgAddress addr) {
        flash::EmittedCommand c;
        c.params.ppa = addr.page();
        c.params.sectionIndex = static_cast<std::uint8_t>(addr.section());
        c.params.hop = static_cast<std::uint8_t>(params.hop + 1);
        c.params.batchId = params.batchId;
        c.params.retrieveFeature = true;
        c.params.isSecondary = false;
        if (c.params.hop >= gcfg.hops) {
            // Final hop: feature retrieval only.
            c.params.finalHop = true;
            c.params.sampleCount = 0;
        } else {
            c.params.sampleCount = gcfg.fanoutAt(c.params.hop);
        }
        // Attention models ship a per-edge coefficient beside each
        // next-hop sample (computed by the sampler's vector unit).
        res.edgeCoeffBytes += gcfg.edgeCoeffBytes;
        res.follow.push_back(c);
    };

    if (!params.isSecondary) {
        // Primary section: the vector retriever copies the feature
        // from the cache register to the data register.
        if (params.retrieveFeature && s.hasFeature) {
            res.featureIncluded = true;
            res.featureBytes = gcfg.featureBytes();
        }
        if (params.finalHop || params.sampleCount == 0)
            return;

        gnn::PrimaryDraws draws;
        gnn::drawPrimary(gcfg.seed, params.batchId, params.hop, s.node,
                         params.sampleCount, s.totalNeighbors, s.inPage,
                         s.secondaries, draws);
        // Resolve only the picked neighbours.
        for (std::uint32_t pick : draws.inPagePicks())
            make_child(s.neighborAt(pick));
        for (const gnn::PrimaryDraws::SecondaryHits &h :
             draws.secondaryHits()) {
            const std::uint32_t j = h.secondary;
            const std::uint32_t hits = h.hits;
            // Commands for the same secondary section coalesce into
            // one carrying the hit count (§V-A). The ablation mode
            // issues one single-draw command per hit instead — same
            // picks (drawSecondary is keyed by draw index), more
            // flash reads.
            std::uint32_t per_cmd = opts.coalesceSecondary ? hits : 1;
            const dg::DgAddress sec_addr = s.secondaries[j].addr;
            for (std::uint32_t first = 0; first < hits;
                 first += per_cmd) {
                flash::EmittedCommand c;
                c.params.ppa = sec_addr.page();
                c.params.sectionIndex =
                    static_cast<std::uint8_t>(sec_addr.section());
                c.params.hop = params.hop; // Same-hop continuation.
                c.params.batchId = params.batchId;
                c.params.isSecondary = true;
                c.params.secondaryOrdinal =
                    static_cast<std::uint16_t>(j);
                c.params.firstDraw = static_cast<std::uint8_t>(first);
                c.params.sampleCount =
                    static_cast<std::uint8_t>(per_cmd);
                c.params.retrieveFeature = false;
                c.params.nodeHint = s.node;
                res.follow.push_back(c);
            }
        }
    } else {
        // Secondary section: re-draw within the section only.
        std::array<std::uint32_t, gnn::kMaxDraws> buf;
        std::span<std::uint32_t> picks =
            std::span(buf).first(params.sampleCount);
        gnn::drawSecondary(gcfg.seed, params.batchId, params.hop, s.node,
                           params.secondaryOrdinal, params.firstDraw,
                           s.totalNeighbors, picks);
        for (std::uint32_t idx : picks)
            make_child(s.neighborAt(idx));
    }
}

} // namespace beacongnn::engines
