/**
 * @file
 * Golden (host-side) neighbour samplers.
 *
 * Two sampling disciplines exist in the system:
 *
 *  - csrSample(): plain uniform sampling over the full neighbour list
 *    (what the host CPU of the CC/GLIST platforms and the firmware of
 *    SmartSage/BG-1 do).
 *
 *  - layoutSample(): the DirectGraph two-level discipline of §V-A —
 *    fanout draws over the full range; draws landing in the in-page
 *    portion resolve immediately, draws landing in a secondary
 *    section are *re-drawn within that section* by the coalesced
 *    secondary command (modulo a TRNG value, per the paper). This is
 *    exactly what the die-level sampler executes, so the two must
 *    produce identical subgraphs — the core equivalence property.
 *
 * Both use keyed, order-independent randomness (sim/rng.h), so any
 * execution order (hop-by-hop, out-of-order, streaming) yields the
 * same subgraph for the same seed.
 */

#ifndef BEACONGNN_GNN_SAMPLER_H
#define BEACONGNN_GNN_SAMPLER_H

#include <array>
#include <cstdint>
#include <span>

#include "directgraph/codec.h"
#include "gnn/model.h"
#include "gnn/subgraph.h"
#include "graph/graph.h"

namespace beacongnn::gnn {

/** Draw-index base for secondary-section re-draws (see sampler.cc). */
inline constexpr std::uint32_t kSecondaryDrawBase = 1024;
inline constexpr std::uint32_t kSecondaryDrawStride = 64;

/**
 * Sample the full mini-batch subgraph with plain CSR semantics.
 *
 * @param g       Graph.
 * @param m       Model (hops, fanout, seed).
 * @param batch   Mini-batch id (keys the RNG).
 * @param targets Target nodes of this mini-batch.
 */
Subgraph csrSample(const graph::Graph &g, const ModelConfig &m,
                   std::uint64_t batch,
                   std::span<const graph::NodeId> targets);

/**
 * Sample the full mini-batch subgraph with DirectGraph two-level
 * semantics, following the layout's in-page/secondary split.
 */
Subgraph layoutSample(const graph::Graph &g,
                      const dg::DirectGraphLayout &layout,
                      const ModelConfig &m, std::uint64_t batch,
                      std::span<const graph::NodeId> targets);

/** Most draws one command makes: the model fanout and a command's
 *  sample count are 8-bit. */
inline constexpr std::size_t kMaxDraws = 255;

/**
 * Result storage of the primary-section sampling kernel, owned by the
 * caller (a stack object on the hot path: no heap). Both lists are
 * bounded by the 8-bit fanout.
 */
struct PrimaryDraws
{
    /** Draws that landed in one secondary section. */
    struct SecondaryHits
    {
        std::uint32_t secondary; ///< Index into the node's secondaries.
        std::uint32_t hits;
    };

    // Left uninitialized on purpose: drawPrimary() writes the first
    // inPageCount / secondaryCount entries before anything reads them,
    // and zeroing 3 KiB per command would cost more than the draws.
    std::array<std::uint32_t, kMaxDraws> inPage;
    std::array<SecondaryHits, kMaxDraws> secondary;
    std::uint8_t inPageCount = 0;
    std::uint8_t secondaryCount = 0;

    /** In-page picks (indices < inPage, resolve on this page), in draw
     *  order. */
    std::span<const std::uint32_t>
    inPagePicks() const
    {
        return {inPage.data(), inPageCount};
    }

    /** Secondary sections hit at least once, by ascending index. */
    std::span<const SecondaryHits>
    secondaryHits() const
    {
        return {secondary.data(), secondaryCount};
    }
};

/**
 * The primary-section sampling kernel shared by layoutSample() and
 * the die-level sampler model: draw @p fanout indices over
 * [0, degree) into @p out — the in-page picks directly, and per hit
 * secondary section the hit count for one coalesced continuation
 * command.
 */
void drawPrimary(std::uint64_t seed, std::uint64_t batch,
                 std::uint8_t hop, graph::NodeId node,
                 std::uint8_t fanout, std::uint32_t degree,
                 std::uint32_t in_page, dg::SecondaryRefs secondaries,
                 PrimaryDraws &out);

/**
 * The secondary-section re-draw kernel: write draws
 * [first_draw, first_draw + picks.size()) within a section of
 * @p section_size entries into @p picks, keyed on the owning node, the
 * hop and the secondary index — so a coalesced command
 * (first_draw = 0, picks.size() = hits) and `hits` non-coalesced
 * single-draw commands produce the exact same picks (the coalescing
 * ablation relies on this).
 */
void drawSecondary(std::uint64_t seed, std::uint64_t batch,
                   std::uint8_t hop, graph::NodeId node,
                   std::uint32_t secondary_idx, std::uint32_t first_draw,
                   std::uint32_t section_size,
                   std::span<std::uint32_t> picks);

} // namespace beacongnn::gnn

#endif // BEACONGNN_GNN_SAMPLER_H
