/**
 * @file
 * Sparse backing store holding the actual bytes of programmed flash
 * pages. Only pages that have been programmed (DirectGraph pages in
 * practice) consume host memory; the rest of the simulated 1 TB device
 * stays virtual.
 *
 * The store also models the two flash reliability hazards of §VI-F:
 * retention bit errors (injectable, detected by the ECC model) and
 * program/erase wear counting per block.
 */

#ifndef BEACONGNN_FLASH_PAGE_STORE_H
#define BEACONGNN_FLASH_PAGE_STORE_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "flash/address.h"

namespace beacongnn::flash {

/** Sparse page-content store with per-block wear accounting. */
class PageStore
{
  public:
    explicit PageStore(const FlashConfig &cfg)
        : codec(cfg), pageSize(cfg.pageSize)
    {
    }

    /** Page size in bytes. */
    std::uint32_t pageBytes() const { return pageSize; }

    /** True if @p ppa has been programmed since its last erase. */
    bool
    isProgrammed(Ppa ppa) const
    {
        return images.find(ppa) != images.end();
    }

    /**
     * Program a page. Overwriting a programmed page without an erase
     * is a flash-protocol violation and is reported to the caller.
     *
     * @return false if the page was already programmed (caller must
     *         erase the block first).
     */
    bool
    program(Ppa ppa, std::span<const std::uint8_t> data)
    {
        if (isProgrammed(ppa))
            return false;
        auto &buf = images[ppa];
        buf.assign(pageSize, 0);
        std::size_t n = std::min<std::size_t>(data.size(), pageSize);
        std::copy(data.begin(), data.begin() + n, buf.begin());
        ++programCount[codec.blockOf(ppa)];
        return true;
    }

    /**
     * Read a programmed page.
     * @return Span of pageBytes() bytes, or empty span if the page was
     *         never programmed (reads of erased pages return nothing
     *         useful on real flash either).
     */
    std::span<const std::uint8_t>
    read(Ppa ppa) const
    {
        auto it = images.find(ppa);
        if (it == images.end())
            return {};
        return {it->second.data(), it->second.size()};
    }

    /** Erase every page of @p block and bump its P/E counter. */
    void
    eraseBlock(BlockId block)
    {
        Ppa first = codec.firstPage(block);
        for (unsigned p = 0; p < codec.config().pagesPerBlock; ++p)
            images.erase(first + p);
        ++eraseCount[block];
    }

    /** P/E (erase) cycles suffered by @p block so far. */
    std::uint64_t
    peCycles(BlockId block) const
    {
        auto it = eraseCount.find(block);
        return it == eraseCount.end() ? 0 : it->second;
    }

    /**
     * Inject a retention bit error: flips a bit in a programmed page.
     * Used by the reliability tests and the scrubbing model.
     *
     * @return true if the page existed and a bit was flipped.
     */
    bool
    corruptBit(Ppa ppa, std::uint32_t byte_off, unsigned bit)
    {
        auto it = images.find(ppa);
        if (it == images.end() || byte_off >= it->second.size())
            return false;
        it->second[byte_off] ^= static_cast<std::uint8_t>(1u << (bit & 7));
        return true;
    }

    /** Number of currently programmed pages. */
    std::size_t programmedPages() const { return images.size(); }

    const AddressCodec &addressCodec() const { return codec; }

  private:
    AddressCodec codec;
    std::uint32_t pageSize;
    /** Programmed page images (point lookups only). */
    std::unordered_map<Ppa, std::vector<std::uint8_t>> images;
    std::unordered_map<BlockId, std::uint64_t> programCount;
    std::unordered_map<BlockId, std::uint64_t> eraseCount;
};

} // namespace beacongnn::flash

#endif // BEACONGNN_FLASH_PAGE_STORE_H
