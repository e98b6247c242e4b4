/**
 * @file
 * Timestamped inter-station message queue for the conservative
 * parallel simulator (DESIGN.md §13).
 *
 * Stations (per-device event queues) must never schedule work
 * directly onto another station's queue — that queue may be mid-run
 * on another worker thread, and even under a lock the insertion order
 * would depend on thread scheduling. Instead a cross-station effect
 * is posted here as a message carrying its delivery timestamp; after
 * the window's barrier the destination's owning worker drains its
 * inboxes, sorts the messages by a deterministic key supplied by the
 * caller, and bulk-schedules them.
 *
 * There is one inbox per (source, destination) station pair and no
 * lock. During a window only the source station's worker appends to
 * an inbox; after the barrier only the destination station's worker
 * drains it. The driver's barriers order the two, so no inbox is ever
 * touched by two threads at once.
 */

#ifndef BEACONGNN_SIM_MAILBOX_H
#define BEACONGNN_SIM_MAILBOX_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "sim/types.h"
#include "sim/validator.h"

namespace beacongnn::sim {

/**
 * Per-(source, destination) message inboxes. @p Message is
 * caller-defined; the caller owns the deterministic sort applied
 * after drain() (typically by (deliveryTime, sourceStation,
 * sourceSequence)).
 *
 * Thread contract: post(src, ...) is called only by the thread that
 * runs station src in the current window; drain(dst, ...) only by the
 * thread that owns station dst, between windows. A pair's inbox is
 * cache-line padded, so posters from different sources never share a
 * line.
 */
template <typename Message>
class Mailbox
{
  public:
    explicit Mailbox(std::size_t stations)
        : n(stations), inboxes(stations * stations)
    {
    }

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    /** Enqueue @p msg from station @p src for station @p dst. */
    void
    post(std::size_t src, std::size_t dst, Message msg)
    {
        Inbox &box = inboxes[dst * n + src];
        box.messages.push_back(std::move(msg));
        ++box.posted;
    }

    /**
     * Checked post: like post(), but carries the causality facts a
     * checked build (DESIGN.md §16) asserts — the message's delivery
     * stamp @p when must be at least one lookahead beyond the
     * sender's clock @p srcNow, and the calling thread must own
     * station @p src for the current window. An OFF build compiles
     * the check out and this is exactly post().
     */
    void
    post(std::size_t src, std::size_t dst, Message msg, Tick when,
         Tick srcNow)
    {
        if constexpr (kCheckedBuild) {
            if (_validator)
                _validator->onMailboxPost(static_cast<unsigned>(src),
                                          static_cast<unsigned>(dst),
                                          when, srcNow);
        }
        post(src, dst, std::move(msg));
    }

    /** Attach the checked-build validator (nullptr detaches). */
    void setValidator(Validator *v) { _validator = v; }

    /**
     * Move station @p dst's pending messages to the end of @p out,
     * source by source in station order and in posting order within
     * a source (unsorted by time). The inboxes keep their capacity,
     * so a warm mailbox drains without allocating.
     */
    void
    drain(std::size_t dst, std::vector<Message> &out)
    {
        for (std::size_t src = 0; src < n; ++src) {
            std::vector<Message> &m = inboxes[dst * n + src].messages;
            std::move(m.begin(), m.end(), std::back_inserter(out));
            m.clear();
        }
    }

    /** Messages ever posted to station @p dst (drained or not). Read
     *  only between windows. */
    std::uint64_t
    posted(std::size_t dst) const
    {
        std::uint64_t total = 0;
        for (std::size_t src = 0; src < n; ++src)
            total += inboxes[dst * n + src].posted;
        return total;
    }

    std::size_t stations() const { return n; }

  private:
    /** One (source, destination) inbox, cache-line padded so two
     *  sources' appends never false-share. */
    struct alignas(64) Inbox
    {
        std::vector<Message> messages;
        std::uint64_t posted = 0;
    };

    std::size_t n;
    /** Indexed [dst * n + src]: a drain walks one contiguous row. */
    std::vector<Inbox> inboxes;
    /** Checked-build hooks (DESIGN.md §16); unused when off. */
    Validator *_validator = nullptr;
};

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_MAILBOX_H
