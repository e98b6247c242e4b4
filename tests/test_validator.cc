/**
 * @file
 * sim::Validator tests (DESIGN.md §16): the checked-build causality
 * and lane-ownership assertions. The Validator class is compiled in
 * every build, so the death tests drive it directly and hold in OFF
 * builds too; the wiring tests prove the EventQueue/Mailbox hooks
 * actually fire, and therefore only run when kCheckedBuild is true.
 * Each seeded negative is one invariant of the conservative parallel
 * simulator: no past schedules, lookahead-stamped mailbox posts,
 * window-scoped thread ownership, monotone in-window pops.
 */

#include <gtest/gtest.h>

#include <thread>

#include "sim/event_queue.h"
#include "sim/mailbox.h"
#include "sim/validator.h"

namespace {

using beacongnn::sim::EventQueue;
using beacongnn::sim::kCheckedBuild;
using beacongnn::sim::kTickMax;
using beacongnn::sim::Mailbox;
using beacongnn::sim::Tick;
using beacongnn::sim::Validator;

// ==================================================================
// Compliant protocol: nothing aborts, every hook is counted.
// ==================================================================

TEST(Validator, CompliantWindowSequenceRunsClean)
{
    Validator v(2, 10);
    EXPECT_EQ(v.stations(), 2u);
    EXPECT_EQ(v.lookahead(), 10u);
    EXPECT_FALSE(v.windowActive());

    v.windowOpen(0, 99);
    EXPECT_TRUE(v.windowActive());
    v.claimStation(0);
    v.onSchedule(0, 50, 20);
    v.onPop(0, 20);
    v.onPop(0, 20); // Equal timestamps are fine (FIFO at a tick).
    v.onMailboxPost(0, 1, 110, 99);
    v.onTouch(0, "engine");
    v.releaseStation(0);
    v.windowClose();
    EXPECT_FALSE(v.windowActive());
    EXPECT_EQ(v.checks(), 9u); // One per protocol call and hook.
}

TEST(Validator, TouchesBetweenWindowsAreSerializedByTheDriver)
{
    // With no window open the driver protocol guarantees exclusivity,
    // so ownership checks pass from any thread.
    Validator v(1, 1);
    v.onTouch(0, "drain");
    v.onSchedule(0, 5, 0);
    v.onPop(0, 5);
    EXPECT_EQ(v.checks(), 3u);
}

// ==================================================================
// Seeded negatives: each invariant aborts with context.
// ==================================================================

TEST(ValidatorDeath, SchedulingIntoTheQueuesPastAborts)
{
    Validator v(1, 1);
    EXPECT_DEATH(v.onSchedule(0, 5, 10),
                 "scheduled into the queue's past");
}

TEST(ValidatorDeath, ShortLookaheadMailboxPostAborts)
{
    Validator v(2, 10);
    // Stamped 9 ticks out; the window protocol needs >= 10.
    EXPECT_DEATH(v.onMailboxPost(0, 1, 14, 5),
                 "under the lookahead horizon");
}

TEST(ValidatorDeath, MailboxStampBeforeSenderClockAborts)
{
    Validator v(2, 1);
    EXPECT_DEATH(v.onMailboxPost(0, 1, 4, 5),
                 "under the lookahead horizon");
}

TEST(ValidatorDeath, ForeignThreadTouchAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            std::thread claimer([&v] { v.claimStation(0); });
            claimer.join();
            v.onTouch(0, "engine"); // Not the claiming thread.
        },
        "foreign-thread touch");
}

TEST(ValidatorDeath, UnclaimedTouchInsideAWindowAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            v.onTouch(0, "engine");
        },
        "unclaimed station inside a window");
}

TEST(ValidatorDeath, BackwardsPopAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            v.claimStation(0);
            v.onPop(0, 20);
            v.onPop(0, 10);
        },
        "went backwards in time");
}

TEST(ValidatorDeath, PopOutsideTheOpenWindowAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(50, 100);
            v.claimStation(0);
            v.onPop(0, 10);
        },
        "outside the open window");
}

TEST(ValidatorDeath, DoubleClaimAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            v.claimStation(0);
            v.claimStation(0);
        },
        "already claimed");
}

TEST(ValidatorDeath, WindowCloseWithAClaimedStationAborts)
{
    EXPECT_DEATH(
        {
            Validator v(1, 1);
            v.windowOpen(0, 100);
            v.claimStation(0);
            v.windowClose();
        },
        "still claimed at window close");
}

// ==================================================================
// Wiring: the hot-path hooks actually reach the validator. These
// only exist in BGN_CHECKED builds — OFF builds compile them out
// (that's the point), so the tests skip themselves there.
// ==================================================================

TEST(ValidatorWiring, EventQueuePastScheduleAborts)
{
    if (!kCheckedBuild)
        GTEST_SKIP() << "hooks compiled out (BGN_CHECKED=OFF)";
    EXPECT_DEATH(
        {
            EventQueue q;
            Validator v(1, 1);
            q.setValidator(&v, 0);
            q.scheduleAt(10, [] {});
            q.run(); // Clock now at 10.
            q.scheduleAt(5, [] {});
        },
        "scheduled into the queue's past");
}

TEST(ValidatorWiring, MailboxShortStampAborts)
{
    if (!kCheckedBuild)
        GTEST_SKIP() << "hooks compiled out (BGN_CHECKED=OFF)";
    EXPECT_DEATH(
        {
            Mailbox<int> mb(2);
            Validator v(2, 5);
            mb.setValidator(&v);
            mb.post(/*src=*/0, /*dst=*/1, 7, /*when=*/3, /*srcNow=*/0);
        },
        "under the lookahead horizon");
}

TEST(ValidatorWiring, CompliantTrafficIsSilentInEveryBuild)
{
    // The checked post/schedule paths with legal stamps never abort,
    // whatever the build; in checked builds they are also counted.
    EventQueue q;
    Mailbox<int> mb(2);
    Validator v(2, 5);
    q.setValidator(&v, 0);
    mb.setValidator(&v);
    q.scheduleAt(10, [] {});
    EXPECT_EQ(q.run(), 10u);
    mb.post(/*src=*/0, /*dst=*/1, 7, /*when=*/15, /*srcNow=*/10);
    if (kCheckedBuild)
        EXPECT_GT(v.checks(), 0u);
    else
        EXPECT_EQ(v.checks(), 0u);
}

} // namespace
