/**
 * @file
 * Stress tests for the slab-recycled event kernel: random
 * schedule/cancel/reschedule interleavings are checked against a
 * simple reference model of the documented ordering semantics
 * (when, priority, FIFO within both), and slot recycling is
 * exercised hard enough that generation-counter bugs would surface
 * as misfires.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "testutil/closure_callee.hh"

namespace refsched
{
namespace
{

using testutil::ClosureCallee;

/** One pending event in the reference model. */
struct ModelEvent
{
    Tick when;
    int prio;
    std::uint64_t seq;
    int id;
};

/** The documented firing order: (when, priority, schedule order). */
bool
firesBefore(const ModelEvent &a, const ModelEvent &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    if (a.prio != b.prio)
        return a.prio < b.prio;
    return a.seq < b.seq;
}

/**
 * Drives an EventQueue and a reference model through the same random
 * operation stream, comparing the observed firing order window by
 * window.  Every event is the driver itself with the event id in
 * arg0.
 */
class StressDriver final : public Callee
{
  public:
    explicit StressDriver(std::uint64_t seed) : rng_(seed) {}

    void
    fire(Tick, std::uint64_t id, std::uint64_t) override
    {
        fired_.push_back(static_cast<int>(id));
    }

    void
    run(int windows, int opsPerWindow)
    {
        for (int w = 0; w < windows; ++w) {
            for (int op = 0; op < opsPerWindow; ++op)
                mutate();
            runWindow(eq_.now() + rng_.below(2000));
        }
        // Drain everything left.
        runWindow(eq_.now() + 1'000'000);
        EXPECT_TRUE(eq_.empty());
        EXPECT_TRUE(model_.empty());
    }

  private:
    void
    mutate()
    {
        const auto roll = rng_.below(100);
        if (roll < 50 || handles_.empty()) {
            scheduleOne();
        } else if (roll < 70) {
            cancelOne();
        } else if (roll < 80) {
            cancelStaleOne();
        } else {
            // Reschedule: cancel a random pending event and schedule
            // a replacement, which must reuse pool slots eventually.
            cancelOne();
            scheduleOne();
        }
    }

    void
    scheduleOne()
    {
        static constexpr EventPriority kPrios[] = {
            EventPriority::ClockEdge, EventPriority::Default,
            EventPriority::Scheduler, EventPriority::StatDump};
        const Tick when = eq_.now() + rng_.below(3000);
        const auto prio = kPrios[rng_.below(4)];
        const int id = nextId_++;
        auto handle = eq_.schedule(
            when, *this, static_cast<std::uint64_t>(id), 0, prio);
        model_.push_back(
            {when, static_cast<int>(prio), nextSeq_++, id});
        handles_.push_back(std::move(handle));
    }

    /**
     * Cancel a handle whose event already fired -- including handles
     * whose slot sits on the free list at the same generation epoch,
     * not yet reused.  Must be a no-op: not pending, and no live
     * event (the slot's current occupant included) disturbed.
     */
    void
    cancelStaleOne()
    {
        if (stale_.empty())
            return;
        const auto pick = rng_.below(stale_.size());
        EXPECT_FALSE(stale_[pick].pending());
        const auto liveBefore = eq_.liveCount();
        stale_[pick].cancel();
        stale_[pick].cancel();
        EXPECT_EQ(eq_.liveCount(), liveBefore);
    }

    void
    cancelOne()
    {
        if (handles_.empty())
            return;
        const auto pick = rng_.below(handles_.size());
        handles_[pick].cancel();
        EXPECT_FALSE(handles_[pick].pending());
        // Cancelling twice must stay a no-op.
        handles_[pick].cancel();
        model_.erase(model_.begin() + static_cast<long>(pick));
        handles_.erase(handles_.begin() + static_cast<long>(pick));
    }

    void
    runWindow(Tick until)
    {
        std::vector<ModelEvent> due, left;
        for (const auto &ev : model_)
            (ev.when <= until ? due : left).push_back(ev);
        std::sort(due.begin(), due.end(), firesBefore);

        fired_.clear();
        eq_.runUntil(until);

        ASSERT_EQ(fired_.size(), due.size());
        for (std::size_t i = 0; i < due.size(); ++i)
            ASSERT_EQ(fired_[i], due[i].id) << "position " << i;

        // Retain the handles of everything that fired so later
        // operations can cancel them while their slots recycle.
        std::vector<EventHandle> keep;
        for (std::size_t i = 0; i < model_.size(); ++i) {
            if (model_[i].when > until)
                keep.push_back(std::move(handles_[i]));
            else
                stale_.push_back(std::move(handles_[i]));
        }
        if (stale_.size() > 256)
            stale_.erase(stale_.begin(),
                         stale_.end() - 256);
        handles_ = std::move(keep);
        model_ = std::move(left);
        EXPECT_EQ(eq_.liveCount(), model_.size());
    }

    EventQueue eq_;
    Rng rng_;
    std::vector<ModelEvent> model_;
    std::vector<EventHandle> handles_;
    std::vector<EventHandle> stale_;  ///< handles of fired events
    std::vector<int> fired_;
    int nextId_ = 0;
    std::uint64_t nextSeq_ = 0;
};

TEST(EventQueueStressTest, RandomInterleavingMatchesReferenceModel)
{
    for (std::uint64_t seed : {1u, 42u, 0xdeadu}) {
        SCOPED_TRACE(seed);
        StressDriver driver(seed);
        driver.run(/*windows=*/40, /*opsPerWindow=*/50);
    }
}

TEST(EventQueueStressTest, SlotRecyclingSurvivesHeavyChurn)
{
    EventQueue eq;
    ClosureCallee ev;
    // Far more schedule/cancel cycles than live events: every cycle
    // must recycle slots (a leak would grow the pool unboundedly and
    // a stale-generation bug would fire a cancelled callback).
    int fired = 0;
    const std::uint64_t doomedFn =
        ev.add([] { FAIL() << "cancelled event fired"; });
    const std::uint64_t firedFn = ev.add([&] { ++fired; });
    for (int round = 0; round < 10'000; ++round) {
        auto doomed = eq.schedule(eq.now() + 100, ev, doomedFn, 0);
        eq.schedule(eq.now() + 1, ev, firedFn, 0);
        doomed.cancel();
        eq.runUntil(eq.now() + 1);
    }
    EXPECT_EQ(fired, 10'000);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.liveCount(), 0u);
}

TEST(EventQueueStressTest, CancelOfFiredHandleBeforeSlotReuse)
{
    EventQueue eq;
    ClosureCallee ev;
    int fired = 0;
    auto h1 = ev.schedule(eq, 10, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(h1.pending());

    // h1's slot now sits on the free list (same generation epoch as
    // when it was retired -- nothing has reused it yet).  Cancelling
    // must not corrupt the free list or the live count.
    h1.cancel();
    EXPECT_EQ(eq.liveCount(), 0u);

    // The next schedule reuses that very slot (LIFO free list).  The
    // stale handle must not be able to cancel the new occupant.
    int fired2 = 0;
    auto h2 = ev.schedule(eq, 20, [&] { ++fired2; });
    h1.cancel();
    EXPECT_TRUE(h2.pending());
    EXPECT_EQ(eq.liveCount(), 1u);
    eq.runUntil(20);
    EXPECT_EQ(fired2, 1);
    EXPECT_FALSE(h2.pending());
}

TEST(EventQueueStressTest, HandleOutlivesFiredSlotReuse)
{
    EventQueue eq;
    ClosureCallee ev;
    int fired = 0;
    auto old = ev.schedule(eq, 10, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);

    // The slot is recycled by later events; the stale handle must
    // neither report pending nor cancel its successor.
    int successors = 0;
    for (int i = 0; i < 64; ++i)
        ev.schedule(eq, 20, [&] { ++successors; });
    EXPECT_FALSE(old.pending());
    old.cancel();
    eq.runUntil(20);
    EXPECT_EQ(successors, 64);
}

TEST(EventQueueStressTest, SelfCancelDuringCallbackIsSafe)
{
    EventQueue eq;
    ClosureCallee ev;
    int fired = 0;
    EventHandle self;
    self = ev.schedule(eq, 10, [&] {
        ++fired;
        // Firing retires the slot before the callback runs, so a
        // handle to the event being executed is already stale.
        EXPECT_FALSE(self.pending());
        self.cancel();
    });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueStressTest, RescheduleFromCallbackKeepsOrdering)
{
    EventQueue eq;
    ClosureCallee ev;
    std::vector<int> order;
    EventHandle pending;
    // A callback cancels a sibling and schedules a replacement at
    // the same tick; the replacement runs after everything already
    // queued for that tick (fresh sequence number).
    ev.schedule(eq, 10, [&] {
        order.push_back(0);
        pending.cancel();
        ev.schedule(eq, 10, [&] { order.push_back(3); });
    });
    pending = ev.schedule(eq, 10, [&] { order.push_back(-1); });
    ev.schedule(eq, 10, [&] { order.push_back(1); });
    ev.schedule(eq, 10, [&] { order.push_back(2); });
    eq.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

} // namespace
} // namespace refsched
