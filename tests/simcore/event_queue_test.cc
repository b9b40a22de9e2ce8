/** @file Unit tests for the discrete-event kernel. */

#include "simcore/event_queue.hh"

#include <gtest/gtest.h>

#include <vector>

#include "simcore/logging.hh"
#include "testutil/closure_callee.hh"

namespace refsched
{
namespace
{

using testutil::ClosureCallee;

TEST(EventQueueTest, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.nextEventTick(), kMaxTick);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue eq;
    ClosureCallee ev;
    std::vector<int> order;
    ev.schedule(eq, 30, [&] { order.push_back(3); });
    ev.schedule(eq, 10, [&] { order.push_back(1); });
    ev.schedule(eq, 20, [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueueTest, SameTickFifoWithinPriority)
{
    EventQueue eq;
    ClosureCallee ev;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        ev.schedule(eq, 42, [&order, i] { order.push_back(i); });
    eq.runUntil(42);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PriorityOrdersSameTick)
{
    EventQueue eq;
    ClosureCallee ev;
    std::vector<int> order;
    ev.schedule(eq, 5, [&] { order.push_back(2); },
                EventPriority::Scheduler);
    ev.schedule(eq, 5, [&] { order.push_back(0); },
                EventPriority::ClockEdge);
    ev.schedule(eq, 5, [&] { order.push_back(3); },
                EventPriority::StatDump);
    ev.schedule(eq, 5, [&] { order.push_back(1); },
                EventPriority::Default);
    eq.runUntil(5);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTest, RunUntilIsInclusiveAndAdvancesTime)
{
    EventQueue eq;
    ClosureCallee ev;
    int fired = 0;
    ev.schedule(eq, 100, [&] { ++fired; });
    ev.schedule(eq, 101, [&] { ++fired; });
    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.runUntil(200), 1u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 200u);
}

TEST(EventQueueTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    ClosureCallee ev;
    ev.schedule(eq, 50, [] {});
    eq.runUntil(60);
    EXPECT_THROW(ev.schedule(eq, 10, [] {}), PanicError);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue eq;
    ClosureCallee ev;
    int fired = 0;
    auto handle = ev.schedule(eq, 10, [&] { ++fired; });
    EXPECT_TRUE(handle.pending());
    handle.cancel();
    EXPECT_FALSE(handle.pending());
    eq.runUntil(20);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, CancelIsIdempotentAndSafeAfterFire)
{
    EventQueue eq;
    ClosureCallee ev;
    auto handle = ev.schedule(eq, 10, [] {});
    eq.runUntil(10);
    EXPECT_FALSE(handle.pending());
    handle.cancel();  // no-op
    handle.cancel();
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    ClosureCallee ev;
    std::vector<Tick> at;
    std::uint64_t chain = 0;
    chain = ev.add([&] {
        at.push_back(eq.now());
        if (at.size() < 4)
            eq.schedule(eq.now() + 10, ev, chain, 0);
    });
    eq.schedule(0, ev, chain, 0);
    eq.runUntil(1000);
    EXPECT_EQ(at, (std::vector<Tick>{0, 10, 20, 30}));
}

TEST(EventQueueTest, NextEventTickSkipsCancelled)
{
    EventQueue eq;
    ClosureCallee ev;
    auto h = ev.schedule(eq, 10, [] {});
    ev.schedule(eq, 20, [] {});
    h.cancel();
    EXPECT_EQ(eq.nextEventTick(), 20u);
}

TEST(EventQueueTest, RunOneExecutesSingleEvent)
{
    EventQueue eq;
    ClosureCallee ev;
    int fired = 0;
    ev.schedule(eq, 5, [&] { ++fired; });
    ev.schedule(eq, 6, [&] { ++fired; });
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueueTest, ExecutedCountAccumulates)
{
    EventQueue eq;
    ClosureCallee ev;
    for (int i = 0; i < 7; ++i)
        ev.schedule(eq, static_cast<Tick>(i), [] {});
    eq.runUntil(100);
    EXPECT_EQ(eq.executedCount(), 7u);
}

TEST(EventQueueTest, ScheduleAtCurrentTickRuns)
{
    EventQueue eq;
    ClosureCallee ev;
    ev.schedule(eq, 10, [] {});
    eq.runUntil(10);
    int fired = 0;
    ev.schedule(eq, 10, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
}

} // namespace
} // namespace refsched
