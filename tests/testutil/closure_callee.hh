/**
 * @file
 * Test adapter onto the event kernel's one callback form: a Callee
 * that owns a list of closures and, when fired, runs the one whose
 * index is in arg0.  Kernel and controller tests keep writing event
 * bodies as lambdas through it; a closure that reschedules itself
 * reuses its own index.
 */

#ifndef REFSCHED_TESTS_TESTUTIL_CLOSURE_CALLEE_HH
#define REFSCHED_TESTS_TESTUTIL_CLOSURE_CALLEE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "simcore/event_queue.hh"

namespace refsched::testutil
{

class ClosureCallee final : public Callee
{
  public:
    /** Store @p fn; the returned index is the arg0 that fires it. */
    std::uint64_t
    add(std::function<void()> fn)
    {
        fns_.push_back(std::move(fn));
        return fns_.size() - 1;
    }

    /** Store @p fn and schedule it on @p eq at @p when. */
    EventHandle
    schedule(EventQueue &eq, Tick when, std::function<void()> fn,
             EventPriority prio = EventPriority::Default)
    {
        return eq.schedule(when, *this, add(std::move(fn)), 0, prio);
    }

    void
    fire(Tick, std::uint64_t idx, std::uint64_t) override
    {
        // A deque: closures added while this one runs never move it.
        fns_[idx]();
    }

  private:
    std::deque<std::function<void()>> fns_;
};

} // namespace refsched::testutil

#endif // REFSCHED_TESTS_TESTUTIL_CLOSURE_CALLEE_HH
