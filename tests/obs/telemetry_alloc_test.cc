/**
 * @file
 * Overhead guard for the telemetry layer: once the sample buffers
 * are reserved, the sampling hot path (the periodic sampling event
 * and its samplePass) must not allocate -- it runs once per
 * simulated microsecond on every configuration that enables
 * telemetry.  Enforced by the binary-wide counting operator
 * new replacement in alloc_watch.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_watch.hh"
#include "obs/telemetry.hh"
#include "simcore/event_queue.hh"

namespace refsched::obs
{

using testutil::AllocWatch;
namespace
{

TelemetryConfig
enabledConfig(Tick period)
{
    TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.periodTicks = period;
    return cfg;
}

TEST(TelemetryAllocTest, ReservedSamplingIsAllocationFree)
{
    TelemetryRecorder rec(enabledConfig(100));
    std::int64_t gauge = 0, counter = 0;
    rec.addGauge("ch0.readQ", 1, [&gauge] { return gauge; });
    rec.addDelta("ch0.reads", 1, [&counter] { return counter; });
    rec.addDelta("core0.instrs", 2, [&counter] { return counter; });
    rec.reserveSamples(1000);
    EventQueue eq;
    rec.armPeriodic(eq);

    AllocWatch watch;
    for (int i = 1; i <= 1000; ++i) {
        gauge = i % 7;
        counter += 13;
        // One period per step: exactly one sampling event fires.
        eq.runUntil(static_cast<Tick>(i) * 100);
    }
    EXPECT_EQ(watch.count(), 0u)
        << "telemetry sampling allocated after reserveSamples";
    EXPECT_EQ(rec.passCount(), 1000u);
}

TEST(TelemetryAllocTest, RestartKeepsCapacity)
{
    TelemetryRecorder rec(enabledConfig(100));
    std::int64_t counter = 0;
    rec.addDelta("sched.quanta", 0, [&counter] { return counter; });
    rec.reserveSamples(500);
    for (int i = 1; i <= 500; ++i) {
        counter += 2;
        rec.samplePass(static_cast<Tick>(i) * 100);
    }

    // Measurement reset clears the buffers but must not shed their
    // capacity: the measured phase samples at the same cadence.
    rec.restart();
    AllocWatch watch;
    for (int i = 1; i <= 500; ++i) {
        counter += 2;
        rec.samplePass(static_cast<Tick>(i) * 100);
    }
    EXPECT_EQ(watch.count(), 0u)
        << "post-restart sampling re-allocated the buffers";
    EXPECT_EQ(rec.passCount(), 500u);
}

} // namespace
} // namespace refsched::obs
