/**
 * @file
 * End-to-end validation runs: every policy bundle the paper
 * evaluates, simulated with the full checker set attached
 * (cfg.validate), must complete with zero invariant violations, and
 * the checker plumbing (metrics fields, external probes sharing the
 * hub) must behave as documented.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/system.hh"
#include "validate/checker.hh"
#include "validate/golden_trace.hh"

namespace refsched::validate
{
namespace
{

constexpr core::Policy kPolicies[] = {
    core::Policy::AllBank,    core::Policy::PerBank,
    core::Policy::PerBankOoo, core::Policy::Ddr4x2,
    core::Policy::Ddr4x4,     core::Policy::Adaptive,
    core::Policy::CoDesign,   core::Policy::NoRefresh,
};

core::SystemConfig
smallConfig(core::Policy policy)
{
    core::SystemConfig cfg = core::makeConfig(
        "WL-8", policy, dram::DensityGb::d32, milliseconds(64.0),
        /*numCores=*/2, /*tasksPerCore=*/4, /*timeScale=*/1024);
    cfg.validate = true;
    return cfg;
}

TEST(ValidateIntegrationTest, AllPoliciesRunCleanUnderValidation)
{
    for (const auto policy : kPolicies) {
        SCOPED_TRACE(core::toString(policy));
        core::System sys(smallConfig(policy));
        ASSERT_NE(sys.checkers(), nullptr);
        EXPECT_EQ(sys.checkers()->checkers().size(), 4u);

        const core::Metrics m = sys.run(1, 2);
        EXPECT_EQ(m.validationViolations, 0u) << m.firstViolation;
        EXPECT_TRUE(m.firstViolation.empty()) << m.firstViolation;
        EXPECT_EQ(sys.checkers()->violationCount(), 0u);
        EXPECT_EQ(sys.checkers()->firstViolation(), nullptr);
    }
}

TEST(ValidateIntegrationTest, ExternalProbeSharesTheHubWithCheckers)
{
    core::SystemConfig cfg = smallConfig(core::Policy::CoDesign);
    TraceRecorder rec;
    core::System sys(cfg);
    sys.attachProbe(&rec);
    const core::Metrics m = sys.run(1, 2);
    EXPECT_EQ(m.validationViolations, 0u) << m.firstViolation;
    // The recorder saw the same event stream the checkers audited.
    EXPECT_GT(rec.eventCount(), 0u);
}

TEST(ValidateIntegrationTest, ValidationOffInstallsNoCheckers)
{
    core::SystemConfig cfg = smallConfig(core::Policy::AllBank);
    cfg.validate = false;
    core::System sys(cfg);
    EXPECT_EQ(sys.checkers(), nullptr);
    const core::Metrics m = sys.run(1, 2);
    EXPECT_EQ(m.validationViolations, 0u);
    EXPECT_TRUE(m.firstViolation.empty());
}

} // namespace
} // namespace refsched::validate
