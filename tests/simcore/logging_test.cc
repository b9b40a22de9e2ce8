/** @file Tests for the logging/error-reporting facility. */

#include "simcore/logging.hh"

#include <gtest/gtest.h>

namespace refsched
{
namespace
{

class LoggingTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = logLevel(); }
    void TearDown() override { setLogLevel(saved_); }
    LogLevel saved_ = LogLevel::Warn;
};

TEST_F(LoggingTest, LevelIsSettable)
{
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
}

TEST_F(LoggingTest, FatalThrowsFatalError)
{
    try {
        fatal("bad value: ", 42, " in ", "config");
        FAIL() << "fatal() must not return";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad value: 42 in config");
    }
}

TEST_F(LoggingTest, PanicThrowsPanicError)
{
    try {
        panic("broken invariant ", 7);
        FAIL() << "panic() must not return";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "broken invariant 7");
    }
}

TEST_F(LoggingTest, ErrorsHaveDistinctBases)
{
    // fatal = user error (runtime_error); panic = bug (logic_error):
    // callers can catch them separately.
    EXPECT_THROW(fatal("x"), std::runtime_error);
    EXPECT_THROW(panic("x"), std::logic_error);
    bool fatalIsLogic = true;
    try {
        fatal("x");
    } catch (const std::logic_error &) {
    } catch (...) {
        fatalIsLogic = false;
    }
    EXPECT_FALSE(fatalIsLogic);
}

TEST_F(LoggingTest, AssertMacroPanicsWithContext)
{
    const int x = 3;
    try {
        REFSCHED_ASSERT(x == 4, "x was ", x);
        FAIL();
    } catch (const PanicError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("x == 4"), std::string::npos);
        EXPECT_NE(msg.find("x was 3"), std::string::npos);
    }
    REFSCHED_ASSERT(x == 3, "must not throw");
}

TEST_F(LoggingTest, AssertElisionMatchesBuildConfiguration)
{
    // Asserts are compiled into every build: the condition is evaluated
    // exactly once and a false result panics.
    int evaluations = 0;
    auto failing = [&evaluations] {
        ++evaluations;
        return false;
    };
    EXPECT_THROW(REFSCHED_ASSERT(failing(), "must fire"), PanicError);
    EXPECT_EQ(evaluations, 1);
}

TEST_F(LoggingTest, FormatConcatenatesMixedTypes)
{
    EXPECT_EQ(detail::format("a", 1, 'b', 2.5), "a1b2.5");
    EXPECT_EQ(detail::format(), "");
}

TEST_F(LoggingTest, WarnAndInformRespectLevels)
{
    // These must not throw at any level; output goes to stderr.
    setLogLevel(LogLevel::Quiet);
    warn("suppressed");
    inform("suppressed");
    setLogLevel(LogLevel::Debug);
    warn("emitted");
    inform("emitted");
}

} // namespace
} // namespace refsched
