/**
 * @file
 * gem5-style status/error reporting: inform/warn for user-visible
 * status, fatal for user errors (throws FatalError so library users
 * and tests can catch it), panic for internal invariant violations.
 */

#ifndef REFSCHED_SIMCORE_LOGGING_HH
#define REFSCHED_SIMCORE_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace refsched
{

/** Thrown by fatal(): the simulation cannot continue due to a
 *  configuration or usage error (the user's fault, not a bug). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Thrown by panic(): an internal invariant was violated (a bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

/** Verbosity levels for status messages. */
enum class LogLevel { Quiet, Warn, Inform, Debug };

/** Global verbosity; defaults to Warn so tests and benches stay
 *  quiet unless something is wrong. */
LogLevel logLevel();
void setLogLevel(LogLevel level);

namespace detail
{

void emit(const char *tag, const std::string &msg);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    static_cast<void>((os << ... << args));
    return os.str();
}

} // namespace detail

/** Informative message users should know but not worry about. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() >= LogLevel::Inform)
        detail::emit("info", detail::format(std::forward<Args>(args)...));
}

/** Something might be wrong but the simulation can continue. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() >= LogLevel::Warn)
        detail::emit("warn", detail::format(std::forward<Args>(args)...));
}

/** Unrecoverable user error: bad configuration or arguments. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::format(std::forward<Args>(args)...));
}

/** Unrecoverable internal error: a simulator bug. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(detail::format(std::forward<Args>(args)...));
}

/** panic() unless @p cond holds; @p cond is evaluated exactly once. */
#define REFSCHED_ASSERT(cond, ...)                                        \
    do {                                                                  \
        if (!(cond))                                                      \
            ::refsched::panic("assertion failed: ", #cond, " ",           \
                              ##__VA_ARGS__);                             \
    } while (0)

} // namespace refsched

#endif // REFSCHED_SIMCORE_LOGGING_HH
