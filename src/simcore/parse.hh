/**
 * @file
 * The one number parser behind every input front end: argv flags,
 * serving specs, scenario scripts and fuzz-corpus files.  It checks
 * syntax only; whether a value makes a valid model is for the
 * check() functions (SystemConfig, RunOptions, ...) to say.
 */

#ifndef REFSCHED_SIMCORE_PARSE_HH
#define REFSCHED_SIMCORE_PARSE_HH

#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

#include "simcore/logging.hh"

namespace refsched
{

/**
 * Parse all of @p text as one T, or fatal() naming @p what.  No
 * whitespace, '+' sign or trailing junk: "12abc", "" and "-3" for an
 * unsigned T are errors, as are values T cannot hold and non-finite
 * doubles.  Doubles take decimal and exponent forms.
 */
template <typename T>
T
parseNumber(std::string_view text, std::string_view what)
{
    const char *end = text.data() + text.size();
    T v{};
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool ok = ec == std::errc{} && ptr == end && !text.empty();
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(v);
    if (!ok) {
        fatal(what, " wants ",
              std::is_floating_point_v<T> ? "a number"
                  : std::is_signed_v<T>   ? "an integer"
                                          : "a non-negative integer",
              ", got '", text, "'");
    }
    return v;
}

/** parseNumber() into @p field, its type naming T. */
template <typename T>
void
parseInto(T &field, std::string_view text, std::string_view what)
{
    field = parseNumber<T>(text, what);
}

/** The value of argv flag @p i, advancing @p i to it; fatal() when
 *  the command line ends first. */
inline const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal(argv[i], " needs a value");
    return argv[++i];
}

/** parseNumber() of argv flag @p i's value into @p field. */
template <typename T>
void
parseFlag(int argc, char **argv, int &i, T &field)
{
    const char *flag = argv[i];
    parseInto(field, flagValue(argc, argv, i), flag);
}

} // namespace refsched

#endif // REFSCHED_SIMCORE_PARSE_HH
