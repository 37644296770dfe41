/**
 * @file
 * Strict number parsing for command-line flags, shared by every CLI.
 * strtoul and its kin read a prefix ("512abc" is 512), stop at an
 * exponent ("1e6" is 1) and wrap negatives ("-1" is 4294967295);
 * these helpers take the whole token or reject it.
 */

#ifndef REGLESS_COMMON_FLAGS_HH
#define REGLESS_COMMON_FLAGS_HH

#include <charconv>
#include <string>
#include <string_view>

#include "common/sim_error.hh"

namespace regless
{

/**
 * A malformed command-line value. It is a SimError, so callers that
 * catch those need nothing new; the CLI mains catch it first and
 * exit 2, before any kernel is built.
 */
class FlagError : public sim::SimError
{
  public:
    explicit FlagError(const std::string &what)
        : SimError(sim::SimErrorKind::Config, what)
    {
    }
};

/** All of @a text as a non-negative T in @a out; false otherwise. */
template <typename T>
bool
parseNumber(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end && out >= T{};
}

/** The whole of @a text as a non-negative T; a FlagError naming
 *  @a flag and @a text otherwise. */
template <typename T>
T
flagNumber(const std::string &flag, const std::string &text)
{
    T out{};
    if (!parseNumber(text, out))
        throw FlagError(flag + " wants a non-negative number, got '" +
                        text + "'");
    return out;
}

} // namespace regless

#endif // REGLESS_COMMON_FLAGS_HH
