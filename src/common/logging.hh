/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * fatal() reports user/configuration errors; panic() reports internal
 * simulator bugs. Both throw sim::SimError (common/sim_error.hh) —
 * library code never exits the process; only the CLI mains in bench/
 * and tools/ catch at top level and terminate. warn() prints and
 * continues.
 */

#ifndef REGLESS_COMMON_LOGGING_HH
#define REGLESS_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace regless
{

/** Severity of a log message. */
enum class LogLevel
{
    Warn,
    Fatal,
    Panic,
};

namespace detail
{

/** Raise the error: throws sim::SimError for Fatal and Panic. */
[[noreturn]] void logAndDie(LogLevel level, const std::string &msg);

/** Emit a non-terminating message. */
void logMessage(LogLevel level, const std::string &msg);

/** Fold a parameter pack into one string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/**
 * Report a condition that prevents the simulation from continuing and is
 * the user's fault (bad configuration, invalid arguments).
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::logAndDie(LogLevel::Fatal,
                      detail::formatMessage(std::forward<Args>(args)...));
}

/**
 * Report a condition that should never happen regardless of user input,
 * i.e. an internal simulator bug.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::logAndDie(LogLevel::Panic,
                      detail::formatMessage(std::forward<Args>(args)...));
}

/**
 * The exit status of a CLI main that finished with @a status: flush
 * standard output and, when its bytes could not all be written (a
 * full disk, a closed pipe), say so on stderr and return 1, so a lost
 * report never exits 0.
 */
int finishStdout(int status);

/** Report suspicious but survivable behaviour. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::logMessage(LogLevel::Warn,
                       detail::formatMessage(std::forward<Args>(args)...));
}

} // namespace regless

#endif // REGLESS_COMMON_LOGGING_HH
