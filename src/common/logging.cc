#include "common/logging.hh"

#include <cstdio>
#include <iostream>

#include "common/sim_error.hh"

namespace regless
{

namespace
{

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Warn: return "warn";
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Panic: return "panic";
    }
    return "?";
}

} // namespace

namespace detail
{

void
logMessage(LogLevel level, const std::string &msg)
{
    std::cerr << levelName(level) << ": " << msg << "\n";
}

void
logAndDie(LogLevel level, const std::string &msg)
{
    // The library never terminates the process: the error unwinds to
    // the caller (the experiment engine isolates it per job; the CLI
    // mains catch, print, and pick an exit status).
    throw sim::SimError(level == LogLevel::Panic
                            ? sim::SimErrorKind::Internal
                            : sim::SimErrorKind::Config,
                        msg);
}

} // namespace detail

int
finishStdout(int status)
{
    std::cout.flush();
    if (std::cout && std::fflush(stdout) == 0 && !std::ferror(stdout))
        return status;
    detail::logMessage(LogLevel::Fatal, "cannot write standard output");
    return 1;
}

} // namespace regless
