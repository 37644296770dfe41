/**
 * @file
 * Figure-generator registry for the paper's evaluation. Each table
 * and figure is a function that declares the simulation points it
 * needs on a shared ExperimentEngine and then formats the results, so
 * the common Rodinia × provider grid is simulated once per report run
 * (and zero times on a warm cache). The `regless_report` driver runs
 * every generator, or one with `--filter <name>`.
 */

#ifndef REGLESS_BENCH_FIGURES_FIGURES_HH
#define REGLESS_BENCH_FIGURES_FIGURES_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment_engine.hh"

namespace regless::figures
{

/** Everything a generator needs: where to simulate, where to print. */
struct FigureContext
{
    sim::ExperimentEngine &engine;
    std::ostream &out;
};

/** One registered table/figure generator. */
struct Figure
{
    /** Registry key and --filter name, e.g. "fig16_runtime". */
    const char *name;
    /** Banner title. */
    const char *title;
    /** Banner paper reference, e.g. "Figure 16". */
    const char *paperRef;
    void (*generate)(FigureContext &ctx);
};

/** Every generator, in the paper's figure order. */
const std::vector<Figure> &allFigures();

/** Lookup by exact name; nullptr when absent. */
const Figure *findFigure(const std::string &name);

/**
 * Print the banner and run the generator. A SimError escaping the
 * generator — a failed job whose stats() a figure insists on, or a
 * config error — is caught and rendered as a "# figure skipped" line,
 * so one bad figure never aborts the report.
 */
void runFigure(const Figure &figure, FigureContext &ctx);

/** @name The regless_report command line. */
/// @{
struct ReportOptions
{
    /** Substring filters on figure names; empty = all. */
    std::vector<std::string> filters;
    /** Worker threads (0 = auto). */
    unsigned jobs = 0;
    /** Write every unique RunStats as a JSON array here. */
    std::string jsonPath;
    /** On-disk memoization of simulation points. */
    bool cache = true;
    std::string cacheDir = sim::kDefaultCacheDir;
    /** Strict gate: lint every kernel once before simulating it. */
    bool lint = false;
    /** List figure names and exit. */
    bool list = false;
    /** Hard cycle budget forced onto every job (0 = per-job default). */
    Cycle maxCycles = 0;
    /** Per-job wall-clock budget in seconds (0 = unlimited). */
    double jobTimeoutSec = 0.0;
    /**
     * Fault drill: submit one doomed job with an injected OSU-slot
     * leak so the watchdog, the failure footer, and the isolation of
     * healthy jobs can be exercised end to end.
     */
    bool injectDeadlock = false;
};

/**
 * Parse the flags (--filter, --jobs, --json, --no-cache, --cache-dir,
 * --lint, --list, --max-cycles, --job-timeout, --inject-deadlock).
 * Throws FlagError naming the flag on an unknown flag or a missing
 * value, and naming the flag and the value when a numeric value is
 * not one whole non-negative number token.
 */
ReportOptions parseReportOptions(int argc, char **argv);

/** Engine configured from @a options. */
sim::ExperimentEngine::Options engineOptions(
    const ReportOptions &options);
/// @}

} // namespace regless::figures

#endif // REGLESS_BENCH_FIGURES_FIGURES_HH
