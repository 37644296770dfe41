/**
 * @file
 * regless_report: the whole paper evaluation as one binary. Every
 * figure/table generator declares its simulation points on a shared
 * ExperimentEngine, so the Rodinia × provider grid is simulated once
 * per report (and zero times on a warm cache — see the footer).
 *
 *   regless_report                      # full report
 *   regless_report --filter fig16      # matching figures only
 *   regless_report --jobs 8            # worker threads
 *   regless_report --json out.json     # dump every unique RunStats
 *   regless_report --no-cache          # ignore + don't write the cache
 *   regless_report --cache-dir DIR     # default .regless-cache
 *   regless_report --lint              # verify staging annotations of
 *                                      # every kernel before simulating
 *   regless_report --list              # figure names
 *   regless_report --max-cycles N      # hard cycle budget per job
 *   regless_report --job-timeout SEC   # wall-clock budget per job
 *   regless_report --inject-deadlock   # fault drill: one doomed job
 *   regless_report --help              # usage
 *
 * A failed or deadlocked job never aborts the report: its figures
 * annotate the gap, the footer counts failures, and each one is
 * rendered (with its DeadlockReport when the watchdog fired) after
 * the footer. The exit status is 0 whenever the report completed;
 * 2 on any usage error: an unknown flag, a missing or malformed
 * value, or a --filter that matches no figure (nothing runs then);
 * and 1 on any other fatal error, such as a --json file that cannot
 * be written.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/flags.hh"
#include "common/logging.hh"
#include "figures/figures.hh"
#include "sim/stats_io.hh"
#include "workloads/random_kernel.hh"

using namespace regless;

namespace
{

void
usage(std::ostream &os, const char *argv0)
{
    os << "usage: " << argv0
       << " [--filter SUBSTR] [--list] [--inject-deadlock]"
          " [--jobs N] [--json PATH] [--no-cache] [--cache-dir DIR]"
          " [--lint] [--max-cycles N] [--job-timeout SEC]\n";
}

bool
matches(const std::string &name,
        const std::vector<std::string> &filters)
{
    if (filters.empty())
        return true;
    for (const std::string &filter : filters) {
        if (name.find(filter) != std::string::npos)
            return true;
    }
    return false;
}

/**
 * The --inject-deadlock drill: a small kernel under RegLess whose
 * fault plan leaks every OSU slot at cycle 0, so no region ever fits
 * and the forward-progress watchdog must fire. The tight window keeps
 * the drill fast; the budget is a backstop should the watchdog break.
 */
sim::ExperimentEngine::JobId
submitDoomedJob(sim::ExperimentEngine &engine)
{
    sim::SimJob doomed;
    doomed.kernel = "injected_deadlock";
    doomed.config =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    doomed.config.faults.kind = FaultPlan::Kind::LeakOsuSlot;
    doomed.config.faults.triggerCycle = 0;
    doomed.config.sm.watchdogWindow = 20'000;
    doomed.config.sm.maxCycles = 2'000'000;
    doomed.builder = [] { return workloads::randomKernel(1); };
    return engine.submit(doomed);
}

/**
 * One structured line on the cache subsystem's health: the
 * degradation ladder surfaces here (never as a crash), and the
 * counters make a run's cache behaviour auditable after the fact
 * (DESIGN.md §15).
 */
void
printCacheFooter(const sim::ExperimentEngine &engine, std::ostream &os)
{
    const sim::JobCache &cache = engine.cache();
    if (!cache.enabled() && cache.options().dir.empty())
        return; // ran with --no-cache: nothing to report
    const sim::CacheCounters &c = cache.counters();
    os << "# cache: " << sim::cacheModeName(cache.mode()) << " ("
       << cache.options().dir << "): " << c.hits << " hits, "
       << c.misses << " misses, " << c.stores << " stores";
    if (c.storeFailures)
        os << ", " << c.storeFailures << " store failures";
    if (c.corrupt)
        os << ", " << c.corrupt << " corrupt entries healed";
    if (c.schemaRejects)
        os << ", " << c.schemaRejects << " schema rejects";
    if (c.janitorRemoved)
        os << ", " << c.janitorRemoved << " stale temps swept";
    os << "\n";
    if (cache.mode() != sim::CacheMode::ReadWrite)
        os << "# cache: degraded: " << cache.modeReason() << "\n";
}

void
printFailures(sim::ExperimentEngine &engine, std::ostream &os)
{
    for (sim::ExperimentEngine::JobId id : engine.failedJobs()) {
        const sim::JobResult &result = engine.result(id);
        const sim::SimJob &job = engine.job(id);
        os << "# " << sim::jobStatusName(result.status) << ": job '"
           << job.kernel << "' ("
           << sim::providerName(job.config.provider) << ", "
           << job.sms << " sms, " << result.attempts
           << (result.attempts == 1 ? " attempt)" : " attempts)")
           << ": " << result.error << "\n";
        if (result.deadlock.empty())
            continue;
        std::istringstream lines(result.deadlock);
        for (std::string line; std::getline(lines, line);)
            os << "#   " << line << "\n";
    }
}

int
run(int argc, char **argv)
{
    // Library code throws SimError; this main is the process-exit
    // boundary.
    try {
        for (int i = 1; i < argc; ++i) {
            if (std::string_view(argv[i]) == "--help") {
                usage(std::cout, argv[0]);
                return 0;
            }
        }
        figures::ReportOptions options =
            figures::parseReportOptions(argc, argv);

        if (options.list) {
            for (const figures::Figure &figure : figures::allFigures())
                std::cout << figure.name << "\n";
            return 0;
        }

        sim::ExperimentEngine engine(figures::engineOptions(options));
        figures::FigureContext ctx{engine, std::cout};

        if (options.injectDeadlock)
            submitDoomedJob(engine);

        unsigned ran = 0;
        for (const figures::Figure &figure : figures::allFigures()) {
            if (!matches(figure.name, options.filters))
                continue;
            if (ran++)
                std::cout << "\n";
            figures::runFigure(figure, ctx);
        }
        if (!ran)
            throw FlagError(
                "no figure matches the given --filter; try --list");
        engine.flush(); // the doomed job may be in no figure

        if (!options.jsonPath.empty()) {
            std::ofstream out(options.jsonPath,
                              std::ios::binary | std::ios::trunc);
            sim::writeJson(out, engine.allStats());
            out.flush();
            if (!out)
                fatal("cannot write '", options.jsonPath, "'");
        }

        std::cout << "\n# engine: " << engine.pointsRequested()
                  << " points requested, " << engine.pointsUnique()
                  << " unique, " << engine.simulated()
                  << " simulated, " << engine.cacheHits()
                  << " cache hits";
        if (options.lint)
            std::cout << ", " << engine.kernelsLinted()
                      << " kernels linted clean";
        std::cout << ", " << engine.failed() << " failed, "
                  << engine.deadlocked() << " deadlocked";
        if (engine.retried())
            std::cout << ", " << engine.retried() << " retried";
        std::cout << "\n";
        printCacheFooter(engine, std::cout);
        printFailures(engine, std::cout);
        return 0;
    } catch (const FlagError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        usage(std::cerr, argv[0]);
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return finishStdout(run(argc, argv));
}
