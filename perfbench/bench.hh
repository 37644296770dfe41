/**
 * @file
 * Shared pieces of the benchmark driver: run options, the result a
 * workload hands back, timing and percentile helpers, and the
 * digests the output checks compare against the reference.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "sim/run_stats.hh"

namespace perfbench
{

/** Everything one invocation was asked to do. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Worker threads for parallel passes: min(4, nproc). */
    unsigned threads = 1;
    /** Scratch directory for cache trees (inside the checkout). */
    std::filesystem::path workDir;
    /** Where the traced run writes its spans (empty: nowhere). */
    std::filesystem::path spansPath;
    /** Expected digests by key ("chip64", "figures", "results");
     *  an absent key is reported but not checked. */
    std::map<std::string, std::string> reference;
};

/** What a workload measured, before it is printed. */
struct Result
{
    /** Metric name -> value; units come from the metric table. */
    std::map<std::string, double> metrics;
    /** Jobs attempted and jobs that failed, deadlocked or produced
     *  output that did not match the reference. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Digests observed, by reference key (printed for the record). */
    std::map<std::string, std::string> digests;
    /** Human-readable reasons for every failure counted. */
    std::vector<std::string> problems;
    /** The samples each timed median was taken over, in run order. */
    std::map<std::string, std::vector<double>> samples;

    /**
     * Compare @a observed against the reference for @a key: record it,
     * and count a failure when it differs from the reference or from
     * an earlier observation in this run.
     */
    void checkDigest(const Options &options, const std::string &key,
                     const std::string &observed);
};

/** Seconds on the monotonic clock since an arbitrary origin. */
double now();

/** User + system CPU seconds of the whole process so far. */
double cpuNow();

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Median of @a samples (0 when empty). */
double median(std::vector<double> samples);

/**
 * The highest-percentile sample that still has at least ten samples
 * beyond it (the largest sample when there are fewer than eleven).
 */
double tail(std::vector<double> samples);

/** Sum of @a samples. */
double total(const std::vector<double> &samples);

/** @a num / @a den, or 0 when there is nothing to divide by. */
double ratio(double num, double den);

/** FNV-1a 64-bit hash of @a text, as 16 hex digits. */
std::string digestText(const std::string &text);

/** Order-independent digest of a set of item digests. */
std::string digestSet(std::vector<std::string> digests);

/** The per-job result line (@a json is the job's toJson()) that
 *  output digests are built from. */
std::string resultLine(const std::string &json, unsigned sms);

/** sim.job_ms_p50, _tail and _max from per-job seconds. */
void addJobTimes(const std::vector<double> &jobs,
                 std::map<std::string, double> &out);

/**
 * Counts derived from simulated results, summed over @a runs into the
 * arch.*, mem.* and regless.* metrics of @a out. @a sm_cycles is the
 * cycles summed over every simulated SM and @a run_seconds the serial
 * host time spent in run(). @a simulated says whether these runs were
 * simulated in the pass (arch.* describes simulation work) or only
 * served from the cache.
 */
void addResultCounts(const std::vector<regless::sim::RunStats> &runs,
                     double sm_cycles, double run_seconds,
                     bool simulated, std::map<std::string, double> &out);

/**
 * Move the calling thread onto the next CPU it may run on, then lift
 * the pin again; every pass starts with this. On a shared host each
 * virtual CPU goes through slow and fast spells of several seconds,
 * and a single-threaded pass stays on whichever CPU it started on;
 * rotating the start CPU per pass lets a run's median see every CPU
 * instead of one.
 */
void rotateCpu();

/** Wall and CPU seconds of the timed passes of one kind. */
struct Samples
{
    std::vector<double> wall;
    std::vector<double> cpu;
};

/**
 * The timed phase every workload shares, a closed loop of one caller:
 * passes on options.threads workers, with one serial (1-thread) pass
 * after every @a ratio of them, until options.seconds have passed and
 * there are at least three parallel passes and one serial one. Odd
 * seeds start with the serial pass. @a pass is called as
 * pass(threads, samples) and appends its own timings.
 */
template <typename Pass>
void
timedPhase(const Options &options, unsigned ratio, Samples &parallel,
           Samples &serial, Pass &&pass)
{
    const double start = now();
    unsigned since_serial = options.seed % 2 ? ratio : 0;
    while (now() - start < options.seconds || parallel.wall.size() < 3 ||
           serial.wall.empty()) {
        if (since_serial >= ratio) {
            pass(1u, serial);
            since_serial = 0;
        } else {
            pass(options.threads, parallel);
            ++since_serial;
        }
    }
}

/**
 * The end-to-end metrics: medians of the set-up samples and of the
 * parallel and serial passes, and the process's peak memory. The
 * samples themselves are kept for the record.
 */
void addEndToEnd(const std::vector<double> &setups,
                 const Samples &parallel, const Samples &serial,
                 Result &result);

/** @name Workloads (chip64.cc, report.cc). */
/// @{
Result runChip64(const Options &options);
Result runReportCold(const Options &options);
Result runReportWarm(const Options &options);
/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
