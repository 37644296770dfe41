/**
 * @file
 * ExperimentEngine: the evaluation layer's job scheduler. A SimJob is
 * one simulation point — (kernel, canonical GpuConfig fingerprint,
 * SM count). Submitted jobs are deduplicated, executed in parallel on
 * the engine's own thread pool (results are bit-identical for every
 * worker count), and memoized in a persistent on-disk JSON cache keyed
 * by the config fingerprint, so a warm rerun of the full paper report
 * performs zero simulations. See DESIGN.md §7.
 *
 * A flush runs in three steps. On the pool: the lint gate builds,
 * compiles and lints each new (kernel, compiler config), and each
 * pending entry's cache file is read and parsed. On the calling
 * thread, in submission order: the first lint failure is raised
 * before anything is counted or served, then each read is counted
 * and the hits are served. On the pool again: the misses are
 * simulated, and then published serially.
 *
 * Jobs are fault-isolated (DESIGN.md §9): an exception or watchdog
 * trip inside one job is captured as that job's JobResult without
 * disturbing its siblings, failures are negative-cached, and a flush
 * always completes. Consumers that need hard results use stats()
 * (throws on a failed job); report code uses tryStats()/result() and
 * annotates the gap.
 *
 * The on-disk cache is the JobCache subsystem (DESIGN.md §15):
 * sharded, crash-tolerant, safe under concurrent writer processes,
 * and degrading structurally (read-only / disabled, surfaced in the
 * report footer) instead of ever failing a run. Processes may share
 * one cache directory; each simulates only what is not cached yet.
 */

#ifndef REGLESS_SIM_EXPERIMENT_ENGINE_HH
#define REGLESS_SIM_EXPERIMENT_ENGINE_HH

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hh"
#include "ir/kernel.hh"
#include "sim/gpu_config.hh"
#include "sim/job_cache.hh"
#include "sim/run_stats.hh"
#include "sim/stats_io.hh"

namespace regless::sim
{

/** One deduplicatable simulation point. */
struct SimJob
{
    /**
     * Kernel name: a Rodinia benchmark name unless @a builder is set,
     * in which case it is the builder's display/cache name and must
     * uniquely identify the built kernel.
     */
    std::string kernel;

    GpuConfig config;

    /**
     * 0 (the default) simulates one standalone SM with GpuSimulator;
     * >= 1 uses the multi-SM executor with that many SMs. These are
     * distinct simulations even at one SM — the multi-SM executor
     * models the shared DRAM differently — so they never share a
     * cache entry.
     */
    unsigned sms = 0;

    /** Optional kernel factory for non-Rodinia kernels. */
    std::function<ir::Kernel()> builder;
};

/**
 * Outcome of one executed (or cache-served) job: its status, the
 * stats when it succeeded, and the failure diagnosis when it did not.
 */
struct JobResult
{
    JobStatus status = JobStatus::Ok;
    RunStats stats;
    /** what() of the escaped exception (Failed / Deadlocked). */
    std::string error;
    /** Rendered DeadlockReport (Deadlocked only). */
    std::string deadlock;
    /** Execution attempts (> 1 when a transient fault was retried). */
    unsigned attempts = 1;
};

/** Deduplicating, parallel, disk-cached simulation executor. */
class ExperimentEngine
{
  public:
    struct Options
    {
        /** Worker threads of the engine's pool, the calling thread
         * included; 0 = one per core. */
        unsigned jobs = 0;

        /** Cache directory; empty disables the on-disk cache. */
        std::string cacheDir;

        /**
         * Run the static staging-state verifier on every kernel
         * before simulating (or serving cached results for) it, and
         * fatal() on any error-severity finding. Lint verdicts are
         * memoized per (kernel, compiler config), so a grid sweeping
         * runtime parameters lints each kernel exactly once. New
         * kernels are linted on the pool; a flush raises the first
         * failure in submission order. A rejected kernel stays
         * rejected: every later flush with a pending job of it raises
         * the same error before reading the cache.
         */
        bool lint = false;

        /**
         * Hard cycle budget forced onto every submitted job's
         * SmConfig (0 keeps each job's own). Applied at submit() so
         * the cache fingerprint reflects it.
         */
        Cycle maxCycles = 0;

        /** Per-job wall-clock budget in seconds (0 = unlimited). */
        double jobTimeoutSec = 0.0;

        /** Re-executions allowed after a (non-deadlock) failure. */
        unsigned retries = 1;

        /** Base delay before a retry, in milliseconds (doubles per
         * attempt). */
        unsigned retryBackoffMs = 10;

        /** Never write cache entries (reads still hit). */
        bool cacheReadOnly = false;

        /** Chaos injection into the cache layer (tests only). */
        CacheFaultPlan cacheFaults;
    };

    /** Handle to a submitted job, valid for this engine's lifetime. */
    using JobId = std::size_t;

    ExperimentEngine();
    explicit ExperimentEngine(Options options);

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    /**
     * Register a job. Jobs with the same (kernel, fingerprint, sms)
     * key collapse onto one JobId; nothing executes until flush() or
     * the first stats() call, so submit the whole grid first for
     * maximal parallelism.
     */
    JobId submit(const SimJob &job);

    /** Convenience: Rodinia kernel @a name under @a config. */
    JobId submit(const std::string &name, const GpuConfig &config);

    /** Convenience: canonical configuration for @a kind. */
    JobId submit(const std::string &name, ProviderKind kind);

    /**
     * Results for @a id. Flushes all pending jobs on first use, so
     * point queries after a batched submit phase stay parallel.
     * Throws SimError (naming the job) when the job failed or
     * deadlocked — use result()/tryStats() to handle failures.
     */
    const RunStats &stats(JobId id);

    /** Full outcome for @a id (flushes like stats()). */
    const JobResult &result(JobId id);

    /** stats(), or nullptr when the job failed or deadlocked. */
    const RunStats *tryStats(JobId id);

    /** Execute every submitted-but-pending job now. Captures per-job
     * failures instead of propagating them: always completes. */
    void flush();

    /** Unique successful runs, in first-submission order (failed and
     * deadlocked jobs are excluded). */
    std::vector<RunStats> allStats();

    /** @name Engine accounting (the report footer). */
    /// @{
    /** submit() calls, before deduplication. */
    std::uint64_t pointsRequested() const { return _requested; }
    /** Distinct simulation points. */
    std::uint64_t pointsUnique() const { return _entries.size(); }
    /** Points actually simulated by this engine. */
    std::uint64_t simulated() const { return _simulated; }
    /** Points served from the on-disk cache. */
    std::uint64_t cacheHits() const { return _cacheHits; }
    /** Distinct (kernel, compiler config) pairs that linted clean
     * (Options::lint). */
    std::uint64_t kernelsLinted() const { return _lintedClean; }
    /** Jobs that failed with an exception (fresh or cache-served). */
    std::uint64_t failed() const { return countStatus(JobStatus::Failed); }
    /** Jobs terminated by the forward-progress watchdog. */
    std::uint64_t deadlocked() const
    {
        return countStatus(JobStatus::Deadlocked);
    }
    /** Re-executions performed after transient failures. */
    std::uint64_t retried() const;
    /// @}

    /** The on-disk cache behind this engine (Disabled when no
     * cacheDir was configured): mode, degradation reason, and the
     * counters the report footer prints. */
    const JobCache &cache() const { return _cache; }

    /** Ids of flushed jobs that failed or deadlocked, in submission
     * order (for the report's failure footer). */
    std::vector<JobId> failedJobs() const;

    /** The deduplicated job behind @a id (for failure reporting). */
    const SimJob &job(JobId id) const;

    const Options &options() const { return _options; }

    /**
     * Cache-entry leaf filename for a job, exposed for tests that
     * corrupt or inspect entries. The entry itself lives under a
     * shard subdirectory — see cacheEntryPath().
     */
    static std::string cacheFileName(const SimJob &job);

    /** cacheFileName() of a job whose jobFingerprint() is known. */
    static std::string cacheFileName(const SimJob &job,
                                     std::uint64_t fingerprint);

    /** Cache-entry path relative to the cache directory, shard
     * subdirectory included ("ab/kernel-provider-0sm-….json"). */
    static std::filesystem::path cacheEntryPath(const SimJob &job);

    /** The fingerprint of @a job (config + kernel + sms + schema):
     * the cache key, which also picks the entry's shard directory. */
    static std::uint64_t jobFingerprint(const SimJob &job);

  private:
    struct Entry
    {
        SimJob job;
        /** jobFingerprint(job), computed once at submit(). */
        std::uint64_t fingerprint = 0;
        JobResult result;
        bool done = false;
    };

    void storeToCache(const Entry &entry);
    static RunStats execute(const SimJob &job, double timeout_sec);
    static JobResult runIsolated(SimJob job, const Options &options);

    std::uint64_t countStatus(JobStatus status) const;

    /** Rethrow the lint failure of the first pending entry, in
     * submission order, that has one. */
    void raiseFirstLintFailure(const std::vector<Entry *> &pending) const;

    Options _options;
    JobCache _cache;
    std::deque<Entry> _entries;
    std::unordered_map<std::string, JobId> _index;
    std::uint64_t _requested = 0;
    std::uint64_t _simulated = 0;
    std::uint64_t _cacheHits = 0;

    /**
     * Lint verdict per (kernel name + compiler config) key: null when
     * the key linted clean, else the error its build, compile or lint
     * raised, which every later flush of the key raises again.
     */
    std::unordered_map<std::string, std::exception_ptr> _lintVerdicts;
    std::uint64_t _lintedClean = 0;

    /** Made at the first flush with work. Declared last, so its
     * workers are joined before the state their tasks read is
     * destroyed. */
    std::optional<ThreadPool> _pool;
};

} // namespace regless::sim

#endif // REGLESS_SIM_EXPERIMENT_ENGINE_HH
