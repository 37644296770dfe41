#include "sim/experiment_engine.hh"

#include <cctype>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <limits>
#include <thread>
#include <unordered_set>

#include "common/logging.hh"
#include "compiler/staging_checker.hh"
#include "sim/gpu_simulator.hh"
#include "sim/multi_sm.hh"
#include "sim/stats_io.hh"
#include "workloads/rodinia.hh"

namespace regless::sim
{

namespace
{

std::string
sanitize(const std::string &name)
{
    std::string out;
    for (char c : name) {
        out.push_back(std::isalnum(static_cast<unsigned char>(c))
                          ? c
                          : '_');
    }
    return out;
}

/**
 * Calls @a visit(name, build) for each kernel @a job simulates, which
 * are also the ones the lint gate checks; build() makes the kernel.
 * Multi-tenant jobs name their co-resident kernels in
 * config.tenants.workloads; job.kernel stays the display and cache
 * name (the workloads are part of the config fingerprint). Any other
 * job runs its builder's kernel or the Rodinia kernel it names.
 */
template <typename Visit>
void
forEachJobKernel(const SimJob &job, Visit &&visit)
{
    if (job.config.tenants.workloads.size() >= 2) {
        for (const TenantWorkload &w : job.config.tenants.workloads)
            visit(w.kernel, [&] { return workloads::makeRodinia(w.kernel); });
    } else {
        visit(job.kernel, [&] {
            return job.builder ? job.builder()
                               : workloads::makeRodinia(job.kernel);
        });
    }
}

/** The lint gate's memo key of kernel @a name under the compiler
 * config whose compilerConfigText() is @a config_text. */
std::string
lintKey(const std::string &name, const std::string &config_text)
{
    return name + "|" + config_text;
}

/** One (kernel, compiler config) the lint gate has not checked yet. */
struct LintTask
{
    /** lintKey() of the kernel and its compiler config. */
    std::string key;
    /** Makes the kernel; refers into a pending entry's job. */
    std::function<ir::Kernel()> build;
    const compiler::CompilerConfig *config = nullptr;
};

/** Compile and lint @a kernel; fatal() on any error finding. */
void
lintKernel(const ir::Kernel &kernel, const compiler::CompilerConfig &config)
{
    const compiler::CompiledKernel ck = compiler::compile(kernel, config);
    compiler::LintOptions opts;
    opts.checkLoadUse = config.splitLoadUse;
    const std::vector<compiler::Finding> findings =
        compiler::lintCompiledKernel(ck, opts);
    if (compiler::hasErrors(findings)) {
        fatal("lint: kernel '", kernel.name(),
              "' failed staging verification:\n",
              compiler::formatFindings(findings));
    }
}

} // namespace

/** Fingerprint of everything that determines a job's results. */
std::uint64_t
ExperimentEngine::jobFingerprint(const SimJob &job)
{
    std::string text = configCanonicalText(job.config);
    text += "kernel=" + job.kernel + "\n";
    text += "sms=" + std::to_string(job.sms) + "\n";
    text += "schema=" + std::to_string(kJobCacheSchemaVersion) + "\n";
    return fnv1a(text);
}

std::string
ExperimentEngine::cacheFileName(const SimJob &job)
{
    return cacheFileName(job, jobFingerprint(job));
}

std::string
ExperimentEngine::cacheFileName(const SimJob &job,
                                std::uint64_t fingerprint)
{
    char hex[16];
    const auto end =
        std::to_chars(hex, hex + sizeof hex, fingerprint, 16).ptr;
    std::string name = sanitize(job.kernel);
    name += '-';
    name += providerName(job.config.provider);
    name += '-';
    name += std::to_string(job.sms);
    name += "sm-";
    name.append(hex, end);
    name += ".json";
    return name;
}

std::filesystem::path
ExperimentEngine::cacheEntryPath(const SimJob &job)
{
    const std::uint64_t fingerprint = jobFingerprint(job);
    return JobCache::relativePath(
        JobCache::Key{cacheFileName(job, fingerprint), fingerprint});
}

namespace
{

JobCache::Options
cacheOptions(const ExperimentEngine::Options &options)
{
    JobCache::Options cache;
    cache.dir = options.cacheDir;
    cache.readOnly = options.cacheReadOnly;
    cache.faults = options.cacheFaults;
    return cache;
}

} // namespace

ExperimentEngine::ExperimentEngine() : ExperimentEngine(Options{}) {}

ExperimentEngine::ExperimentEngine(Options options)
    : _options(std::move(options)), _cache(cacheOptions(_options))
{
}

ExperimentEngine::JobId
ExperimentEngine::submit(const SimJob &job)
{
    ++_requested;
    SimJob effective = job;
    // Apply the engine-wide cycle budget before fingerprinting, so
    // entries simulated under different budgets never share a key.
    if (_options.maxCycles)
        effective.config.sm.maxCycles = _options.maxCycles;
    const std::uint64_t fp = jobFingerprint(effective);
    auto [it, inserted] = _index.try_emplace(
        cacheFileName(effective, fp), _entries.size());
    if (inserted) {
        _entries.push_back(
            Entry{std::move(effective), fp, JobResult{}, false});
    }
    return it->second;
}

ExperimentEngine::JobId
ExperimentEngine::submit(const std::string &name,
                         const GpuConfig &config)
{
    return submit(SimJob{name, config, 0, {}});
}

ExperimentEngine::JobId
ExperimentEngine::submit(const std::string &name, ProviderKind kind)
{
    return submit(SimJob{name, GpuConfig::forProvider(kind), 0, {}});
}

const JobResult &
ExperimentEngine::result(JobId id)
{
    if (id >= _entries.size())
        panic("ExperimentEngine: unknown job id ", id);
    if (!_entries[id].done)
        flush();
    return _entries[id].result;
}

const RunStats &
ExperimentEngine::stats(JobId id)
{
    const JobResult &r = result(id);
    if (r.status != JobStatus::Ok) {
        const SimJob &job = _entries[id].job;
        throw SimError(
            r.status == JobStatus::Deadlocked ? SimErrorKind::Deadlock
                                              : SimErrorKind::Internal,
            "job '" + job.kernel + "' (" +
                providerName(job.config.provider) + ", " +
                std::to_string(job.sms) + " sms) " +
                jobStatusName(r.status) + ": " + r.error);
    }
    return r.stats;
}

const RunStats *
ExperimentEngine::tryStats(JobId id)
{
    const JobResult &r = result(id);
    return r.status == JobStatus::Ok ? &r.stats : nullptr;
}

RunStats
ExperimentEngine::execute(const SimJob &job, double timeout_sec)
{
    std::vector<ir::Kernel> kernels;
    forEachJobKernel(job, [&](const std::string &, const auto &build) {
        kernels.push_back(build());
    });
    if (job.sms >= 1) {
        // Single-threaded inside: the engine already parallelizes
        // across jobs, and results are thread-invariant anyway.
        MultiSmSimulator multi(kernels, job.config, job.sms,
                               /*threads=*/1);
        return multi.run(timeout_sec);
    }
    GpuSimulator simulator(kernels, job.config);
    return simulator.run(timeout_sec);
}

JobResult
ExperimentEngine::runIsolated(SimJob job, const Options &options)
{
    JobResult result;
    result.attempts = 0;
    for (unsigned attempt = 0;; ++attempt) {
        ++result.attempts;
        try {
            result.stats = execute(job, options.jobTimeoutSec);
            result.status = JobStatus::Ok;
            result.error.clear();
            result.deadlock.clear();
            return result;
        } catch (const DeadlockError &e) {
            result.error = e.what();
            result.deadlock = e.report().render();
            // A wall-clock trip is load-dependent and worth a retry;
            // a cycle-domain deadlock is deterministic and is not.
            const bool wall_trip =
                e.report().reason ==
                ProgressMonitor::reason(
                    ProgressMonitor::Verdict::WallTimeout);
            result.status = wall_trip ? JobStatus::Failed
                                      : JobStatus::Deadlocked;
            if (!wall_trip)
                return result;
        } catch (const std::exception &e) {
            result.status = JobStatus::Failed;
            result.error = e.what();
            result.deadlock.clear();
        }
        if (attempt >= options.retries)
            return result;
        // Transient-fault model: an injected fault marked transient
        // does not recur on the retry.
        if (job.config.faults.transient)
            job.config.faults = FaultPlan{};
        if (options.retryBackoffMs) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                options.retryBackoffMs << attempt));
        }
    }
}

void
ExperimentEngine::storeToCache(const Entry &entry)
{
    JobRecord record;
    record.schema = kJobCacheSchemaVersion;
    record.status = entry.result.status;
    record.stats = entry.result.stats;
    record.error = entry.result.error;
    record.deadlock = entry.result.deadlock;
    record.attempts = entry.result.attempts;
    _cache.store(JobCache::Key{cacheFileName(entry.job, entry.fingerprint),
                               entry.fingerprint},
                 record);
}

void
ExperimentEngine::raiseFirstLintFailure(
    const std::vector<Entry *> &pending) const
{
    for (const Entry *entry : pending) {
        const std::string config_text =
            compilerConfigText(entry->job.config.compiler);
        forEachJobKernel(entry->job, [&](const std::string &name,
                                         const auto &) {
            const std::exception_ptr &error =
                _lintVerdicts.at(lintKey(name, config_text));
            if (error)
                std::rethrow_exception(error);
        });
    }
}

void
ExperimentEngine::flush()
{
    std::vector<Entry *> pending;
    for (Entry &entry : _entries) {
        if (!entry.done)
            pending.push_back(&entry);
    }
    if (pending.empty())
        return;
    if (!_pool) {
        _pool.emplace(_options.jobs
                          ? _options.jobs
                          : ThreadPool::defaultThreads(
                                std::numeric_limits<unsigned>::max()));
    }

    // Step 1, on the pool: lint each (kernel, compiler config) that
    // has no verdict yet, and read each pending entry's cache file.
    // Nothing is read when a pending kernel already failed the gate:
    // the flush raises that failure (or an earlier one) below.
    std::vector<LintTask> lints;
    bool shut = false;
    if (_options.lint) {
        std::unordered_set<std::string> queued;
        for (const Entry *entry : pending) {
            const compiler::CompilerConfig &config =
                entry->job.config.compiler;
            const std::string config_text = compilerConfigText(config);
            forEachJobKernel(entry->job, [&](const std::string &name,
                                             const auto &build) {
                std::string key = lintKey(name, config_text);
                const auto verdict = _lintVerdicts.find(key);
                if (verdict != _lintVerdicts.end())
                    shut = shut || verdict->second;
                else if (queued.insert(key).second)
                    lints.push_back({std::move(key), build, &config});
            });
        }
    }
    const std::size_t reads_at = lints.size();
    const std::size_t num_reads =
        _cache.enabled() && !shut ? pending.size() : 0;
    std::vector<JobCache::Key> keys(num_reads);
    std::vector<JobCache::Read> reads(num_reads);
    // An exception escaping a worker ends the process, so each task's
    // is kept here and rethrown on this thread.
    std::vector<std::exception_ptr> errors(reads_at + num_reads);
    _pool->parallelFor(errors.size(), [&](std::size_t i) {
        try {
            if (i < reads_at) {
                lintKernel(lints[i].build(), *lints[i].config);
                return;
            }
            const std::size_t r = i - reads_at;
            const Entry &entry = *pending[r];
            keys[r] = {cacheFileName(entry.job, entry.fingerprint),
                       entry.fingerprint};
            reads[r] = _cache.read(keys[r]);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });

    // Step 2, on this thread in submission order. The gate comes
    // first: a cached result must never let a kernel with unsound
    // annotations slip past it, so a failure is raised before any
    // read is counted or served.
    for (std::size_t i = 0; i < reads_at; ++i) {
        _lintedClean += !errors[i];
        shut = shut || errors[i];
        _lintVerdicts.emplace(std::move(lints[i].key), errors[i]);
    }
    if (shut)
        raiseFirstLintFailure(pending);
    for (std::size_t i = reads_at; i < errors.size(); ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
    std::vector<Entry *> to_run;
    for (std::size_t r = 0; r < pending.size(); ++r) {
        Entry &entry = *pending[r];
        JobRecord record;
        // Entries are keyed by fingerprint, so a provider mismatch
        // means the file was tampered with or collided: miss.
        if (r < num_reads &&
            _cache.admit(keys[r], std::move(reads[r]), record) &&
            (record.status != JobStatus::Ok ||
             record.stats.provider == entry.job.config.provider)) {
            entry.result = {record.status, std::move(record.stats),
                            std::move(record.error),
                            std::move(record.deadlock), record.attempts};
            entry.done = true;
            ++_cacheHits;
        } else {
            to_run.push_back(&entry);
        }
    }

    // Step 3: simulate the misses on the pool. runIsolated() turns
    // every std::exception into the job's result: one wedged or
    // crashing job must not take down a worker or its sibling jobs.
    _pool->parallelFor(to_run.size(), [&](std::size_t i) {
        to_run[i]->result = runIsolated(to_run[i]->job, _options);
    });

    // Publish serially: deterministic counters and no concurrent
    // filesystem writes.
    for (Entry *entry : to_run) {
        entry->done = true;
        ++_simulated;
        storeToCache(*entry);
    }
}

std::uint64_t
ExperimentEngine::countStatus(JobStatus status) const
{
    std::uint64_t n = 0;
    for (const Entry &entry : _entries)
        n += entry.done && entry.result.status == status;
    return n;
}

std::uint64_t
ExperimentEngine::retried() const
{
    std::uint64_t n = 0;
    for (const Entry &entry : _entries) {
        if (entry.done && entry.result.attempts > 1)
            n += entry.result.attempts - 1;
    }
    return n;
}

std::vector<ExperimentEngine::JobId>
ExperimentEngine::failedJobs() const
{
    std::vector<JobId> out;
    for (JobId id = 0; id < _entries.size(); ++id) {
        if (_entries[id].done &&
            _entries[id].result.status != JobStatus::Ok)
            out.push_back(id);
    }
    return out;
}

const SimJob &
ExperimentEngine::job(JobId id) const
{
    if (id >= _entries.size())
        panic("ExperimentEngine: unknown job id ", id);
    return _entries[id].job;
}

std::vector<RunStats>
ExperimentEngine::allStats()
{
    flush();
    std::vector<RunStats> out;
    out.reserve(_entries.size());
    for (const Entry &entry : _entries) {
        if (entry.result.status == JobStatus::Ok)
            out.push_back(entry.result.stats);
    }
    return out;
}

} // namespace regless::sim
