/**
 * @file
 * JobCache: the experiment engine's on-disk memoization store, one
 * directory a report fills and later reports read. Entries are
 * JobRecords (stats_io) keyed by the job's config fingerprint and
 * partitioned into 256 shard subdirectories (the fingerprint's low
 * byte) so no directory grows unbounded. See DESIGN.md §15.
 *
 * Safety model:
 *  - Writers publish only with write-temp-then-atomic-rename, so a
 *    reader sees the old entry or the new one, never a torn file.
 *    Temp names carry the PID and a per-process nonce, so two writers
 *    and a crashed writer's leftovers never collide. An entry is a
 *    deterministic function of its fingerprint: when two writers
 *    publish the same entry, the last rename wins with the same bytes.
 *  - A janitor sweeps stale temp files (older than kStaleTempAgeSec)
 *    the first time a shard is written, so `kill -9` mid-write only
 *    costs a few bytes until the next writer passes by.
 *  - Every environmental failure (unwritable directory, full disk,
 *    failed rename) degrades the cache to a structured read-only or
 *    disabled mode with a reason string for the report footer; the
 *    cache never throws and never crashes the run.
 *  - A CacheFaultPlan injects the failure modes deterministically
 *    (torn write, rename failure, ENOSPC, concurrent clobber, crash
 *    after temp) so the chaos tests can prove all of the above.
 */

#ifndef REGLESS_SIM_JOB_CACHE_HH
#define REGLESS_SIM_JOB_CACHE_HH

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "sim/stats_io.hh"

namespace regless::sim
{

/**
 * Content schema of one cache entry, stamped into both the record
 * body (record_schema) and the fingerprint text, so entries written
 * under a different schema miss instead of half-parsing.
 */
// v3: divergence-aware invalidating preloads changed compiled regions.
// v4: entries became JobRecords (outcome + stats).
// v5: RunStats gained issue-slot attribution.
// v6: RunStats gained the cycle-skip meta-counters.
// v7: the provider registry added the rfcache/regdem designs.
// v8: static value-range compression fields; entries moved from a
//     flat directory into per-fingerprint shard subdirectories.
// v9: multi-tenant SMs — RunStats gained per-tenant lanes and the
//     config fingerprint gained the tenants.* block.
constexpr unsigned kJobCacheSchemaVersion = 9;

/** Cache root of regless_report, generate_report and regless_cache
 * when none is given. */
constexpr const char *kDefaultCacheDir = ".regless-cache";

/**
 * Deterministic failure injection for the cache layer, mirroring the
 * simulator's FaultPlan (DESIGN.md §9): one environmental fault,
 * fired at a chosen store() call, optionally on every store after it.
 */
struct CacheFaultPlan
{
    enum class Kind : std::uint8_t
    {
        None,       ///< no fault (the default)
        TornWrite,  ///< publish a half-written entry (disk corruption)
        RenameFail, ///< the atomic publish rename fails
        Enospc,     ///< the temp-file write fails (disk full)
        Clobber,    ///< a rival writer publishes the entry first
        CrashAfterTmp, ///< writer dies after the temp, before rename
    };

    Kind kind = Kind::None;

    /** Index of the first store() call the fault fires on (0-based). */
    unsigned triggerStore = 0;

    /** Fire on every store at/after the trigger, not just once (for
     * driving the repeated-failure degradation ladder). */
    bool repeat = false;
};

/** Canonical fault-kind name for diagnostics and tests. */
const char *cacheFaultKindName(CacheFaultPlan::Kind kind);

/** Rung of the cache degradation ladder. */
enum class CacheMode
{
    ReadWrite, ///< healthy
    ReadOnly,  ///< serving hits, but writes are disabled
    Disabled,  ///< no directory, or the directory is unusable
};

/** Name for a CacheMode ("read-write", "read-only", "disabled"). */
const char *cacheModeName(CacheMode mode);

/** Observability counters for the report footer and the tests. */
struct CacheCounters
{
    std::uint64_t hits = 0;          ///< admit() served a valid record
    std::uint64_t misses = 0;        ///< admit() found nothing usable
    std::uint64_t stores = 0;        ///< entries published
    std::uint64_t storeFailures = 0; ///< writes that failed and were
                                     ///< cleaned up
    std::uint64_t corrupt = 0;       ///< unparseable entries (counted
                                     ///< as misses)
    std::uint64_t schemaRejects = 0; ///< parseable entries under a
                                     ///< different schema
    std::uint64_t lockWaits = 0;     ///< always 0: no store takes a
                                     ///< lock; kept for perfbench's
                                     ///< job_cache.lock_waits metric
    std::uint64_t janitorRemoved = 0; ///< stale temp files swept
};

/** Crash- and concurrency-tolerant sharded record store. */
class JobCache
{
  public:
    /** Consecutive store failures before writes are disabled. */
    static constexpr unsigned kMaxStoreFailures = 3;

    /** Temp files older than this are a crashed writer's leftovers,
     * which the janitor sweeps; younger ones may be mid-publish. */
    static constexpr double kStaleTempAgeSec = 3600.0;

    /** One entry's identity: its leaf file name plus the fingerprint
     * that names it (the shard is the fingerprint's low byte). */
    struct Key
    {
        std::string file;
        std::uint64_t fingerprint = 0;
    };

    struct Options
    {
        /** Cache root; empty = CacheMode::Disabled. */
        std::string dir;

        /** Chaos injection (tests only). */
        CacheFaultPlan faults;
    };

    JobCache() = default;
    explicit JobCache(Options options);

    /**
     * Current rung of the degradation ladder. Opening is lazy, so the
     * mode can move (ReadWrite -> ReadOnly) as failures accumulate;
     * it never recovers within one process.
     */
    CacheMode mode() const { return _mode; }

    /** Why the cache is not read-write ("" while healthy). */
    const std::string &modeReason() const { return _modeReason; }

    bool enabled() const { return _mode != CacheMode::Disabled; }

    /** What read() found on disk for one key, before it is counted. */
    struct Read
    {
        enum class Outcome : std::uint8_t
        {
            Missing,     ///< no readable file (or the cache is off)
            Corrupt,     ///< the file does not parse as a record (or,
                         ///< set by the engine, is an Ok record of
                         ///< another provider than its job's)
            WrongSchema, ///< a record under another schema
            Valid,       ///< a record under kJobCacheSchemaVersion
        };
        Outcome outcome = Outcome::Missing;
        /** The parsed record (Valid and WrongSchema). */
        JobRecord record;
    };

    /**
     * Read and parse the entry for @a key. Const and counter-free, so
     * several threads may read at once while nothing else touches the
     * cache; admit() then counts what was found.
     */
    Read read(const Key &key) const;

    /**
     * Count one read() of @a key into counters() and, when it found a
     * valid record, move it into @a out and return true. A
     * wrong-schema record warns once per process with a diagnosis
     * naming both schemas (a *newer* schema means a newer build shares
     * this directory — its entries must not be half-parsed into this
     * build's narrower RunStats). The first call opens the cache
     * directory (lazily, like store()).
     */
    bool admit(const Key &key, Read read, JobRecord &out);

    /**
     * Fetch the record for @a key: admit(key, read(key), out).
     * Corrupt, truncated, torn, tampered, or wrong-schema entries are
     * misses, never errors.
     */
    bool load(const Key &key, JobRecord &out);

    /**
     * Publish the record for @a key with temp-write + atomic rename,
     * replacing whatever the entry held. Returns false (and counts,
     * and warns once per process) when the write failed; the temp
     * file is always cleaned up on failure. kMaxStoreFailures
     * consecutive failures degrade the cache to read-only instead of
     * warning forever.
     */
    bool store(const Key &key, const JobRecord &record);

    const CacheCounters &counters() const { return _counters; }
    const Options &options() const { return _options; }

    /** Absolute path of @a key's entry (shard dir included). */
    std::filesystem::path entryPath(const Key &key) const;

    /** Shard subdirectory name for a fingerprint ("00".."ff"). */
    static std::string shardName(std::uint64_t fingerprint);

    /** Relative entry path (shard/leaf) for a key. */
    static std::filesystem::path relativePath(const Key &key);

    /**
     * Recover the fingerprint from an entry's leaf name
     * ("<kernel>-<provider>-<N>sm-<hex>.json"); false when the name
     * is not a cache entry. Used by verify/gc to spot entries filed
     * under the wrong shard.
     */
    static bool parseEntryName(const std::string &file,
                               std::uint64_t &fingerprint);

    /** True when @a file is a writer's temp file (".tmp." infix). */
    static bool isTempName(const std::string &file);

  private:
    /** Lazily probe/create the directory; sets _mode on failure. */
    bool ensureOpen();

    /** Move to @a mode with @a reason (never moves "up"). */
    void degrade(CacheMode mode, std::string reason);

    /** Sweep stale temps in @a shard (first store only). */
    void janitor(const std::filesystem::path &shard);

    /** True when the fault plan fires for this store index. */
    bool faultFires(CacheFaultPlan::Kind kind, unsigned index) const;

    /** Count, warn once, and maybe degrade after a failed store. */
    void storeFailed(const std::filesystem::path &path,
                     const std::string &why);

    Options _options;
    CacheMode _mode = CacheMode::Disabled;
    std::string _modeReason = "no cache directory configured";
    bool _opened = false;
    CacheCounters _counters;
    unsigned _consecutiveStoreFailures = 0;
    unsigned _storeIndex = 0;
    bool _warnedStoreFailure = false;
    bool _warnedSchema = false;
    std::set<std::string> _sweptShards;
};

/** @name Cache maintenance (the regless_cache tool and its tests). */
/// @{

/** What one survey pass found in a cache directory. */
struct CacheSurvey
{
    std::uint64_t entries = 0;       ///< parseable records
    std::uint64_t okRecords = 0;     ///< status == Ok
    std::uint64_t failedRecords = 0; ///< status == Failed
    std::uint64_t deadlockedRecords = 0;
    std::uint64_t corrupt = 0;     ///< unparseable .json files
    std::uint64_t wrongSchema = 0; ///< schema != kJobCacheSchemaVersion
    std::uint64_t newerSchema = 0; ///< subset of wrongSchema: newer
    std::uint64_t misplaced = 0;   ///< entry not in its fingerprint's
                                   ///< shard (or at the flat root)
    std::uint64_t tempFiles = 0;   ///< writer temp files present
    std::uint64_t otherFiles = 0;  ///< unrecognized names (dot-files
                                   ///< excluded)
    std::uint64_t totalBytes = 0;  ///< bytes in entries + temps
    std::uint64_t shardsUsed = 0;  ///< shard subdirectories present
    /** Paths (relative to the root) of corrupt/misplaced files, for
     * the verify report. */
    std::vector<std::string> suspects;
};

/** Walk @a dir and classify everything in it. Missing directory =
 * empty survey (a cache that was never written is healthy). */
CacheSurvey cacheSurveyDir(const std::filesystem::path &dir);

struct CacheGcOptions
{
    /** Remove entries older than this (0 = no age limit). */
    double maxAgeSec = 0.0;

    /** Evict oldest entries until the cache fits (0 = no bound). */
    std::uint64_t maxBytes = 0;

    /** Never remove files younger than this, whatever the policy
     * says: an entry or temp this fresh may belong to a live writer. */
    double graceSec = 300.0;

    /** Also remove corrupt entries and files in the wrong shard. */
    bool removeCorrupt = false;

    /** Report what would be removed without removing it. */
    bool dryRun = false;
};

struct CacheGcResult
{
    std::uint64_t removedEntries = 0;
    std::uint64_t removedTemps = 0;
    std::uint64_t removedBytes = 0;
    std::uint64_t keptEntries = 0;
};

/**
 * Garbage-collect @a dir: stale temps always, then age policy, then
 * size policy (oldest first). gc takes no lock: only the grace margin
 * keeps it off files a live writer may be publishing. Should it still
 * race a writer, the worst case is deleting an entry the writer just
 * healed, which costs one re-simulation and never serves a bad
 * record.
 */
CacheGcResult cacheGcDir(const std::filesystem::path &dir,
                         const CacheGcOptions &options);

/// @}

} // namespace regless::sim

#endif // REGLESS_SIM_JOB_CACHE_HH
