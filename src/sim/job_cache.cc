#include "sim/job_cache.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/logging.hh"

namespace regless::sim
{

namespace fs = std::filesystem;

namespace
{

double
ageSeconds(fs::file_time_type then, fs::file_time_type now)
{
    return std::chrono::duration<double>(now - then).count();
}

/** PID + per-process nonce so temp names never collide across (or
 * within) writer processes, even after a crash left old ones. */
std::string
tempSuffix()
{
    static std::atomic<unsigned> nonce{0};
    const long pid = static_cast<long>(::getpid());
    return ".tmp." + std::to_string(pid) + "." +
           std::to_string(nonce.fetch_add(1));
}

bool
isHexShardName(const std::string &name)
{
    return name.size() == 2 &&
           std::isxdigit(static_cast<unsigned char>(name[0])) &&
           std::isxdigit(static_cast<unsigned char>(name[1]));
}

/**
 * Read a whole file straight into @a out; false when it cannot be
 * opened. A read error keeps the bytes read so far, which then fail
 * to parse.
 */
bool
slurp(const fs::path &path, std::string &out)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return false;
    constexpr std::size_t kChunk = 8192;
    std::size_t size = 0;
    for (;;) {
        out.resize(size + kChunk);
        const std::size_t got =
            std::fread(out.data() + size, 1, kChunk, file);
        size += got;
        if (got < kChunk)
            break;
    }
    out.resize(size);
    std::fclose(file);
    return true;
}

} // namespace

const char *
cacheFaultKindName(CacheFaultPlan::Kind kind)
{
    switch (kind) {
      case CacheFaultPlan::Kind::None:
        return "none";
      case CacheFaultPlan::Kind::TornWrite:
        return "torn_write";
      case CacheFaultPlan::Kind::RenameFail:
        return "rename_fail";
      case CacheFaultPlan::Kind::Enospc:
        return "enospc";
      case CacheFaultPlan::Kind::Clobber:
        return "clobber";
      case CacheFaultPlan::Kind::CrashAfterTmp:
        return "crash_after_tmp";
    }
    return "?";
}

const char *
cacheModeName(CacheMode mode)
{
    switch (mode) {
      case CacheMode::ReadWrite:
        return "read-write";
      case CacheMode::ReadOnly:
        return "read-only";
      case CacheMode::Disabled:
        return "disabled";
    }
    return "?";
}

JobCache::JobCache(Options options) : _options(std::move(options))
{
    if (!_options.dir.empty()) {
        // Open lazily: constructing an engine must not touch the
        // filesystem, only a load/store may.
        _mode = CacheMode::ReadWrite;
        _modeReason.clear();
    }
}

std::string
JobCache::shardName(std::uint64_t fingerprint)
{
    static const char *digits = "0123456789abcdef";
    const unsigned byte = static_cast<unsigned>(fingerprint & 0xff);
    std::string out;
    out.push_back(digits[byte >> 4]);
    out.push_back(digits[byte & 0xf]);
    return out;
}

std::filesystem::path
JobCache::relativePath(const Key &key)
{
    return fs::path(shardName(key.fingerprint)) / key.file;
}

std::filesystem::path
JobCache::entryPath(const Key &key) const
{
    return fs::path(_options.dir) / relativePath(key);
}

bool
JobCache::parseEntryName(const std::string &file,
                         std::uint64_t &fingerprint)
{
    const std::string suffix = ".json";
    if (file.size() <= suffix.size() ||
        file.compare(file.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    if (isTempName(file))
        return false;
    const std::string stem =
        file.substr(0, file.size() - suffix.size());
    const std::size_t dash = stem.rfind('-');
    if (dash == std::string::npos || dash + 1 >= stem.size())
        return false;
    const std::string hex = stem.substr(dash + 1);
    if (hex.size() > 16)
        return false;
    std::uint64_t value = 0;
    for (char c : hex) {
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
        value = value * 16 +
                static_cast<std::uint64_t>(
                    c <= '9' ? c - '0'
                             : std::tolower(
                                   static_cast<unsigned char>(c)) -
                                   'a' + 10);
    }
    fingerprint = value;
    return true;
}

bool
JobCache::isTempName(const std::string &file)
{
    return file.find(".tmp") != std::string::npos;
}

void
JobCache::degrade(CacheMode mode, std::string reason)
{
    if (static_cast<int>(mode) <= static_cast<int>(_mode))
        return; // never move back up the ladder
    _mode = mode;
    _modeReason = std::move(reason);
    warn("experiment cache: degraded to ", cacheModeName(_mode), ": ",
         _modeReason);
}

bool
JobCache::ensureOpen()
{
    if (_opened)
        return enabled();
    _opened = true;
    if (_options.dir.empty())
        return false;
    std::error_code ec;
    fs::create_directories(_options.dir, ec);
    if (ec) {
        if (fs::exists(_options.dir)) {
            degrade(CacheMode::ReadOnly,
                    "cannot prepare '" + _options.dir +
                        "': " + ec.message());
        } else {
            degrade(CacheMode::Disabled,
                    "cannot create '" + _options.dir +
                        "': " + ec.message());
        }
    }
    return enabled();
}

JobCache::Read
JobCache::read(const Key &key) const
{
    Read read;
    std::string text;
    if (!enabled() || !slurp(entryPath(key), text))
        return read;
    // A corrupt or truncated entry is a miss, never an error: the
    // point is re-simulated and the entry rewritten (healed).
    if (!tryRecordFromJson(text, read.record))
        read.outcome = Read::Outcome::Corrupt;
    else if (read.record.schema != kJobCacheSchemaVersion)
        read.outcome = Read::Outcome::WrongSchema;
    else
        read.outcome = Read::Outcome::Valid;
    return read;
}

bool
JobCache::admit(const Key &key, Read read, JobRecord &out)
{
    if (!ensureOpen())
        return false;
    switch (read.outcome) {
      case Read::Outcome::Valid:
        ++_counters.hits;
        out = std::move(read.record);
        return true;
      case Read::Outcome::Missing:
        break;
      case Read::Outcome::Corrupt:
        ++_counters.corrupt;
        break;
      case Read::Outcome::WrongSchema: {
        // Parseable but foreign: the flat key-value body would
        // *half-parse* (unknown keys dropped, new fields zeroed), so
        // the schema gate must reject it outright — and say why.
        ++_counters.schemaRejects;
        if (!_warnedSchema) {
            _warnedSchema = true;
            warn("experiment cache: rejecting '", key.file,
                 "': entry schema ", read.record.schema, " != expected ",
                 kJobCacheSchemaVersion, " (",
                 read.record.schema > kJobCacheSchemaVersion
                     ? "written by a newer build sharing this cache; "
                       "upgrade this binary or use a separate "
                       "--cache-dir"
                     : "stale entry from an older build; "
                       "`regless_cache gc` can reclaim it",
                 "); re-simulating");
        }
        break;
      }
    }
    ++_counters.misses;
    return false;
}

bool
JobCache::load(const Key &key, JobRecord &out)
{
    return admit(key, read(key), out);
}

bool
JobCache::faultFires(CacheFaultPlan::Kind kind, unsigned index) const
{
    if (_options.faults.kind != kind)
        return false;
    return _options.faults.repeat
               ? index >= _options.faults.triggerStore
               : index == _options.faults.triggerStore;
}

void
JobCache::janitor(const fs::path &shard)
{
    if (!_sweptShards.insert(shard.string()).second)
        return; // once per shard per process
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    for (const auto &it : fs::directory_iterator(shard, ec)) {
        if (!it.is_regular_file(ec))
            continue;
        const std::string leaf = it.path().filename().string();
        if (!isTempName(leaf))
            continue;
        const auto mtime = fs::last_write_time(it.path(), ec);
        if (ec)
            continue;
        // Fresh temps may belong to a live writer mid-publish; only
        // ones past the staleness threshold are crash leftovers.
        if (ageSeconds(mtime, now) < kStaleTempAgeSec)
            continue;
        if (fs::remove(it.path(), ec))
            ++_counters.janitorRemoved;
    }
}

bool
JobCache::store(const Key &key, const JobRecord &record)
{
    if (!ensureOpen() || _mode != CacheMode::ReadWrite)
        return false;
    const unsigned index = _storeIndex++;

    const fs::path path = entryPath(key);
    const fs::path shard = path.parent_path();
    std::error_code ec;
    fs::create_directories(shard, ec);
    if (ec) {
        storeFailed(path, "cannot create shard: " + ec.message());
        return false;
    }
    janitor(shard);

    std::ostringstream payload_stream;
    writeJson(payload_stream, record);
    std::string payload = payload_stream.str();
    if (faultFires(CacheFaultPlan::Kind::TornWrite, index)) {
        // Simulated disk corruption: publish only half the bytes.
        payload.resize(payload.size() / 2);
    }

    const fs::path tmp = path.string() + tempSuffix();
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        const bool enospc =
            faultFires(CacheFaultPlan::Kind::Enospc, index);
        if (out && !enospc)
            out.write(payload.data(),
                      static_cast<std::streamsize>(payload.size()));
        out.flush();
        if (!out || enospc) {
            // A partial temp must not linger (satellite of PR 9: the
            // old engine-inline writer leaked it silently).
            out.close();
            fs::remove(tmp, ec);
            storeFailed(path, enospc ? "no space left on device"
                                     : "short write");
            return false;
        }
    }

    if (faultFires(CacheFaultPlan::Kind::CrashAfterTmp, index)) {
        // Writer "dies" here: the temp is orphaned for the janitor,
        // nothing is published, no cleanup runs.
        return false;
    }

    if (faultFires(CacheFaultPlan::Kind::Clobber, index)) {
        // A rival writer wins the publish race first. Rival content
        // is what any writer of this fingerprint would produce, so
        // whoever's rename lands last, readers see a valid record.
        const fs::path rival_tmp = path.string() + tempSuffix();
        std::ostringstream rival;
        writeJson(rival, record);
        std::ofstream(rival_tmp, std::ios::binary | std::ios::trunc)
            << rival.str();
        fs::rename(rival_tmp, path, ec);
    }

    // Atomic publish so readers never observe a torn file.
    ec.clear();
    if (faultFires(CacheFaultPlan::Kind::RenameFail, index))
        ec = std::make_error_code(std::errc::io_error);
    else
        fs::rename(tmp, path, ec);
    if (ec) {
        std::error_code ignored;
        fs::remove(tmp, ignored);
        storeFailed(path, "rename failed: " + ec.message());
        return false;
    }
    ++_counters.stores;
    _consecutiveStoreFailures = 0;
    return true;
}

void
JobCache::storeFailed(const std::filesystem::path &path,
                      const std::string &why)
{
    ++_counters.storeFailures;
    if (!_warnedStoreFailure) {
        _warnedStoreFailure = true;
        warn("experiment cache: cannot store '", path.string(), "': ",
             why, " (warning once; see the report footer for counts)");
    }
    if (++_consecutiveStoreFailures >= kMaxStoreFailures) {
        degrade(CacheMode::ReadOnly,
                "writes disabled after " +
                    std::to_string(_consecutiveStoreFailures) +
                    " consecutive store failures (last: " + why + ")");
    }
}

// ---------------------------------------------------------------------
// Maintenance: survey (stats/verify) and gc.
// ---------------------------------------------------------------------

namespace
{

/** One file seen by the gc scan. */
struct GcFile
{
    fs::path path;
    std::uint64_t bytes = 0;
    double ageSec = 0.0;
    bool isTemp = false;
    bool isSuspect = false; ///< corrupt or misplaced
};

/**
 * True for dot-files, which survey and gc leave alone: they are not
 * cache content. Caches written by older builds hold one `.lock`
 * file per shard, from a writer lock this cache no longer takes.
 */
bool
isDotFile(const std::string &leaf)
{
    return leaf[0] == '.';
}

void
surveyFile(const fs::path &root, const fs::path &path,
           const std::string &shard_name, CacheSurvey &survey)
{
    const std::string leaf = path.filename().string();
    if (isDotFile(leaf))
        return;
    std::error_code ec;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(fs::file_size(path, ec));
    if (JobCache::isTempName(leaf)) {
        ++survey.tempFiles;
        survey.totalBytes += bytes;
        return;
    }
    std::uint64_t fingerprint = 0;
    if (!JobCache::parseEntryName(leaf, fingerprint)) {
        ++survey.otherFiles;
        return;
    }
    survey.totalBytes += bytes;
    const std::string home = JobCache::shardName(fingerprint);
    if (shard_name != home) {
        // Filed under the wrong shard (or at the pre-shard flat
        // root): unreachable by lookups, pure dead weight.
        ++survey.misplaced;
        survey.suspects.push_back(
            fs::relative(path, root, ec).string());
    }
    std::string text;
    JobRecord record;
    if (!slurp(path, text) || !tryRecordFromJson(text, record)) {
        ++survey.corrupt;
        survey.suspects.push_back(
            fs::relative(path, root, ec).string());
        return;
    }
    ++survey.entries;
    if (record.schema != kJobCacheSchemaVersion) {
        ++survey.wrongSchema;
        if (record.schema > kJobCacheSchemaVersion)
            ++survey.newerSchema;
    }
    switch (record.status) {
      case JobStatus::Ok:
        ++survey.okRecords;
        break;
      case JobStatus::Failed:
        ++survey.failedRecords;
        break;
      case JobStatus::Deadlocked:
        ++survey.deadlockedRecords;
        break;
    }
}

} // namespace

CacheSurvey
cacheSurveyDir(const fs::path &dir)
{
    CacheSurvey survey;
    std::error_code ec;
    if (!fs::exists(dir, ec))
        return survey;
    for (const auto &it : fs::directory_iterator(dir, ec)) {
        if (it.is_directory(ec)) {
            const std::string name = it.path().filename().string();
            if (!isHexShardName(name))
                continue;
            ++survey.shardsUsed;
            for (const auto &f :
                 fs::directory_iterator(it.path(), ec)) {
                if (f.is_regular_file(ec))
                    surveyFile(dir, f.path(), name, survey);
            }
        } else if (it.is_regular_file(ec)) {
            // Flat root files: legacy pre-shard entries and strays.
            surveyFile(dir, it.path(), "", survey);
        }
    }
    return survey;
}

CacheGcResult
cacheGcDir(const fs::path &dir, const CacheGcOptions &options)
{
    CacheGcResult result;
    std::error_code ec;
    if (!fs::exists(dir, ec))
        return result;
    const auto now = fs::file_time_type::clock::now();

    std::vector<GcFile> files;
    auto scan = [&](const fs::path &path, const std::string &shard_name) {
        const std::string leaf = path.filename().string();
        if (isDotFile(leaf))
            return;
        GcFile f;
        f.path = path;
        f.bytes = static_cast<std::uint64_t>(fs::file_size(path, ec));
        const auto mtime = fs::last_write_time(path, ec);
        f.ageSec = ec ? 0.0 : ageSeconds(mtime, now);
        f.isTemp = JobCache::isTempName(leaf);
        if (!f.isTemp) {
            std::uint64_t fingerprint = 0;
            if (!JobCache::parseEntryName(leaf, fingerprint)) {
                return; // unrecognized: leave it alone
            }
            std::string text;
            JobRecord record;
            f.isSuspect =
                JobCache::shardName(fingerprint) != shard_name ||
                !slurp(path, text) ||
                !tryRecordFromJson(text, record);
        }
        files.push_back(std::move(f));
    };
    for (const auto &it : fs::directory_iterator(dir, ec)) {
        if (it.is_directory(ec)) {
            const std::string name = it.path().filename().string();
            if (!isHexShardName(name))
                continue;
            for (const auto &f :
                 fs::directory_iterator(it.path(), ec)) {
                if (f.is_regular_file(ec))
                    scan(f.path(), name);
            }
        } else if (it.is_regular_file(ec)) {
            scan(it.path(), "");
        }
    }

    // Decide removals. The grace margin is the only guard against
    // live writers: nothing young enough to be mid-publish is touched.
    // A writer that heals an old entry just before gc removes it
    // costs one re-simulation later, never a bad record.
    auto protectedByGrace = [&](const GcFile &f) {
        return f.ageSec < options.graceSec;
    };
    std::vector<const GcFile *> doomed;
    std::vector<const GcFile *> kept;
    for (const GcFile &f : files) {
        if (protectedByGrace(f)) {
            if (!f.isTemp)
                kept.push_back(&f);
            continue;
        }
        if (f.isTemp || (f.isSuspect && options.removeCorrupt) ||
            (options.maxAgeSec > 0.0 && f.ageSec > options.maxAgeSec))
            doomed.push_back(&f);
        else
            kept.push_back(&f);
    }
    if (options.maxBytes > 0) {
        std::uint64_t kept_bytes = 0;
        for (const GcFile *f : kept)
            kept_bytes += f->bytes;
        // Oldest-first eviction until the cache fits the budget.
        std::stable_sort(kept.begin(), kept.end(),
                         [](const GcFile *a, const GcFile *b) {
                             return a->ageSec > b->ageSec;
                         });
        std::size_t i = 0;
        for (; kept_bytes > options.maxBytes && i < kept.size(); ++i) {
            const GcFile *f = kept[i];
            if (protectedByGrace(*f))
                break; // it and the rest are younger still, and stay
            kept_bytes -= f->bytes;
            doomed.push_back(f);
        }
        kept.erase(kept.begin(),
                   kept.begin() + static_cast<std::ptrdiff_t>(i));
    }

    for (const GcFile *f : doomed) {
        if (!options.dryRun && !fs::remove(f->path, ec))
            continue;
        ++(f->isTemp ? result.removedTemps : result.removedEntries);
        result.removedBytes += f->bytes;
    }
    result.keptEntries = kept.size();
    return result;
}

} // namespace regless::sim
