/**
 * @file
 * The cache suite (ctest label "cache", DESIGN.md §15):
 * sharded layout, crash/corruption tolerance, the CacheFaultPlan
 * chaos oracle (under every injected environmental fault the engine
 * never crashes, never serves a corrupt entry, and produces results
 * byte-identical to a cache-disabled run), the degradation ladder,
 * gc/survey maintenance, and real multi-process stress over one
 * shared directory.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "sim/experiment_engine.hh"
#include "sim/job_cache.hh"
#include "sim/stats_io.hh"
#include "workloads/kernel_builder.hh"

namespace regless
{
namespace
{

namespace fs = std::filesystem;

/** A few-instruction kernel so cache tests simulate in microseconds. */
ir::Kernel
tinyKernel()
{
    workloads::KernelBuilder b("tiny");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId v = b.ld(addr);
    b.st(b.iadd(v, t), addr, 1 << 22);
    return b.build();
}

sim::SimJob
tinyJob(sim::ProviderKind kind)
{
    return {"tiny", sim::GpuConfig::forProvider(kind), 0, tinyKernel};
}

/** The tiny grid the chaos and fleet tests run: enough jobs to hit
 * several shards and exercise more than one store. */
std::vector<sim::SimJob>
tinyGrid()
{
    std::vector<sim::SimJob> jobs;
    for (sim::ProviderKind kind :
         {sim::ProviderKind::Baseline, sim::ProviderKind::Rfh,
          sim::ProviderKind::Rfv, sim::ProviderKind::Regless,
          sim::ProviderKind::CompilerRfCache,
          sim::ProviderKind::RegDem})
        jobs.push_back(tinyJob(kind));
    return jobs;
}

fs::path
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) /
                   ("regless-job-cache-" + name);
    fs::remove_all(dir);
    return dir;
}

/** All-stats JSON of running @a jobs under @a options — the byte
 * oracle every chaos variant is compared against. */
std::string
runGridJson(const std::vector<sim::SimJob> &jobs,
            const sim::ExperimentEngine::Options &options)
{
    sim::ExperimentEngine engine(options);
    for (const sim::SimJob &job : jobs)
        engine.submit(job);
    std::ostringstream out;
    sim::writeJson(out, engine.allStats());
    return out.str();
}

/** Deterministic record for multi-process stress: every writer of
 * key @a index produces these exact bytes. */
sim::JobRecord
syntheticRecord(unsigned index)
{
    sim::JobRecord record;
    record.schema = sim::kJobCacheSchemaVersion;
    record.status = sim::JobStatus::Ok;
    record.stats.kernel = "stress_" + std::to_string(index);
    record.stats.cycles = 1000 + index;
    record.stats.insns = 17 * index;
    record.attempts = 1;
    return record;
}

/** The whole text of @a path. */
std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Backdate @a path's mtime by @a seconds. */
void
backdate(const fs::path &path, double seconds)
{
    const auto mtime = fs::last_write_time(path);
    fs::last_write_time(
        path, mtime - std::chrono::duration_cast<
                          fs::file_time_type::duration>(
                          std::chrono::duration<double>(seconds)));
}

sim::JobCache::Key
syntheticKey(unsigned index)
{
    // Spread the keys over shards like real fingerprints do.
    const std::uint64_t fp = 0x9e3779b97f4a7c15ULL * (index + 1);
    std::ostringstream name;
    name << "stress_" << index << "-baseline-0sm-" << std::hex << fp
         << ".json";
    return {name.str(), fp};
}

// ---------------------------------------------------------------------
// Sharded layout.
// ---------------------------------------------------------------------

TEST(ShardLayout, EntriesLandInTheirFingerprintShard)
{
    const fs::path dir = freshDir("layout");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();
    sim::ExperimentEngine engine(options);
    for (const sim::SimJob &job : tinyGrid())
        engine.submit(job);
    engine.flush();

    unsigned checked = 0;
    for (const sim::SimJob &job : tinyGrid()) {
        const fs::path rel = sim::ExperimentEngine::cacheEntryPath(job);
        ASSERT_TRUE(fs::exists(dir / rel)) << rel;
        // The shard subdirectory is the fingerprint's low byte, and
        // the fingerprint is recoverable from the leaf name alone
        // (what verify/gc rely on to spot misplaced entries).
        std::uint64_t fp = 0;
        ASSERT_TRUE(sim::JobCache::parseEntryName(
            rel.filename().string(), fp));
        EXPECT_EQ(sim::JobCache::shardName(fp),
                  rel.parent_path().string());
        ++checked;
    }
    EXPECT_EQ(checked, tinyGrid().size());
}

TEST(ShardLayout, ParseEntryNameRejectsNonEntries)
{
    std::uint64_t fp = 0;
    EXPECT_TRUE(sim::JobCache::parseEntryName(
        "bfs-regless-0sm-d6ef7ffcf3cf1624.json", fp));
    EXPECT_EQ(fp, 0xd6ef7ffcf3cf1624ULL);
    EXPECT_FALSE(sim::JobCache::parseEntryName(
        "bfs-regless-0sm-d6ef.json.tmp.123.0", fp));
    EXPECT_FALSE(sim::JobCache::parseEntryName("README.md", fp));
    EXPECT_FALSE(sim::JobCache::parseEntryName("x-notahex.json", fp));
    EXPECT_FALSE(sim::JobCache::parseEntryName(".lock", fp));
}

// ---------------------------------------------------------------------
// Load tolerance and the schema gate.
// ---------------------------------------------------------------------

TEST(JobCacheLoad, CorruptAndTornEntriesAreCountedMisses)
{
    const fs::path dir = freshDir("tolerance");
    sim::JobCache::Options options;
    options.dir = dir.string();
    sim::JobCache cache(options);
    const sim::JobCache::Key key = syntheticKey(1);
    ASSERT_TRUE(cache.store(key, syntheticRecord(1)));

    sim::JobRecord out;
    EXPECT_TRUE(cache.load(key, out));
    EXPECT_EQ(out.stats.cycles, 1001u);

    // Truncate the entry to half: a miss, counted as corrupt.
    std::string text;
    {
        std::ifstream in(cache.entryPath(key), std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    std::ofstream(cache.entryPath(key),
                  std::ios::binary | std::ios::trunc)
        << text.substr(0, text.size() / 2);
    EXPECT_FALSE(cache.load(key, out));
    EXPECT_EQ(cache.counters().corrupt, 1u);

    // Garbage is also just a corrupt miss, and a missing entry is a
    // plain miss.
    std::ofstream(cache.entryPath(key),
                  std::ios::binary | std::ios::trunc)
        << "{]not json";
    EXPECT_FALSE(cache.load(key, out));
    EXPECT_EQ(cache.counters().corrupt, 2u);
    EXPECT_FALSE(cache.load(syntheticKey(2), out));
    EXPECT_EQ(cache.counters().misses, 3u);
    EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(JobCacheLoad, NewerSchemaEntriesAreRejectedNotHalfParsed)
{
    // Forward compatibility: an entry written by a *newer* build
    // parses fine (the flat schema ignores unknown keys) but must be
    // rejected by the schema gate — half-parsing it would silently
    // zero every field this build doesn't know it's missing.
    const fs::path dir = freshDir("newer-schema");
    sim::JobCache::Options options;
    options.dir = dir.string();
    sim::JobCache cache(options);
    const sim::JobCache::Key key = syntheticKey(3);
    ASSERT_TRUE(cache.store(key, syntheticRecord(3)));

    // Forge the future: bump the schema stamp and graft on a key no
    // current reader knows.
    std::string text;
    {
        std::ifstream in(cache.entryPath(key), std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    const std::string stamp =
        "\"record_schema\":" +
        std::to_string(sim::kJobCacheSchemaVersion);
    const std::size_t at = text.find(stamp);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, stamp.size(),
                 "\"record_schema\":" +
                     std::to_string(sim::kJobCacheSchemaVersion + 1) +
                     ",\"stat_from_the_future\":42");
    std::ofstream(cache.entryPath(key),
                  std::ios::binary | std::ios::trunc)
        << text;

    sim::JobRecord out;
    EXPECT_FALSE(cache.load(key, out));
    EXPECT_EQ(cache.counters().schemaRejects, 1u);
    EXPECT_EQ(cache.counters().corrupt, 0u);

    // Older entries are gated identically.
    const std::string future =
        "\"record_schema\":" +
        std::to_string(sim::kJobCacheSchemaVersion + 1);
    text.replace(text.find("\"record_schema\":"), future.size(),
                 "\"record_schema\":1");
    std::ofstream(cache.entryPath(key),
                  std::ios::binary | std::ios::trunc)
        << text;
    EXPECT_FALSE(cache.load(key, out));
    EXPECT_EQ(cache.counters().schemaRejects, 2u);
}

TEST(JobCacheLoad, EngineResimulatesPastAForeignSchemaEntry)
{
    const fs::path dir = freshDir("engine-schema");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();
    const sim::SimJob job = tinyJob(sim::ProviderKind::Regless);
    sim::RunStats reference;
    {
        sim::ExperimentEngine engine(options);
        reference = engine.stats(engine.submit(job));
    }
    const fs::path path =
        dir / sim::ExperimentEngine::cacheEntryPath(job);
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    const std::string stamp =
        "\"record_schema\":" +
        std::to_string(sim::kJobCacheSchemaVersion);
    ASSERT_NE(text.find(stamp), std::string::npos);
    text.replace(text.find(stamp), stamp.size(),
                 "\"record_schema\":" +
                     std::to_string(sim::kJobCacheSchemaVersion + 9) +
                     ",\"unknown_future_key\":\"whatever\"");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

    sim::ExperimentEngine engine(options);
    const sim::RunStats &stats = engine.stats(engine.submit(job));
    EXPECT_EQ(engine.cacheHits(), 0u);
    EXPECT_EQ(engine.simulated(), 1u);
    EXPECT_EQ(engine.cache().counters().schemaRejects, 1u);
    EXPECT_TRUE(stats == reference);
    // And the entry healed back to the current schema.
    sim::ExperimentEngine warm(options);
    warm.submit(job);
    warm.flush();
    EXPECT_EQ(warm.cacheHits(), 1u);
}

TEST(JobCacheLoad, EngineHealsADamagedCountToTheReferenceBytes)
{
    // One damaged count -- a tenant_count that would size a huge lane
    // vector, a negative or a fractional count -- is a corrupt entry:
    // verify names it, the engine re-simulates the point, and the
    // entry is rewritten to exactly the bytes a clean run stores.
    const fs::path dir = freshDir("engine-damaged");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();
    sim::SimJob job{"nn+nn",
                    sim::GpuConfig::forProvider(sim::ProviderKind::Regless),
                    0, {}};
    job.config.tenants.workloads = {{"nn", 1}, {"nn", 0}};
    sim::RunStats reference;
    {
        sim::ExperimentEngine engine(options);
        reference = engine.stats(engine.submit(job));
    }
    ASSERT_EQ(reference.tenants.size(), 2u);
    const fs::path path =
        dir / sim::ExperimentEngine::cacheEntryPath(job);
    auto read_entry = [&path] {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };
    const std::string good = read_entry();

    const std::string cycles =
        "\"cycles\":" + std::to_string(reference.cycles);
    const std::string insns =
        "\"insns\":" + std::to_string(reference.insns);
    const std::pair<std::string, std::string> damages[] = {
        {"\"tenant_count\":2", "\"tenant_count\":1e18"},
        {cycles, "\"cycles\":-5"},
        {insns, "\"insns\":12.75"},
    };
    for (const auto &[from, to] : damages) {
        std::string text = good;
        const std::size_t at = text.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        text.replace(at, from.size(), to);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

        const sim::CacheSurvey survey = sim::cacheSurveyDir(dir);
        EXPECT_EQ(survey.corrupt, 1u) << to;
        EXPECT_EQ(survey.suspects.size(), 1u) << to;

        sim::ExperimentEngine engine(options);
        const sim::RunStats &stats = engine.stats(engine.submit(job));
        EXPECT_EQ(engine.cache().counters().corrupt, 1u) << to;
        EXPECT_EQ(engine.simulated(), 1u) << to;
        EXPECT_TRUE(stats == reference) << to;
        EXPECT_EQ(read_entry(), good) << to;
    }
}

TEST(JobCacheLoad, EngineHealsAnEntryOfAnotherProvider)
{
    // Entries are keyed by fingerprint, so an Ok record of another
    // provider was tampered with or collided: a corrupt miss, which
    // the engine re-simulates and rewrites, so the next engine hits.
    const fs::path dir = freshDir("engine-provider");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();
    const sim::SimJob job = tinyJob(sim::ProviderKind::Regless);
    {
        sim::ExperimentEngine engine(options);
        engine.stats(engine.submit(job));
    }
    const fs::path path =
        dir / sim::ExperimentEngine::cacheEntryPath(job);
    const std::string good = readFile(path);
    const std::string from = "\"provider\":\"regless\"";
    std::string text = good;
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, from.size(), "\"provider\":\"rfh\"");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

    sim::ExperimentEngine engine(options);
    engine.stats(engine.submit(job));
    EXPECT_EQ(engine.simulated(), 1u);
    EXPECT_EQ(engine.cacheHits(), 0u);
    const sim::CacheCounters &c = engine.cache().counters();
    EXPECT_EQ(c.corrupt, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(readFile(path), good);

    sim::ExperimentEngine warm(options);
    warm.submit(job);
    warm.flush();
    EXPECT_EQ(warm.simulated(), 0u);
    EXPECT_EQ(warm.cacheHits(), 1u);
}

// ---------------------------------------------------------------------
// Store paths: cleanup, degradation.
// ---------------------------------------------------------------------

/** Count writer temp files anywhere under @a dir. */
unsigned
tempFilesUnder(const fs::path &dir)
{
    unsigned n = 0;
    if (!fs::exists(dir))
        return n;
    for (const auto &it : fs::recursive_directory_iterator(dir)) {
        if (it.is_regular_file() &&
            sim::JobCache::isTempName(it.path().filename().string()))
            ++n;
    }
    return n;
}

TEST(JobCacheStore, RenameFailureCleansTheTempAndCounts)
{
    const fs::path dir = freshDir("rename-fail");
    sim::JobCache::Options options;
    options.dir = dir.string();
    options.faults.kind = sim::CacheFaultPlan::Kind::RenameFail;
    sim::JobCache cache(options);
    EXPECT_FALSE(cache.store(syntheticKey(5), syntheticRecord(5)));
    // The orphan temp the old engine-inline writer leaked is gone,
    // and the failure is counted (warned once, not per store).
    EXPECT_EQ(tempFilesUnder(dir), 0u);
    EXPECT_EQ(cache.counters().storeFailures, 1u);
    EXPECT_EQ(cache.counters().stores, 0u);
    EXPECT_EQ(cache.mode(), sim::CacheMode::ReadWrite);
}

TEST(JobCacheStore, RepeatedDiskFullDegradesToReadOnly)
{
    const fs::path dir = freshDir("enospc");
    sim::JobCache::Options options;
    options.dir = dir.string();
    options.faults.kind = sim::CacheFaultPlan::Kind::Enospc;
    options.faults.repeat = true;
    sim::JobCache cache(options);
    // Ladder: keep trying for kMaxStoreFailures consecutive failures,
    // then stop writing for the rest of the process — structured
    // degradation, not a warning storm and never a crash.
    for (unsigned i = 0; i < sim::JobCache::kMaxStoreFailures; ++i) {
        EXPECT_EQ(cache.mode(), sim::CacheMode::ReadWrite);
        EXPECT_FALSE(cache.store(syntheticKey(i), syntheticRecord(i)));
    }
    EXPECT_EQ(cache.mode(), sim::CacheMode::ReadOnly);
    EXPECT_NE(cache.modeReason().find("store failures"),
              std::string::npos);
    // Further stores are structural no-ops, not new failures.
    EXPECT_FALSE(cache.store(syntheticKey(9), syntheticRecord(9)));
    EXPECT_EQ(cache.counters().storeFailures,
              sim::JobCache::kMaxStoreFailures);
    EXPECT_EQ(tempFilesUnder(dir), 0u);
}

TEST(JobCacheStore, CrashAfterTmpOrphanIsSweptByTheJanitor)
{
    const fs::path dir = freshDir("crash-tmp");
    sim::JobCache::Options options;
    options.dir = dir.string();
    const sim::JobCache::Key key = syntheticKey(6);
    {
        sim::JobCache::Options crash = options;
        crash.faults.kind = sim::CacheFaultPlan::Kind::CrashAfterTmp;
        sim::JobCache cache(crash);
        EXPECT_FALSE(cache.store(key, syntheticRecord(6)));
    }
    // The "killed" writer left its temp behind and published nothing.
    EXPECT_EQ(tempFilesUnder(dir), 1u);
    sim::JobCache reader(options);
    sim::JobRecord out;
    EXPECT_FALSE(reader.load(key, out));

    // Once the orphan is older than kStaleTempAgeSec, the next writer
    // into that shard sweeps it first.
    for (const auto &it : fs::recursive_directory_iterator(dir)) {
        if (sim::JobCache::isTempName(it.path().filename().string()))
            backdate(it.path(), sim::JobCache::kStaleTempAgeSec + 60.0);
    }
    sim::JobCache janitor(options);
    ASSERT_TRUE(janitor.store(key, syntheticRecord(6)));
    EXPECT_EQ(janitor.counters().janitorRemoved, 1u);
    EXPECT_EQ(tempFilesUnder(dir), 0u);
    EXPECT_TRUE(janitor.load(key, out));
}

TEST(JobCacheStore, UnusableDirectoryDegradesInsteadOfCrashing)
{
    // Point the cache at a path whose parent is a regular file:
    // nothing can ever be created there, even running as root.
    const fs::path file = freshDir("not-a-dir");
    std::ofstream(file) << "in the way";
    sim::ExperimentEngine::Options options;
    options.cacheDir = (file / "cache").string();

    sim::ExperimentEngine engine(options);
    const sim::SimJob job = tinyJob(sim::ProviderKind::Baseline);
    const sim::RunStats &stats = engine.stats(engine.submit(job));
    EXPECT_EQ(engine.simulated(), 1u);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_EQ(engine.cache().mode(), sim::CacheMode::Disabled);
    EXPECT_FALSE(engine.cache().modeReason().empty());
}

// ---------------------------------------------------------------------
// The chaos oracle: every fault plan, byte-identical results.
// ---------------------------------------------------------------------

class CacheChaos
    : public ::testing::TestWithParam<sim::CacheFaultPlan::Kind>
{
};

TEST_P(CacheChaos, ResultsAreByteIdenticalToACacheDisabledRun)
{
    const std::vector<sim::SimJob> jobs = tinyGrid();
    const std::string reference =
        runGridJson(jobs, sim::ExperimentEngine::Options{});

    const fs::path dir =
        freshDir(std::string("chaos-") +
                 sim::cacheFaultKindName(GetParam()));
    sim::ExperimentEngine::Options faulted;
    faulted.cacheDir = dir.string();
    faulted.cacheFaults.kind = GetParam();
    faulted.cacheFaults.repeat = true;

    // Run 1: every store hits the injected fault. The engine must
    // neither crash nor lose a result.
    EXPECT_EQ(runGridJson(jobs, faulted), reference);

    // Run 2, same faulted cache: whatever run 1 left on disk (torn
    // entries, orphan temps, nothing) must never be *served* — a
    // corrupt entry is re-simulated, a valid one is a hit; results
    // stay byte-identical either way.
    EXPECT_EQ(runGridJson(jobs, faulted), reference);

    // Run 3, fault-free on the same directory: the cache heals; a
    // warm rerun serves only valid entries and matches the oracle.
    sim::ExperimentEngine::Options clean;
    clean.cacheDir = dir.string();
    EXPECT_EQ(runGridJson(jobs, clean), reference);
    sim::ExperimentEngine warm(clean);
    for (const sim::SimJob &job : jobs)
        warm.submit(job);
    warm.flush();
    EXPECT_EQ(warm.simulated(), 0u);
    EXPECT_EQ(warm.cacheHits(), jobs.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultKinds, CacheChaos,
    ::testing::Values(sim::CacheFaultPlan::Kind::TornWrite,
                      sim::CacheFaultPlan::Kind::RenameFail,
                      sim::CacheFaultPlan::Kind::Enospc,
                      sim::CacheFaultPlan::Kind::Clobber,
                      sim::CacheFaultPlan::Kind::CrashAfterTmp),
    [](const ::testing::TestParamInfo<sim::CacheFaultPlan::Kind> &i) {
        std::string name = sim::cacheFaultKindName(i.param);
        for (char &c : name)
            if (c == '_')
                c = 'X';
        return name;
    });

// ---------------------------------------------------------------------
// Multi-process stress over one shared directory.
// ---------------------------------------------------------------------

TEST(MultiProcess, EightWritersOneDirectoryStaysConsistent)
{
    const fs::path dir = freshDir("stress");
    constexpr unsigned kWriters = 8;
    constexpr unsigned kKeys = 32;

    std::vector<pid_t> children;
    for (unsigned w = 0; w < kWriters; ++w) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: hammer every key — load when present, publish
            // when missing — with per-writer chaos: two writers
            // crash after their first temp, two lose a publish race.
            sim::JobCache::Options options;
            options.dir = dir.string();
            if (w < 2)
                options.faults.kind =
                    sim::CacheFaultPlan::Kind::CrashAfterTmp;
            else if (w < 4)
                options.faults.kind =
                    sim::CacheFaultPlan::Kind::Clobber;
            sim::JobCache cache(options);
            for (unsigned round = 0; round < 3; ++round) {
                for (unsigned k = 0; k < kKeys; ++k) {
                    const sim::JobCache::Key key = syntheticKey(k);
                    const sim::JobRecord expect = syntheticRecord(k);
                    sim::JobRecord got;
                    if (cache.load(key, got)) {
                        if (got.stats.cycles != expect.stats.cycles ||
                            got.stats.kernel != expect.stats.kernel)
                            _exit(13); // served a wrong record
                    } else {
                        cache.store(key, expect);
                    }
                }
            }
            _exit(0);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0)
            << "13 means a writer was served a wrong/corrupt record";
    }

    // Every key must now be present, valid, and exact.
    sim::JobCache::Options options;
    options.dir = dir.string();
    sim::JobCache reader(options);
    for (unsigned k = 0; k < kKeys; ++k) {
        sim::JobRecord got;
        ASSERT_TRUE(reader.load(syntheticKey(k), got)) << k;
        EXPECT_EQ(got.stats.cycles, syntheticRecord(k).stats.cycles);
    }
    const sim::CacheSurvey survey = sim::cacheSurveyDir(dir);
    EXPECT_EQ(survey.entries, kKeys);
    EXPECT_EQ(survey.corrupt, 0u);
    EXPECT_EQ(survey.misplaced, 0u);

    // The crashed writers' orphans are reclaimable, and gc leaves a
    // clean directory behind.
    const sim::CacheGcOptions gc_temps = [] {
        sim::CacheGcOptions o;
        o.graceSec = 0.0;
        return o;
    }();
    sim::cacheGcDir(dir, gc_temps);
    EXPECT_EQ(tempFilesUnder(dir), 0u);
    EXPECT_EQ(sim::cacheSurveyDir(dir).entries, kKeys);
}

TEST(MultiProcess, EngineFleetSharedDirectoryByteParity)
{
    // The acceptance bar: an 8-process shared-dir stress run in
    // which every process is a full ExperimentEngine (some with
    // chaos injected) and every process's results are byte-identical
    // to the cache-disabled oracle.
    const std::vector<sim::SimJob> jobs = tinyGrid();
    const std::string reference =
        runGridJson(jobs, sim::ExperimentEngine::Options{});
    const fs::path dir = freshDir("fleet");
    fs::create_directories(dir);

    constexpr unsigned kProcs = 8;
    std::vector<pid_t> children;
    for (unsigned p = 0; p < kProcs; ++p) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            sim::ExperimentEngine::Options options;
            options.cacheDir = (dir / "cache").string();
            if (p % 3 == 1)
                options.cacheFaults.kind =
                    sim::CacheFaultPlan::Kind::Clobber;
            if (p % 3 == 2) {
                options.cacheFaults.kind =
                    sim::CacheFaultPlan::Kind::CrashAfterTmp;
                options.cacheFaults.repeat = true;
            }
            const std::string json = runGridJson(jobs, options);
            std::ofstream(dir / ("out." + std::to_string(p)),
                          std::ios::binary | std::ios::trunc)
                << json;
            _exit(0);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    for (unsigned p = 0; p < kProcs; ++p) {
        std::ifstream in(dir / ("out." + std::to_string(p)),
                         std::ios::binary);
        ASSERT_TRUE(in.good()) << p;
        std::ostringstream buffer;
        buffer << in.rdbuf();
        EXPECT_EQ(buffer.str(), reference) << "process " << p;
    }
    EXPECT_EQ(sim::cacheSurveyDir(dir / "cache").corrupt, 0u);
}

// ---------------------------------------------------------------------
// Maintenance: survey and gc.
// ---------------------------------------------------------------------

TEST(CacheSurveyTest, ClassifiesEveryFileKind)
{
    const fs::path dir = freshDir("survey");
    sim::JobCache::Options options;
    options.dir = dir.string();
    sim::JobCache cache(options);
    ASSERT_TRUE(cache.store(syntheticKey(1), syntheticRecord(1)));
    ASSERT_TRUE(cache.store(syntheticKey(2), syntheticRecord(2)));

    // A corrupt entry, a misplaced entry (legacy flat root), a
    // writer temp, a stray file, and the per-shard lock file that
    // caches written by older builds hold (not cache content).
    std::ofstream(cache.entryPath(syntheticKey(2)),
                  std::ios::binary | std::ios::trunc)
        << "{torn";
    std::ofstream(dir / syntheticKey(3).file) << "legacy";
    std::ofstream(cache.entryPath(syntheticKey(1)).string() +
                  ".tmp.999.0")
        << "half";
    std::ofstream(dir / "README.txt") << "hello";
    const fs::path lock =
        cache.entryPath(syntheticKey(1)).parent_path() / ".lock";
    std::ofstream(lock) << "";

    const sim::CacheSurvey survey = sim::cacheSurveyDir(dir);
    EXPECT_EQ(survey.entries, 1u);
    EXPECT_EQ(survey.okRecords, 1u);
    EXPECT_EQ(survey.corrupt, 2u); // torn entry + unparseable legacy
    EXPECT_EQ(survey.misplaced, 1u);
    EXPECT_EQ(survey.tempFiles, 1u);
    EXPECT_EQ(survey.otherFiles, 1u);
    EXPECT_GE(survey.suspects.size(), 2u);
    EXPECT_EQ(survey.shardsUsed, 2u);

    // gc leaves the lock file alone, however old and whatever it
    // removes around it.
    backdate(lock, 1000.0);
    sim::CacheGcOptions gc;
    gc.maxAgeSec = 500.0;
    gc.graceSec = 0.0;
    gc.removeCorrupt = true;
    sim::cacheGcDir(dir, gc);
    EXPECT_TRUE(fs::exists(lock));
}

TEST(CacheGc, AgePolicyRespectsTheGraceMargin)
{
    const fs::path dir = freshDir("gc-age");
    sim::JobCache::Options options;
    options.dir = dir.string();
    sim::JobCache cache(options);
    for (unsigned k = 0; k < 4; ++k)
        ASSERT_TRUE(cache.store(syntheticKey(k), syntheticRecord(k)));
    backdate(cache.entryPath(syntheticKey(0)), 1000.0);
    backdate(cache.entryPath(syntheticKey(1)), 1000.0);

    sim::CacheGcOptions gc;
    gc.maxAgeSec = 500.0;
    gc.graceSec = 60.0;
    const sim::CacheGcResult result = sim::cacheGcDir(dir, gc);
    EXPECT_EQ(result.removedEntries, 2u);
    EXPECT_EQ(result.keptEntries, 2u);
    sim::JobRecord out;
    EXPECT_FALSE(cache.load(syntheticKey(0), out));
    EXPECT_TRUE(cache.load(syntheticKey(2), out));

    // Young files are protected even when the age policy wants them:
    // they may be a live writer's fresh publish.
    sim::CacheGcOptions eager;
    eager.maxAgeSec = 0.0001;
    eager.graceSec = 3600.0;
    const sim::CacheGcResult spared = sim::cacheGcDir(dir, eager);
    EXPECT_EQ(spared.removedEntries, 0u);
    EXPECT_EQ(spared.keptEntries, 2u);
}

TEST(CacheGc, SizePolicyEvictsOldestFirst)
{
    const fs::path dir = freshDir("gc-size");
    sim::JobCache::Options options;
    options.dir = dir.string();
    sim::JobCache cache(options);
    std::uint64_t total = 0;
    for (unsigned k = 0; k < 6; ++k) {
        ASSERT_TRUE(cache.store(syntheticKey(k), syntheticRecord(k)));
        backdate(cache.entryPath(syntheticKey(k)),
                 3600.0 * (6 - k)); // key 0 is the oldest
        total += static_cast<std::uint64_t>(
            fs::file_size(cache.entryPath(syntheticKey(k))));
    }
    sim::CacheGcOptions gc;
    gc.maxBytes = total / 2;
    gc.graceSec = 0.0;
    const sim::CacheGcResult result = sim::cacheGcDir(dir, gc);
    EXPECT_GE(result.removedEntries, 2u);
    sim::JobRecord out;
    // Oldest evicted first; the youngest survives.
    EXPECT_FALSE(cache.load(syntheticKey(0), out));
    EXPECT_TRUE(cache.load(syntheticKey(5), out));
}

TEST(CacheGc, SizePolicyCountsTheEntryTheGraceMarginKeeps)
{
    const fs::path dir = freshDir("gc-size-grace");
    sim::JobCache::Options options;
    options.dir = dir.string();
    sim::JobCache cache(options);
    for (unsigned k = 0; k < 3; ++k)
        ASSERT_TRUE(cache.store(syntheticKey(k), syntheticRecord(k)));
    backdate(cache.entryPath(syntheticKey(0)), 3600.0);
    backdate(cache.entryPath(syntheticKey(1)), 3600.0);

    // The budget wants every entry gone; the margin spares the young
    // one, which stays on disk and so must be counted as kept.
    sim::CacheGcOptions gc;
    gc.maxBytes = 1;
    gc.graceSec = 60.0;
    gc.dryRun = true;
    const sim::CacheGcResult result = sim::cacheGcDir(dir, gc);
    EXPECT_EQ(result.removedEntries, 2u);
    EXPECT_EQ(result.keptEntries, 1u);
}

TEST(CacheGc, RemoveCorruptReclaimsSuspects)
{
    const fs::path dir = freshDir("gc-corrupt");
    sim::JobCache::Options options;
    options.dir = dir.string();
    sim::JobCache cache(options);
    ASSERT_TRUE(cache.store(syntheticKey(1), syntheticRecord(1)));
    ASSERT_TRUE(cache.store(syntheticKey(2), syntheticRecord(2)));
    std::ofstream(cache.entryPath(syntheticKey(2)),
                  std::ios::binary | std::ios::trunc)
        << "{torn";
    // Give the corrupt file a safe age so only the policy, not the
    // grace margin, decides.
    backdate(cache.entryPath(syntheticKey(2)), 1000.0);

    sim::CacheGcOptions keep;
    keep.graceSec = 0.0;
    EXPECT_EQ(sim::cacheGcDir(dir, keep).removedEntries, 0u);

    sim::CacheGcOptions reclaim;
    reclaim.graceSec = 0.0;
    reclaim.removeCorrupt = true;
    EXPECT_EQ(sim::cacheGcDir(dir, reclaim).removedEntries, 1u);
    sim::JobRecord out;
    EXPECT_TRUE(cache.load(syntheticKey(1), out));
}

} // namespace
} // namespace regless
