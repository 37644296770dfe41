/**
 * @file
 * ExperimentEngine coverage: the config fingerprint reacts to every
 * top-level GpuConfig field, duplicate submissions collapse onto one
 * job, the on-disk cache hits on identical configs and misses on any
 * change or corruption, results and cache counters are identical for
 * every worker count, and the lint gate raises the first failure in
 * submission order and stays shut after it. Also the report's flags:
 * numeric values must parse whole, and an unknown flag is a usage
 * error.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hh"
#include "common/sim_error.hh"
#include "figures/figures.hh"
#include "sim/experiment_engine.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

/** A few-instruction kernel so engine tests simulate in microseconds. */
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

/** Fresh per-test cache directory under the gtest temp root. */
std::filesystem::path
freshCacheDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("regless-engine-" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ConfigFingerprint, EveryTopLevelFieldChangesIt)
{
    const sim::GpuConfig base;
    std::set<std::uint64_t> seen{sim::configFingerprint(base)};

    // One mutation per top-level GpuConfig field; each must produce a
    // fingerprint distinct from the default and from all the others.
    const std::vector<void (*)(sim::GpuConfig &)> mutations = {
        [](sim::GpuConfig &c) { c.provider = sim::ProviderKind::Rfv; },
        [](sim::GpuConfig &c) { c.sm.numWarps += 1; },
        [](sim::GpuConfig &c) { c.mem.l1.sizeBytes *= 2; },
        [](sim::GpuConfig &c) { c.compiler.maxRegsPerRegion += 1; },
        [](sim::GpuConfig &c) { c.regless.osuEntriesPerSm += 128; },
        [](sim::GpuConfig &c) { c.baselineRfEntries += 1; },
        [](sim::GpuConfig &c) { c.limitOccupancyByRf = true; },
        [](sim::GpuConfig &c) {
            c.faults.kind = FaultPlan::Kind::LeakOsuSlot;
        },
    };
    for (auto mutate : mutations) {
        sim::GpuConfig config;
        mutate(config);
        auto [it, inserted] =
            seen.insert(sim::configFingerprint(config));
        (void)it;
        EXPECT_TRUE(inserted)
            << "mutation #" << seen.size()
            << " did not change the fingerprint";
    }
}

TEST(ConfigFingerprint, CanonicalTextNamesEveryTopLevelField)
{
    const std::string text =
        sim::configCanonicalText(sim::GpuConfig{});
    for (const char *needle :
         {"provider=", "sm.", "mem.", "compiler.", "regless.",
          "baseline_rf_entries=",
          "limit_occupancy_by_rf=", "faults.", "sm.watchdog_window=",
          "sm.max_cycles="}) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "canonical dump is missing " << needle;
    }
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

TEST(ConfigFingerprint, CanonicalTextsMatchTheirDigests)
{
    // The canonical text is the cache-key contract: a cache filled by
    // an earlier build keeps serving only while every byte of every
    // config's text, job fingerprint and entry name stays the same.
    // Each entry digests one of them; a mismatch prints the new digest.
    const std::map<std::string, std::uint64_t> pinned = {
        {"compiler", 0xd89312423790d09fULL},
        {"corun/nn+srad_v1", 0x7c25f3ac1a5ed2c1ULL},
        {"default", 0xa918f298bddb4710ULL},
        {"doubles", 0x416a27ef74f83c07ULL},
        {"fault/drop_dram", 0x4b85593ca4059789ULL},
        {"job/srad_v1/regless/0sm/file", 0xa9a0e1647c3c9e92ULL},
        {"job/srad_v1/regless/0sm/fingerprint", 0x55a47e2af4a6842fULL},
        {"job/srad_v1/regless/8sm/file", 0x29d16bf6fe878a23ULL},
        {"job/srad_v1/regless/8sm/fingerprint", 0x6cec7518987f5b87ULL},
        {"provider/baseline", 0xa918f298bddb4710ULL},
        {"provider/regdem", 0xfbb1dde55fae2635ULL},
        {"provider/regless", 0xe39251ee5275ce8aULL},
        {"provider/regless_nocomp", 0x16e85c4e722cbfdeULL},
        {"provider/rfcache", 0xcda8cc1088794979ULL},
        {"provider/rfh", 0x3d6f84694d3a6ec8ULL},
        {"provider/rfv", 0x2c0b9993ae4b612eULL},
        {"regless/osu128", 0x97296fcdb52fb403ULL},
        {"trace", 0x18bddbc52b00e672ULL},
    };

    std::map<std::string, std::uint64_t> got;
    const auto config = [&](const std::string &name,
                            const sim::GpuConfig &c) {
        const std::string text = sim::configCanonicalText(c);
        EXPECT_EQ(sim::configFingerprint(c), fnv1a(text)) << name;
        got[name] = fnv1a(text);
    };
    config("default", sim::GpuConfig{});
    for (sim::ProviderKind kind : sim::allProviderKinds()) {
        config(std::string("provider/") + sim::providerName(kind),
               sim::GpuConfig::forProvider(kind));
    }
    sim::GpuConfig osu =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    osu.setOsuCapacity(128);
    config("regless/osu128", osu);

    sim::GpuConfig corun =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    corun.tenants.workloads = {{"nn", 1}, {"srad_v1", 0}};
    corun.tenants.policy = regfile::CapacityPolicy::PriorityReserve;
    corun.tenants.qosPreemption = true;
    corun.tenants.qosInterval = 2000;
    corun.tenants.qosShare = 0.25;
    config("corun/nn+srad_v1", corun);

    sim::GpuConfig fault;
    fault.faults.kind = FaultPlan::Kind::DropDramResponse;
    fault.faults.triggerCycle = 2000;
    fault.faults.transient = true;
    config("fault/drop_dram", fault);

    sim::GpuConfig trace;
    trace.trace.enabled = true;
    trace.trace.path = "out/nn trace.json";
    config("trace", trace);

    sim::GpuConfig doubles;
    doubles.mem.dram.bandwidthShare = 1.0 / 3;
    doubles.tenants.reserveFrac = 0.1;
    config("doubles", doubles);

    for (unsigned sms : {0u, 8u}) {
        const sim::SimJob job{
            "srad_v1",
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless),
            sms,
            {}};
        const std::string name = "job/srad_v1/regless/" +
                                 std::to_string(sms) + "sm";
        got[name + "/fingerprint"] =
            sim::ExperimentEngine::jobFingerprint(job);
        got[name + "/file"] =
            fnv1a(sim::ExperimentEngine::cacheFileName(job));
    }
    got["compiler"] =
        fnv1a(sim::compilerConfigText(sim::GpuConfig{}.compiler));

    for (const auto &[name, digest] : got) {
        auto it = pinned.find(name);
        EXPECT_TRUE(it != pinned.end() && it->second == digest)
            << "new digest: {\"" << name << "\", 0x" << std::hex
            << digest << "ULL},";
    }
    for (const auto &[name, digest] : pinned)
        EXPECT_EQ(got.count(name), 1u) << "stale entry " << name;
}

TEST(ExperimentEngine, DuplicateSubmissionsCollapse)
{
    sim::ExperimentEngine engine;
    auto a = engine.submit(tinyJob(sim::ProviderKind::Baseline));
    auto b = engine.submit(tinyJob(sim::ProviderKind::Baseline));
    EXPECT_EQ(a, b);
    EXPECT_EQ(engine.pointsRequested(), 2u);
    EXPECT_EQ(engine.pointsUnique(), 1u);
    engine.flush();
    EXPECT_EQ(engine.simulated(), 1u);
}

TEST(ExperimentEngine, SmsCountIsPartOfTheJobKey)
{
    sim::ExperimentEngine engine;
    sim::SimJob solo = tinyJob(sim::ProviderKind::Baseline);
    sim::SimJob multi = solo;
    multi.sms = 1; // multi-SM executor, not the standalone SM
    EXPECT_NE(engine.submit(solo), engine.submit(multi));
    EXPECT_EQ(engine.pointsUnique(), 2u);
}

TEST(ExperimentEngine, WarmCacheRerunSimulatesNothing)
{
    const auto dir = freshCacheDir("warm");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();

    sim::ExperimentEngine cold(options);
    auto id = cold.submit(tinyJob(sim::ProviderKind::Regless));
    const sim::RunStats first = cold.stats(id);
    EXPECT_EQ(cold.simulated(), 1u);
    EXPECT_EQ(cold.cacheHits(), 0u);

    sim::ExperimentEngine warm(options);
    auto id2 = warm.submit(tinyJob(sim::ProviderKind::Regless));
    const sim::RunStats &second = warm.stats(id2);
    EXPECT_EQ(warm.simulated(), 0u);
    EXPECT_EQ(warm.cacheHits(), 1u);
    EXPECT_TRUE(first == second);
}

TEST(ExperimentEngine, AnyConfigFieldChangeMissesTheCache)
{
    const auto dir = freshCacheDir("field-miss");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();

    {
        sim::ExperimentEngine engine(options);
        engine.submit(tinyJob(sim::ProviderKind::Regless));
        engine.flush();
        EXPECT_EQ(engine.simulated(), 1u);
    }
    // A one-field change in a nested config must re-simulate.
    sim::SimJob changed = tinyJob(sim::ProviderKind::Regless);
    changed.config.mem.dram.accessLatency += 1;
    sim::ExperimentEngine engine(options);
    engine.submit(changed);
    engine.flush();
    EXPECT_EQ(engine.cacheHits(), 0u);
    EXPECT_EQ(engine.simulated(), 1u);
}

TEST(ExperimentEngine, CorruptCacheEntryIsToleratedAsAMiss)
{
    const auto dir = freshCacheDir("corrupt");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();

    const sim::SimJob job = tinyJob(sim::ProviderKind::Regless);
    sim::RunStats reference;
    {
        sim::ExperimentEngine engine(options);
        reference = engine.stats(engine.submit(job));
    }
    const auto path =
        dir / sim::ExperimentEngine::cacheEntryPath(job);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Garbage content: re-simulated, and the entry heals.
    {
        std::ofstream(path, std::ios::trunc) << "{not json";
        sim::ExperimentEngine engine(options);
        const sim::RunStats &stats = engine.stats(engine.submit(job));
        EXPECT_EQ(engine.cacheHits(), 0u);
        EXPECT_EQ(engine.simulated(), 1u);
        EXPECT_TRUE(stats == reference);
    }
    // Healed entry hits again.
    {
        sim::ExperimentEngine engine(options);
        engine.submit(job);
        engine.flush();
        EXPECT_EQ(engine.cacheHits(), 1u);
    }
    // Truncation (half of a valid entry) is also just a miss.
    {
        std::ifstream in(path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        in.close();
        const std::string full = buffer.str();
        std::ofstream(path, std::ios::trunc)
            << full.substr(0, full.size() / 2);
        sim::ExperimentEngine engine(options);
        const sim::RunStats &stats = engine.stats(engine.submit(job));
        EXPECT_EQ(engine.cacheHits(), 0u);
        EXPECT_EQ(engine.simulated(), 1u);
        EXPECT_TRUE(stats == reference);
    }
}

TEST(ExperimentEngine, ResultsAreWorkerCountInvariant)
{
    auto runWith = [](unsigned jobs) {
        sim::ExperimentEngine::Options options;
        options.jobs = jobs;
        sim::ExperimentEngine engine(options);
        for (sim::ProviderKind kind :
             {sim::ProviderKind::Baseline, sim::ProviderKind::Rfh,
              sim::ProviderKind::Rfv, sim::ProviderKind::Regless})
            engine.submit(tinyJob(kind));
        engine.submit("nn", sim::ProviderKind::Regless);
        return engine.allStats();
    };
    const std::vector<sim::RunStats> serial = runWith(1);
    const std::vector<sim::RunStats> parallel = runWith(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i] == parallel[i]) << "job " << i;
}

TEST(ExperimentEngine, LintGateRunsOncePerKernelAndConfig)
{
    sim::ExperimentEngine::Options options;
    options.lint = true;
    sim::ExperimentEngine engine(options);

    // Same kernel under two providers with identical compiler configs:
    // one lint. Runtime-only parameter changes must not re-lint.
    engine.submit(tinyJob(sim::ProviderKind::Baseline));
    sim::SimJob rl = tinyJob(sim::ProviderKind::Regless);
    rl.config.regless.fifoActivation = true;
    engine.submit(rl);
    engine.flush();
    EXPECT_EQ(engine.kernelsLinted(), 1u);

    // A different kernel is a new lint.
    engine.submit("nn", sim::ProviderKind::Regless);
    engine.flush();
    EXPECT_EQ(engine.kernelsLinted(), 2u);

    // A compiler-config change recompiles, so it re-lints.
    sim::SimJob split = tinyJob(sim::ProviderKind::Regless);
    split.config.compiler.splitLoadUse = false;
    engine.submit(split);
    engine.flush();
    EXPECT_EQ(engine.kernelsLinted(), 3u);
}

TEST(ExperimentEngine, LintGateRunsBeforeServingCachedResults)
{
    // The gate must fire even on a fully warm cache: a cached RunStats
    // is not evidence the kernel's annotations are sound.
    const auto dir = freshCacheDir("lint-warm");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();
    {
        sim::ExperimentEngine cold(options);
        cold.submit(tinyJob(sim::ProviderKind::Regless));
        cold.flush();
        EXPECT_EQ(cold.simulated(), 1u);
    }
    options.lint = true;
    sim::ExperimentEngine warm(options);
    warm.submit(tinyJob(sim::ProviderKind::Regless));
    warm.flush();
    EXPECT_EQ(warm.simulated(), 0u);
    EXPECT_EQ(warm.cacheHits(), 1u);
    EXPECT_EQ(warm.kernelsLinted(), 1u);
}

TEST(ExperimentEngine, LintGateKeysCoRunsByTheirTenantKernels)
{
    // A co-run lints the kernels of its tenants, so solo runs of the
    // same kernels under the same compiler config are already linted.
    sim::ExperimentEngine::Options options;
    options.lint = true;
    sim::ExperimentEngine engine(options);
    sim::GpuConfig corun =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    corun.tenants.workloads = {{"nn", 0}, {"srad_v1", 0}};
    engine.submit("nn+srad_v1", corun);
    engine.submit("nn", sim::ProviderKind::Regless);
    engine.submit("srad_v1", sim::ProviderKind::Regless);
    engine.flush();
    EXPECT_EQ(engine.failed() + engine.deadlocked(), 0u);
    EXPECT_EQ(engine.kernelsLinted(), 2u);
}

/** A tiny job named @a kernel whose builder raises @a message after
 * @a delay. */
sim::SimJob
throwingJob(const std::string &kernel, const std::string &message,
            std::chrono::milliseconds delay = {})
{
    sim::SimJob job = tinyJob(sim::ProviderKind::Regless);
    job.kernel = kernel;
    job.builder = [message, delay]() -> ir::Kernel {
        std::this_thread::sleep_for(delay);
        throw sim::SimError(sim::SimErrorKind::Config, message);
    };
    return job;
}

/** what() of the error @a engine's flush() raises ("" for none). */
std::string
flushError(sim::ExperimentEngine &engine)
{
    try {
        engine.flush();
    } catch (const sim::SimError &e) {
        return e.what();
    }
    return "";
}

TEST(ExperimentEngine, LintGateStaysShutAfterARejection)
{
    // The cache holds a result under the rejected kernel's key, so a
    // gate that reopened would serve it.
    const auto dir = freshCacheDir("lint-shut");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();
    {
        sim::SimJob good = tinyJob(sim::ProviderKind::Regless);
        good.kernel = "rejected";
        sim::ExperimentEngine fill(options);
        fill.submit(good);
        fill.flush();
        ASSERT_EQ(fill.simulated(), 1u);
    }
    options.lint = true;
    for (unsigned jobs : {1u, 4u}) {
        options.jobs = jobs;
        sim::ExperimentEngine engine(options);
        engine.submit(throwingJob("rejected", "no kernel to build"));
        EXPECT_EQ(flushError(engine), "no kernel to build") << jobs;
        EXPECT_EQ(flushError(engine), "no kernel to build") << jobs;
        EXPECT_EQ(engine.simulated(), 0u) << jobs;
        EXPECT_EQ(engine.cacheHits(), 0u) << jobs;
        EXPECT_EQ(engine.kernelsLinted(), 0u) << jobs;
        EXPECT_EQ(engine.cache().counters().hits +
                      engine.cache().counters().misses,
                  0u)
            << jobs;
    }
}

TEST(ExperimentEngine, LintGateRaisesTheFirstFailureInSubmissionOrder)
{
    // The second job's builder is the slower one to fail, so a gate
    // that raised the first failure to arrive would name the third.
    const auto dir = freshCacheDir("lint-order");
    auto flushOnce = [&](unsigned jobs) {
        sim::ExperimentEngine::Options options;
        options.jobs = jobs;
        options.lint = true;
        options.cacheDir = dir.string();
        sim::ExperimentEngine engine(options);
        engine.submit(tinyJob(sim::ProviderKind::Regless));
        engine.submit(throwingJob("second", "second failed",
                                  std::chrono::milliseconds(1)));
        engine.submit(throwingJob("third", "third failed"));
        const std::string error = flushError(engine);
        EXPECT_EQ(engine.simulated() + engine.cacheHits(), 0u);
        EXPECT_EQ(engine.cache().counters().misses, 0u);
        return error;
    };
    EXPECT_EQ(flushOnce(1), "second failed");
    for (int run = 0; run < 20; ++run)
        EXPECT_EQ(flushOnce(8), "second failed") << "run " << run;
}

/** Every CacheCounters field, in declaration order. */
std::vector<std::uint64_t>
counterFields(const sim::CacheCounters &c)
{
    return {c.hits,        c.misses,        c.stores,
            c.storeFailures, c.corrupt,     c.schemaRejects,
            c.coalesced,   c.lockWaits,     c.lockTimeouts,
            c.janitorRemoved};
}

/** The whole text of @a path. */
std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Replace the first @a from in the file at @a path with @a to. */
void
editFile(const std::filesystem::path &path, const std::string &from,
         const std::string &to)
{
    std::string text = readFile(path);
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << path << ": " << from;
    text.replace(at, from.size(), to);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

TEST(ExperimentEngine, WarmFlushIsWorkerCountInvariant)
{
    std::vector<sim::SimJob> jobs;
    for (sim::ProviderKind kind : sim::allProviderKinds())
        jobs.push_back(tinyJob(kind));
    jobs.push_back({"nn",
                    sim::GpuConfig::forProvider(sim::ProviderKind::Regless),
                    0,
                    {}});

    // Fill the cache, then damage four entries: a truncation, a
    // foreign schema, a swapped provider and a deletion.
    const auto damaged = freshCacheDir("warm-parity");
    {
        sim::ExperimentEngine::Options options;
        options.cacheDir = damaged.string();
        sim::ExperimentEngine fill(options);
        for (const sim::SimJob &job : jobs)
            fill.submit(job);
        fill.flush();
        ASSERT_EQ(fill.simulated(), jobs.size());
    }
    auto entry = [&](std::size_t i) {
        return damaged / sim::ExperimentEngine::cacheEntryPath(jobs[i]);
    };
    const std::string full = readFile(entry(0));
    std::ofstream(entry(0), std::ios::binary | std::ios::trunc)
        << full.substr(0, full.size() / 2);
    editFile(entry(1),
             "\"record_schema\":" +
                 std::to_string(sim::kJobCacheSchemaVersion),
             "\"record_schema\":8");
    editFile(entry(2),
             std::string("\"provider\":\"") +
                 sim::providerName(jobs[2].config.provider),
             std::string("\"provider\":\"") +
                 sim::providerName(jobs[3].config.provider));
    std::filesystem::remove(entry(3));

    struct Warm
    {
        std::vector<sim::JobResult> results;
        std::vector<std::uint64_t> counters;
        std::uint64_t hits = 0;
        std::uint64_t simulated = 0;
    };
    // Each engine heals its own copy of the damaged directory.
    auto warm = [&](unsigned workers) {
        const auto dir =
            freshCacheDir("warm-parity-" + std::to_string(workers));
        std::filesystem::copy(damaged, dir,
                              std::filesystem::copy_options::recursive);
        sim::ExperimentEngine::Options options;
        options.cacheDir = dir.string();
        options.lint = true;
        options.jobs = workers;
        sim::ExperimentEngine engine(options);
        std::vector<sim::ExperimentEngine::JobId> ids;
        for (const sim::SimJob &job : jobs)
            ids.push_back(engine.submit(job));
        engine.flush();
        Warm out;
        for (sim::ExperimentEngine::JobId id : ids)
            out.results.push_back(engine.result(id));
        out.counters = counterFields(engine.cache().counters());
        out.hits = engine.cacheHits();
        out.simulated = engine.simulated();
        return out;
    };
    const Warm serial = warm(1);
    const Warm parallel = warm(8);
    EXPECT_EQ(serial.hits, jobs.size() - 4);
    EXPECT_EQ(serial.simulated, 4u);
    EXPECT_EQ(parallel.hits, serial.hits);
    EXPECT_EQ(parallel.simulated, serial.simulated);
    EXPECT_EQ(parallel.counters, serial.counters);
    ASSERT_EQ(parallel.results.size(), serial.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        const sim::JobResult &a = serial.results[i];
        const sim::JobResult &b = parallel.results[i];
        EXPECT_EQ(a.status, b.status) << "job " << i;
        EXPECT_TRUE(a.stats == b.stats) << "job " << i;
        EXPECT_EQ(a.error, b.error) << "job " << i;
        EXPECT_EQ(a.deadlock, b.deadlock) << "job " << i;
        EXPECT_EQ(a.attempts, b.attempts) << "job " << i;
    }
}

TEST(FigureGenerators, ColdAndWarmRunsEmitIdenticalBytes)
{
    // The same figure rendered from fresh simulations and from the
    // cache must be byte-identical.
    const figures::Figure *figure =
        figures::findFigure("fig03_backing_store");
    ASSERT_NE(figure, nullptr);

    const auto dir = freshCacheDir("figure-bytes");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();

    std::ostringstream cold_out;
    sim::ExperimentEngine cold(options);
    figures::FigureContext cold_ctx{cold, cold_out};
    figures::runFigure(*figure, cold_ctx);
    EXPECT_GT(cold.simulated(), 0u);

    std::ostringstream warm_out;
    sim::ExperimentEngine warm(options);
    figures::FigureContext warm_ctx{warm, warm_out};
    figures::runFigure(*figure, warm_ctx);
    EXPECT_EQ(warm.simulated(), 0u);
    EXPECT_GT(warm.cacheHits(), 0u);

    EXPECT_EQ(cold_out.str(), warm_out.str());
    EXPECT_FALSE(cold_out.str().empty());
}

/** parseReportOptions over a regless_report command line. */
figures::ReportOptions
parseFlags(std::vector<std::string> args)
{
    args.insert(args.begin(), "regless_report");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return figures::parseReportOptions(static_cast<int>(argv.size()),
                                       argv.data());
}

/** `@a flag @a value` must throw a SimError naming both. */
void
expectRejected(const std::string &flag, const std::string &value)
{
    try {
        parseFlags({flag, value});
        ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const sim::SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(flag), std::string::npos) << what;
        EXPECT_NE(what.find("'" + value + "'"), std::string::npos)
            << what;
    }
}

TEST(ReportFlags, JobsMustBeOneWholeNumber)
{
    EXPECT_EQ(parseFlags({"--jobs", "4"}).jobs, 4u);
    expectRejected("--jobs", "four");
    expectRejected("--jobs", "-1");
    expectRejected("--jobs", "4x");
}

TEST(ReportFlags, MaxCyclesMustBeOneWholeNumber)
{
    EXPECT_EQ(parseFlags({"--max-cycles", "1000000"}).maxCycles,
              1'000'000u);
    expectRejected("--max-cycles", "1e6");
    expectRejected("--max-cycles", "-5");
}

TEST(ReportFlags, JobTimeoutMustBeOneNonNegativeNumber)
{
    EXPECT_EQ(parseFlags({"--job-timeout", "2.5"}).jobTimeoutSec, 2.5);
    expectRejected("--job-timeout", "5s");
    expectRejected("--job-timeout", "-1");
    expectRejected("--job-timeout", "nan");
}

TEST(ReportFlags, UnknownFlagIsAUsageError)
{
    // The library throws and lets main() pick the exit status (2).
    auto expect_usage_error = [](const std::vector<std::string> &args) {
        try {
            parseFlags(args);
            ADD_FAILURE() << args[0] << " was accepted";
        } catch (const FlagError &e) {
            EXPECT_NE(std::string(e.what()).find(args[0]),
                      std::string::npos)
                << e.what();
        }
    };
    expect_usage_error({"--shard", "1/2"});
    expect_usage_error({"--bogus"});
    expect_usage_error({"--jobs"}); // missing value
}

} // namespace
} // namespace regless
