/**
 * @file
 * ExperimentEngine coverage: the config fingerprint reacts to every
 * top-level GpuConfig field, duplicate submissions collapse onto one
 * job, the on-disk cache hits on identical configs and misses on any
 * change or corruption, and results are identical for every worker
 * count. Also the report's numeric flags, which must parse whole.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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

TEST(ReportFlags, ShardSidesMustBeWholeNumbers)
{
    const figures::ReportOptions options = parseFlags({"--shard", "2/4"});
    EXPECT_EQ(options.shardIndex, 2u);
    EXPECT_EQ(options.shardCount, 4u);
    expectRejected("--shard", "1/-1");
}

} // namespace
} // namespace regless
