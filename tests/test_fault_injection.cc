/**
 * @file
 * Fault-injection and fault-isolation coverage (DESIGN.md §9): every
 * injected fault class provokes its failure deterministically, the
 * forward-progress watchdog terminates hangs within its window with a
 * populated DeadlockReport, a crashing job (whatever it throws) never
 * disturbs its siblings, transient faults are retried exactly once,
 * and failures are negative-cached through the JobRecord JSON round
 * trip.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>

#include "common/sim_error.hh"
#include "sim/experiment_engine.hh"
#include "sim/gpu_simulator.hh"
#include "sim/multi_sm.hh"
#include "sim/progress_monitor.hh"
#include "sim/stats_io.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/random_kernel.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

/** A few-instruction kernel so fault tests simulate in microseconds. */
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

/**
 * A RegLess config whose fault plan leaks every OSU reservation at
 * cycle 0, so no region ever fits and the watchdog must fire. The
 * window is tight to keep tests fast; maxCycles is a backstop that
 * must never be the verdict (the stall check fires much earlier).
 */
sim::GpuConfig
leakyConfig(Cycle window = 5000)
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    cfg.faults.kind = FaultPlan::Kind::LeakOsuSlot;
    cfg.faults.triggerCycle = 0;
    cfg.sm.watchdogWindow = window;
    cfg.sm.maxCycles = 2'000'000;
    return cfg;
}

std::filesystem::path
freshCacheDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("regless-faults-" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(Watchdog, OsuLeakDeadlockTripsWithinOneWindow)
{
    const ir::Kernel kernel = workloads::randomKernel(1);
    const sim::GpuConfig cfg = leakyConfig();
    sim::GpuSimulator gpu(kernel, cfg);
    try {
        gpu.run();
        FAIL() << "leaked OSU reservations did not deadlock";
    } catch (const sim::DeadlockError &e) {
        const sim::DeadlockReport &r = e.report();
        EXPECT_EQ(r.reason,
                  sim::ProgressMonitor::reason(
                      sim::ProgressMonitor::Verdict::Stalled));
        EXPECT_EQ(r.kernel, kernel.name());
        EXPECT_EQ(r.watchdogWindow, cfg.sm.watchdogWindow);
        // Terminates within the window of the last progress (plus the
        // check granularity), not at the multi-million-cycle budget.
        EXPECT_GE(r.cycle, r.lastProgressCycle + r.watchdogWindow);
        EXPECT_LE(r.cycle, r.lastProgressCycle + r.watchdogWindow + 64);
        // The diagnosis names the structures that pin the warps.
        ASSERT_FALSE(r.warps.empty());
        EXPECT_NE(r.warps.front().find("cm="), std::string::npos);
        ASSERT_FALSE(r.banks.empty());
        EXPECT_NE(r.banks.front().find("reserved="), std::string::npos);
        EXPECT_NE(r.memState.find("MSHR"), std::string::npos);
        // The leak itself is visible: some bank carries phantom
        // reservations that will never be honoured.
        bool leaked = false;
        for (const std::string &line : r.banks)
            leaked = leaked ||
                     (line.find("reserved=") != std::string::npos &&
                      line.find("reserved=0") == std::string::npos);
        EXPECT_TRUE(leaked) << e.report().render();
    }
}

TEST(Watchdog, DroppedDramResponseWedgesTheRun)
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    cfg.faults.kind = FaultPlan::Kind::DropDramResponse;
    cfg.faults.triggerCycle = 0;
    cfg.sm.watchdogWindow = 10'000;
    sim::GpuSimulator gpu(tinyKernel(), cfg);
    try {
        gpu.run();
        FAIL() << "dropped DRAM response did not wedge the run";
    } catch (const sim::DeadlockError &e) {
        EXPECT_EQ(e.report().reason,
                  sim::ProgressMonitor::reason(
                      sim::ProgressMonitor::Verdict::Stalled));
        EXPECT_FALSE(e.report().warps.empty());
    }
}

TEST(Watchdog, DeadlockReportCountsOnlyMshrsStillInFlight)
{
    // A dropped DRAM response holds no MSHR: MemorySystem::access only
    // changes the ready cycle it returns. Every miss issued before the
    // wedge has filled long before the watchdog fires, even though its
    // map entry stays until a later access would retire it.
    const std::pair<const char *, sim::ProviderKind> runs[] = {
        {"srad_v1", sim::ProviderKind::Regless},
        {"hotspot", sim::ProviderKind::Baseline}};
    for (const auto &[kernel, kind] : runs) {
        sim::GpuConfig cfg = sim::GpuConfig::forProvider(kind);
        cfg.faults.kind = FaultPlan::Kind::DropDramResponse;
        cfg.faults.triggerCycle = 2000;
        cfg.sm.watchdogWindow = 50'000;
        sim::GpuSimulator gpu(workloads::makeRodinia(kernel), cfg);
        try {
            gpu.run();
            ADD_FAILURE() << kernel << ": dropped response did not wedge";
        } catch (const sim::DeadlockError &e) {
            EXPECT_EQ(e.report().memState,
                      "L1 MSHRs in use: 0, L2 MSHRs in use: 0")
                << kernel;
        }
    }
}

TEST(Watchdog, CycleBudgetTripsAsItsOwnVerdict)
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    cfg.sm.maxCycles = 50; // healthy kernel, absurdly small budget
    sim::GpuSimulator gpu(tinyKernel(), cfg);
    try {
        gpu.run();
        FAIL() << "a 50-cycle budget was not exceeded";
    } catch (const sim::DeadlockError &e) {
        EXPECT_EQ(e.report().reason,
                  sim::ProgressMonitor::reason(
                      sim::ProgressMonitor::Verdict::CycleBudget));
        EXPECT_EQ(e.report().maxCycles, 50u);
    }
}

TEST(Watchdog, MultiSmRunIsCoveredToo)
{
    const ir::Kernel kernel = workloads::randomKernel(1);
    sim::MultiSmSimulator multi(kernel, leakyConfig(), /*sms=*/2,
                                /*threads=*/1);
    EXPECT_THROW(multi.run(), sim::DeadlockError);
}

TEST(FaultIsolation, CrashedJobLeavesSiblingsByteIdentical)
{
    // The same healthy grid, with and without a crashing job in the
    // middle, serial and parallel: the healthy results must be
    // bit-identical in all four runs.
    auto runWith = [](unsigned jobs, bool doomed) {
        sim::ExperimentEngine::Options options;
        options.jobs = jobs;
        options.retryBackoffMs = 0;
        sim::ExperimentEngine engine(options);
        engine.submit(tinyJob(sim::ProviderKind::Baseline));
        engine.submit(tinyJob(sim::ProviderKind::Rfv));
        if (doomed) {
            sim::SimJob job = tinyJob(sim::ProviderKind::Regless);
            job.kernel = "doomed";
            job.config.faults.kind = FaultPlan::Kind::ProviderThrow;
            job.config.faults.triggerCycle = 5;
            engine.submit(job);
        }
        engine.submit(tinyJob(sim::ProviderKind::Rfh));
        engine.submit(tinyJob(sim::ProviderKind::Regless));
        std::vector<sim::RunStats> stats = engine.allStats();
        EXPECT_EQ(engine.failed(), doomed ? 1u : 0u);
        return stats;
    };
    const std::vector<sim::RunStats> clean = runWith(1, false);
    ASSERT_EQ(clean.size(), 4u);
    for (unsigned jobs : {1u, 8u}) {
        const std::vector<sim::RunStats> faulted = runWith(jobs, true);
        ASSERT_EQ(faulted.size(), clean.size())
            << "--jobs " << jobs
            << ": crashed job leaked into allStats()";
        for (std::size_t i = 0; i < clean.size(); ++i)
            EXPECT_TRUE(clean[i] == faulted[i])
                << "--jobs " << jobs << ", sibling " << i;
    }
}

TEST(FaultIsolation, ProviderThrowIsCapturedWithDiagnosis)
{
    sim::ExperimentEngine::Options options;
    options.retryBackoffMs = 0;
    sim::ExperimentEngine engine(options);
    sim::SimJob job = tinyJob(sim::ProviderKind::Regless);
    job.kernel = "doomed";
    job.config.faults.kind = FaultPlan::Kind::ProviderThrow;
    job.config.faults.triggerCycle = 5;
    auto id = engine.submit(job);

    const sim::JobResult &result = engine.result(id);
    EXPECT_EQ(result.status, sim::JobStatus::Failed);
    EXPECT_NE(result.error.find("injected"), std::string::npos);
    // A persistent fault is retried once (it could have been
    // environmental) and fails again.
    EXPECT_EQ(result.attempts, 2u);
    EXPECT_THROW(engine.stats(id), sim::SimError);
    EXPECT_EQ(engine.tryStats(id), nullptr);
    EXPECT_EQ(engine.failedJobs(), std::vector<sim::ExperimentEngine::JobId>{id});
}

TEST(FaultIsolation, NonStandardExceptionFailsOnlyItsJob)
{
    // A throw of any type is its job's failure: one that escaped a
    // pool worker would end the process. The builders sleep first, so
    // both workers are inside a throwing job at once.
    sim::ExperimentEngine::Options options;
    options.jobs = 2;
    options.retryBackoffMs = 0;
    sim::ExperimentEngine engine(options);
    std::vector<sim::ExperimentEngine::JobId> bad;
    for (const char *name : {"throws_int_a", "throws_int_b"}) {
        sim::SimJob job = tinyJob(sim::ProviderKind::Regless);
        job.kernel = name;
        job.builder = []() -> ir::Kernel {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            throw 42;
        };
        bad.push_back(engine.submit(job));
    }
    const auto good = engine.submit(tinyJob(sim::ProviderKind::Baseline));
    engine.flush();

    for (sim::ExperimentEngine::JobId id : bad) {
        const sim::JobResult &result = engine.result(id);
        EXPECT_EQ(result.status, sim::JobStatus::Failed);
        EXPECT_NE(result.error.find("non-standard exception"),
                  std::string::npos)
            << result.error;
        EXPECT_EQ(result.attempts, 2u); // retried like any failure
    }
    EXPECT_EQ(engine.result(good).status, sim::JobStatus::Ok);
    EXPECT_EQ(engine.failedJobs(), bad);
}

TEST(FaultIsolation, TransientFaultRetriesOnceAndSucceeds)
{
    sim::ExperimentEngine::Options options;
    options.retryBackoffMs = 0;
    sim::ExperimentEngine engine(options);

    sim::SimJob transient = tinyJob(sim::ProviderKind::Regless);
    transient.kernel = "transient";
    transient.config.faults.kind = FaultPlan::Kind::ProviderThrow;
    transient.config.faults.triggerCycle = 5;
    transient.config.faults.transient = true;
    auto id = engine.submit(transient);
    auto clean_id = engine.submit(tinyJob(sim::ProviderKind::Regless));

    const sim::JobResult &result = engine.result(id);
    EXPECT_EQ(result.status, sim::JobStatus::Ok);
    EXPECT_EQ(result.attempts, 2u) << result.error;
    EXPECT_EQ(engine.retried(), 1u);
    EXPECT_EQ(engine.failed(), 0u);
    // The retry ran clean, so it must reproduce the fault-free result.
    EXPECT_TRUE(result.stats == engine.stats(clean_id));
}

TEST(FaultIsolation, DeadlockIsNeverRetried)
{
    sim::ExperimentEngine::Options options;
    options.retries = 3;
    options.retryBackoffMs = 0;
    sim::ExperimentEngine engine(options);
    sim::SimJob job{"doomed", leakyConfig(), 0,
                    [] { return workloads::randomKernel(1); }};
    auto id = engine.submit(job);

    const sim::JobResult &result = engine.result(id);
    EXPECT_EQ(result.status, sim::JobStatus::Deadlocked);
    // Deterministic in the cycle domain: retrying cannot help.
    EXPECT_EQ(result.attempts, 1u);
    EXPECT_EQ(engine.deadlocked(), 1u);
    EXPECT_NE(result.deadlock.find("OSU banks"), std::string::npos);
}

TEST(FaultIsolation, DeadlockIsNegativeCachedAndServedAsAHit)
{
    const auto dir = freshCacheDir("negative");
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();
    options.retryBackoffMs = 0;
    const sim::SimJob job{"doomed", leakyConfig(), 0,
                          [] { return workloads::randomKernel(1); }};

    std::string first_diagnosis;
    {
        sim::ExperimentEngine cold(options);
        const sim::JobResult &result = cold.result(cold.submit(job));
        EXPECT_EQ(result.status, sim::JobStatus::Deadlocked);
        EXPECT_EQ(cold.simulated(), 1u);
        first_diagnosis = result.deadlock;
        ASSERT_FALSE(first_diagnosis.empty());
    }
    // A warm rerun never re-executes the known-bad point, and the
    // cached diagnosis survives the JSON round trip byte for byte.
    sim::ExperimentEngine warm(options);
    const sim::JobResult &result = warm.result(warm.submit(job));
    EXPECT_EQ(warm.simulated(), 0u);
    EXPECT_EQ(warm.cacheHits(), 1u);
    EXPECT_EQ(result.status, sim::JobStatus::Deadlocked);
    EXPECT_EQ(result.deadlock, first_diagnosis);
    EXPECT_EQ(result.attempts, 1u);
}

TEST(JobRecordJson, FailureRecordsRoundTrip)
{
    sim::JobRecord record;
    record.schema = 4;
    record.status = sim::JobStatus::Deadlocked;
    record.error = "kernel 'x' made no forward progress";
    record.deadlock = "deadlock: kernel 'x'\n  w0: running pc=3\n"
                      "  osu0.b0: 0/0/0/16, reserved=16";
    record.attempts = 3;
    record.stats.cycles = 123;

    std::ostringstream os;
    sim::writeJson(os, record);
    sim::JobRecord back;
    std::string error;
    ASSERT_TRUE(sim::tryRecordFromJson(os.str(), back, &error))
        << error;
    EXPECT_EQ(back.schema, record.schema);
    EXPECT_EQ(back.status, record.status);
    EXPECT_EQ(back.error, record.error);
    EXPECT_EQ(back.deadlock, record.deadlock);
    EXPECT_EQ(back.attempts, record.attempts);
    EXPECT_EQ(back.stats.cycles, record.stats.cycles);
}

TEST(JobRecordJson, BarePreWatchdogRunStatsAreRejected)
{
    // A cache entry written before records existed is a bare RunStats
    // object; it must read as a miss, not as a successful record.
    sim::RunStats stats;
    stats.cycles = 99;
    std::ostringstream os;
    sim::writeJson(os, stats);
    sim::JobRecord out;
    std::string error;
    EXPECT_FALSE(sim::tryRecordFromJson(os.str(), out, &error));
    EXPECT_NE(error.find("record"), std::string::npos);
}

TEST(FaultInjector, FiresExactlyOnceAtTheTrigger)
{
    FaultInjector injector({FaultPlan::Kind::LeakOsuSlot, 100, false});
    EXPECT_FALSE(injector.fire(FaultPlan::Kind::LeakOsuSlot, 99));
    // The wrong kind never consumes the plan.
    EXPECT_FALSE(injector.fire(FaultPlan::Kind::ProviderThrow, 100));
    EXPECT_FALSE(injector.fired());
    EXPECT_TRUE(injector.fire(FaultPlan::Kind::LeakOsuSlot, 100));
    EXPECT_TRUE(injector.fired());
    EXPECT_FALSE(injector.fire(FaultPlan::Kind::LeakOsuSlot, 101));
}

TEST(EngineOptions, MaxCyclesIsPartOfTheFingerprint)
{
    // The engine-wide budget is folded into each job before its cache
    // key is computed, so entries simulated under different budgets
    // never collide.
    sim::SimJob job = tinyJob(sim::ProviderKind::Baseline);
    const std::string plain = sim::ExperimentEngine::cacheFileName(job);
    sim::ExperimentEngine::Options options;
    options.maxCycles = 10;
    sim::ExperimentEngine engine(options);
    engine.submit(job);
    sim::SimJob budgeted = job;
    budgeted.config.sm.maxCycles = 10;
    EXPECT_NE(plain, sim::ExperimentEngine::cacheFileName(budgeted));
    // And the budget actually bites: ten cycles is far too few.
    EXPECT_EQ(engine.result(0).status, sim::JobStatus::Deadlocked);
}

} // namespace
} // namespace regless
