/**
 * @file
 * The report workloads: the full paper report (every figure generator
 * on one ExperimentEngine) on min(4, nproc) engine workers.
 *
 *  - report_cold: each pass writes into a fresh, empty cache
 *    directory, so every unique point is simulated and stored.
 *  - report_warm: each pass is a fresh engine with the lint gate on,
 *    over a cache filled during set-up, so nothing is simulated: the
 *    pass is fingerprints, lint verdicts, cache loads, JSON parses and
 *    the figure math.
 *
 * The seed permutes the order the figures are submitted in; the
 * simulated results and the figure text must not change.
 *
 * The traced run replays each unique SimJob serially through the
 * public entry points with a span around every call, and checks each
 * replayed result against the engine's.
 */

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "compiler/compiler.hh"
#include "compiler/staging_checker.hh"
#include "figures/figures.hh"
#include "sim/experiment_engine.hh"
#include "sim/gpu_simulator.hh"
#include "sim/job_cache.hh"
#include "sim/multi_sm.hh"
#include "sim/stats_io.hh"
#include "trace.hh"
#include "workloads/rodinia.hh"

namespace perfbench
{

namespace
{

using namespace regless;
namespace fs = std::filesystem;
using JobId = sim::ExperimentEngine::JobId;

/** The figure registry indices in the seed's submission order. */
std::vector<std::size_t>
figureOrder(std::uint64_t seed)
{
    std::vector<std::size_t> order(figures::allFigures().size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937_64 rng(seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

/** One report pass: what it measured and what it produced. */
struct ReportPass
{
    std::unique_ptr<sim::ExperimentEngine> engine;
    /** Every figure plus the final flush. */
    double wall = 0;
    double cpu = 0;
    /** Figure text in registry order (no engine/cache footers). */
    std::string figures;
    /** Order-independent digest of every unique result. */
    std::string results;
};

sim::ExperimentEngine::Options
engineOptions(unsigned threads, const fs::path &cache_dir, bool lint)
{
    sim::ExperimentEngine::Options options;
    options.jobs = threads;
    options.cacheDir = cache_dir.string();
    options.lint = lint;
    return options;
}

ReportPass
reportPass(const Options &options, unsigned threads,
           const fs::path &cache_dir, bool lint)
{
    rotateCpu();
    ReportPass pass;
    pass.engine = std::make_unique<sim::ExperimentEngine>(
        engineOptions(threads, cache_dir, lint));
    const double t0 = now();
    const double c0 = cpuNow();

    const std::vector<figures::Figure> &all = figures::allFigures();
    std::vector<std::string> text(all.size());
    for (std::size_t i : figureOrder(options.seed)) {
        std::ostringstream out;
        figures::FigureContext ctx{*pass.engine, out};
        figures::runFigure(all[i], ctx);
        text[i] = out.str();
    }
    pass.engine->flush();
    pass.wall = now() - t0;
    pass.cpu = cpuNow() - c0;

    std::string joined;
    for (const std::string &figure : text)
        joined += figure + "\n";
    pass.figures = digestText(joined);
    std::vector<std::string> results;
    for (JobId id = 0; id < pass.engine->pointsUnique(); ++id) {
        const sim::JobResult &r = pass.engine->result(id);
        results.push_back(digestText(
            r.status == sim::JobStatus::Ok
                ? resultLine(sim::toJson(r.stats),
                             pass.engine->job(id).sms)
                : std::string(sim::jobStatusName(r.status)) + " " +
                      r.error));
    }
    pass.results = digestSet(std::move(results));
    return pass;
}

/** Count the pass's jobs and check its outputs. */
void
checkPass(const Options &options, const ReportPass &pass, Result &result)
{
    const sim::ExperimentEngine &engine = *pass.engine;
    result.attempted += engine.pointsUnique();
    const std::uint64_t bad = engine.failed() + engine.deadlocked();
    if (bad) {
        result.failed += bad;
        result.problems.push_back(std::to_string(bad) +
                                  " report jobs failed or deadlocked");
    }
    result.checkDigest(options, "figures", pass.figures);
    result.checkDigest(options, "results", pass.results);
}

/** A fresh, empty directory for one cache tree. */
fs::path
freshDir(const Options &options, const std::string &name)
{
    const fs::path dir = options.workDir / name;
    fs::remove_all(dir);
    return dir;
}

/** The kernels a job simulates (one, or one per tenant). */
std::vector<ir::Kernel>
jobKernels(const sim::SimJob &job)
{
    std::vector<ir::Kernel> kernels;
    if (job.config.tenants.workloads.size() >= 2) {
        for (const sim::TenantWorkload &w : job.config.tenants.workloads)
            kernels.push_back(workloads::makeRodinia(w.kernel));
    } else {
        kernels.push_back(job.builder ? job.builder()
                                      : workloads::makeRodinia(job.kernel));
    }
    return kernels;
}

sim::JobCache::Key
cacheKey(const sim::SimJob &job, Tracer &tracer)
{
    std::uint64_t fingerprint = 0;
    {
        Tracer::Scope span(tracer, "gpu_config.fingerprint");
        fingerprint = sim::ExperimentEngine::jobFingerprint(job);
    }
    return {sim::ExperimentEngine::cacheFileName(job), fingerprint};
}

/**
 * Simulate @a job the way the engine does, through the public entry
 * points, adding the cycles of every simulated SM to @a sm_cycles.
 * Single-SM, single-kernel jobs compile explicitly so compile and
 * assembly get spans of their own; the other constructors compile
 * inside and are charged to sim.assemble.
 */
sim::RunStats
simulate(const sim::SimJob &job, Tracer &tracer, double &sm_cycles)
{
    const std::vector<ir::Kernel> kernels = [&] {
        Tracer::Scope span(tracer, "workloads.make");
        return jobKernels(job);
    }();
    sim::RunStats stats;
    if (job.sms >= 1) {
        std::unique_ptr<sim::MultiSmSimulator> multi;
        {
            Tracer::Scope span(tracer, "sim.assemble");
            multi = std::make_unique<sim::MultiSmSimulator>(
                kernels, job.config, job.sms, /*threads=*/1);
        }
        {
            Tracer::Scope span(tracer, "sim.run");
            stats = multi->run();
        }
        for (const sim::RunStats &sm : multi->perSm())
            sm_cycles += static_cast<double>(sm.cycles);
        return stats;
    }
    std::unique_ptr<sim::GpuSimulator> gpu;
    if (kernels.size() == 1) {
        compiler::CompiledKernel ck = [&] {
            Tracer::Scope span(tracer, "compiler.compile");
            return compiler::compile(kernels.front(), job.config.compiler);
        }();
        Tracer::Scope span(tracer, "sim.assemble");
        gpu = std::make_unique<sim::GpuSimulator>(std::move(ck),
                                                  job.config);
    } else {
        Tracer::Scope span(tracer, "sim.assemble");
        gpu = std::make_unique<sim::GpuSimulator>(kernels, job.config);
    }
    {
        Tracer::Scope span(tracer, "sim.run");
        stats = gpu->run();
    }
    sm_cycles += static_cast<double>(stats.cycles);
    return stats;
}

/** What one side (untraced or traced) of the replay saw. */
struct Replay
{
    double wall = 0;
    std::vector<sim::RunStats> runs;
    double smCycles = 0;
    double recordBytes = 0;
};

/** Both sides of one replay over the engine's unique jobs. */
struct Replays
{
    Replay plain;
    Replay traced;

    /** Traced replay time over untraced, minus one. */
    double overhead() const { return ratio(traced.wall, plain.wall) - 1.0; }
};

/**
 * Replay every unique job of @a engine on both sides, back to back and
 * alternating which side goes first, so both see the same machine
 * state and their difference is the spans' overhead. @a replay_job is
 * called as replay_job(job, expected, tracer, traced, side).
 */
template <typename ReplayJob>
Replays
interleave(sim::ExperimentEngine &engine, Tracer &tracer,
           ReplayJob &&replay_job)
{
    Replays out;
    Tracer untraced(false);
    for (JobId id = 0; id < engine.pointsUnique(); ++id) {
        tracer.beginJob(id);
        for (int turn = 0; turn < 2; ++turn) {
            const bool traced = (turn == 0) == (id % 2 == 1);
            Replay &side = traced ? out.traced : out.plain;
            const double t0 = now();
            replay_job(engine.job(id), engine.result(id),
                       traced ? tracer : untraced, traced, side);
            side.wall += now() - t0;
        }
    }
    return out;
}

/** A result the replay produced that the engine did not. */
void
replayMismatch(const sim::SimJob &job, const std::string &why,
               Result &result)
{
    ++result.failed;
    result.problems.push_back("replay of '" + job.kernel + "' (" +
                              sim::providerName(job.config.provider) +
                              ", " + std::to_string(job.sms) +
                              " sms): " + why);
}

/**
 * The cold side of one job: make -> compile -> assemble -> run ->
 * writeJson -> JobCache::store into @a cache.
 */
void
replayColdJob(const sim::SimJob &job, const sim::JobResult &expected,
              sim::JobCache &cache, Tracer &tracer, Replay &replay,
              Result &result)
{
    Tracer::Scope job_span(tracer, "job");
    const sim::JobCache::Key key = cacheKey(job, tracer);
    sim::JobRecord record;
    record.schema = sim::kJobCacheSchemaVersion;
    try {
        record.stats = simulate(job, tracer, replay.smCycles);
    } catch (const std::exception &e) {
        replayMismatch(job, e.what(), result);
        return;
    }
    {
        Tracer::Scope span(tracer, "stats_io.write");
        std::ostringstream out;
        sim::writeJson(out, record);
        replay.recordBytes += static_cast<double>(out.str().size());
    }
    {
        Tracer::Scope span(tracer, "job_cache.store");
        cache.store(key, record);
    }
    if (expected.status != sim::JobStatus::Ok ||
        !(record.stats == expected.stats))
        replayMismatch(job, "RunStats differ from the engine's", result);
    replay.runs.push_back(std::move(record.stats));
}

/**
 * The warm side of one job: the lint gate when @a lint_gate (the first
 * job of its kernel and compiler config), the fingerprint, the cache
 * load, and a parse of the entry's bytes.
 */
void
replayWarmJob(const sim::SimJob &job, const sim::JobResult &expected,
              sim::JobCache &cache, bool lint_gate, Tracer &tracer,
              Replay &replay, Result &result)
{
    Tracer::Scope job_span(tracer, "job");
    if (lint_gate) {
        Tracer::Scope gate(tracer, "engine.lint_gate");
        const std::vector<ir::Kernel> kernels = [&] {
            Tracer::Scope span(tracer, "workloads.make");
            return jobKernels(job);
        }();
        for (const ir::Kernel &kernel : kernels) {
            const compiler::CompiledKernel ck = [&] {
                Tracer::Scope span(tracer, "compiler.compile");
                return compiler::compile(kernel, job.config.compiler);
            }();
            compiler::LintOptions lint;
            lint.checkLoadUse = job.config.compiler.splitLoadUse;
            Tracer::Scope span(tracer, "compiler.lint");
            if (compiler::hasErrors(compiler::lintCompiledKernel(ck, lint)))
                replayMismatch(job, "lint found errors", result);
        }
    }
    const sim::JobCache::Key key = cacheKey(job, tracer);
    sim::JobRecord loaded, parsed;
    bool hit = false;
    {
        Tracer::Scope span(tracer, "job_cache.load");
        hit = cache.load(key, loaded);
    }
    std::ifstream in(cache.entryPath(key), std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    replay.recordBytes += static_cast<double>(bytes.size());
    bool parsed_ok = false;
    {
        Tracer::Scope span(tracer, "stats_io.parse");
        parsed_ok = sim::tryRecordFromJson(bytes, parsed);
    }
    if (!hit || !parsed_ok || expected.status != sim::JobStatus::Ok ||
        !(loaded.stats == expected.stats) ||
        !(parsed.stats == expected.stats))
        replayMismatch(job, "cached record differs from the engine's",
                       result);
    replay.runs.push_back(std::move(loaded.stats));
}

sim::JobCache
openCache(const fs::path &dir)
{
    sim::JobCache::Options options;
    options.dir = dir.string();
    return sim::JobCache(options);
}

/** Engine and cache counts of one pass. */
void
engineCounts(const sim::ExperimentEngine &engine,
             std::map<std::string, double> &m)
{
    m["engine.points_unique"] = static_cast<double>(engine.pointsUnique());
    m["engine.simulated"] = static_cast<double>(engine.simulated());
    m["engine.cache_hits"] = static_cast<double>(engine.cacheHits());
    const sim::CacheCounters &c = engine.cache().counters();
    m["job_cache.hits"] = static_cast<double>(c.hits);
    m["job_cache.stores"] = static_cast<double>(c.stores);
    m["job_cache.lock_waits"] = static_cast<double>(c.lockWaits);
}

double
ms(const Tracer &tracer, const char *name)
{
    return total(tracer.durations(name)) * 1e3;
}

/**
 * Fill @a dir with one cold pass in a child process, so the parent's
 * peak memory is that of the warm passes alone. Returns the child's
 * wall time; a failed fill counts against @a result.
 */
double
forkedFill(const Options &options, const fs::path &dir, Result &result)
{
    std::cout.flush();
    const double t0 = now();
    const pid_t child = fork();
    if (child < 0)
        throw std::runtime_error("fork failed");
    if (child == 0) {
        int code = 1;
        try {
            Result fill;
            checkPass(options, reportPass(options, options.threads, dir,
                                          false),
                      fill);
            for (const std::string &problem : fill.problems)
                std::cerr << "perfbench: fill: " << problem << "\n";
            code = fill.failed ? 1 : 0;
        } catch (const std::exception &e) {
            std::cerr << "perfbench: fill: " << e.what() << "\n";
        }
        _exit(code);
    }
    int status = 0;
    while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
    }
    const double seconds = now() - t0;
    ++result.attempted;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ++result.failed;
        result.problems.push_back("cache fill failed its output checks");
    }
    return seconds;
}

} // namespace

Result
runReportCold(const Options &options)
{
    Result result;
    std::vector<double> setups;
    unsigned passes = 0;
    auto pass = [&](unsigned threads, Samples &into) {
        const fs::path dir =
            freshDir(options, "cold-" + std::to_string(passes++));
        // Set-up is engine construction, well under a microsecond once
        // warm: time a block of constructions before each pass, so the
        // samples spread over the run like the passes do.
        constexpr int kBlock = 1000;
        const double t0 = now();
        for (int i = 0; i < kBlock; ++i)
            const sim::ExperimentEngine engine(
                engineOptions(threads, dir, false));
        setups.push_back((now() - t0) / kBlock);
        const ReportPass p = reportPass(options, threads, dir, false);
        checkPass(options, p, result);
        into.wall.push_back(p.wall);
        into.cpu.push_back(p.cpu);
        fs::remove_all(dir);
    };
    Samples warmup, parallel, serial;
    pass(options.threads, warmup);

    if (!options.trace) {
        // One serial pass (~2.7x a parallel one) per three parallel.
        timedPhase(options, 3, parallel, serial, pass);
        addEndToEnd(setups, parallel, serial, result);
        return result;
    }

    // Traced run: one untraced engine pass for the engine-level
    // numbers and the job list, then the serial replay, each job
    // untraced and traced.
    const fs::path dir = freshDir(options, "cold-engine");
    ReportPass engine_pass =
        reportPass(options, options.threads, dir, false);
    checkPass(options, engine_pass, result);
    sim::ExperimentEngine &engine = *engine_pass.engine;
    Tracer tracer(true);
    sim::JobCache plain_cache = openCache(freshDir(options, "cold-plain"));
    sim::JobCache traced_cache = openCache(freshDir(options, "cold-traced"));
    const Replays replays = interleave(
        engine, tracer,
        [&](const sim::SimJob &job, const sim::JobResult &expected,
            Tracer &t, bool traced, Replay &side) {
            replayColdJob(job, expected,
                          traced ? traced_cache : plain_cache, t, side,
                          result);
        });
    const Replay &traced = replays.traced;

    std::map<std::string, double> &m = result.metrics;
    engineCounts(engine, m);
    addResultCounts(traced.runs, traced.smCycles,
                    ms(tracer, "sim.run") / 1e3, true, m);
    m["engine.parallel_util"] =
        ratio(engine_pass.cpu, engine_pass.wall * options.threads);
    m["sim.run_ms"] = ms(tracer, "sim.run");
    addJobTimes(tracer.durations("job"), m);
    m["compiler.compile_ms"] = ms(tracer, "compiler.compile");
    m["workloads.make_ms"] = ms(tracer, "workloads.make");
    m["sim.assemble_ms"] = ms(tracer, "sim.assemble");
    m["gpu_config.fingerprint_us"] =
        median(tracer.durations("gpu_config.fingerprint")) * 1e6;
    const std::vector<double> stores = tracer.durations("job_cache.store");
    m["job_cache.store_us_p50"] = median(stores) * 1e6;
    m["job_cache.store_us_tail"] = tail(stores) * 1e6;
    m["stats_io.write_us_p50"] =
        median(tracer.durations("stats_io.write")) * 1e6;
    m["stats_io.record_bytes"] =
        ratio(traced.recordBytes, static_cast<double>(traced.runs.size()));
    m["trace.overhead_frac"] = replays.overhead();
    for (const char *name : {"cold-engine", "cold-plain", "cold-traced"})
        fs::remove_all(options.workDir / name);
    tracer.write(options.spansPath);
    return result;
}

Result
runReportWarm(const Options &options)
{
    Result result;
    const fs::path dir = options.workDir / "warm-cache";
    std::vector<double> setups;

    if (!options.trace) {
        // Set-up is filling the cache; fill it three times from empty
        // and report the median.
        for (int fill = 0; fill < 3; ++fill) {
            fs::remove_all(dir);
            setups.push_back(forkedFill(options, dir, result));
        }
        Samples warmup, parallel, serial;
        auto pass = [&](unsigned threads, Samples &into) {
            const ReportPass p = reportPass(options, threads, dir, true);
            checkPass(options, p, result);
            if (p.engine->simulated()) {
                ++result.failed;
                result.problems.push_back(
                    "warm pass simulated " +
                    std::to_string(p.engine->simulated()) +
                    " jobs the cache should have served");
            }
            into.wall.push_back(p.wall);
            into.cpu.push_back(p.cpu);
        };
        pass(options.threads, warmup);
        timedPhase(options, 1, parallel, serial, pass);
        addEndToEnd(setups, parallel, serial, result);
        fs::remove_all(dir);
        return result;
    }

    // Traced run: fill in-process, time untraced warm passes, then
    // replay the warm side, each job untraced and traced.
    fs::remove_all(dir);
    checkPass(options, reportPass(options, options.threads, dir, false),
              result);
    Samples parallel;
    ReportPass last;
    for (int rep = 0; rep < 6; ++rep) {
        last = reportPass(options, options.threads, dir, true);
        checkPass(options, last, result);
        if (rep) {
            parallel.wall.push_back(last.wall);
            parallel.cpu.push_back(last.cpu);
        }
    }
    sim::ExperimentEngine &engine = *last.engine;
    Tracer tracer(true);
    sim::JobCache cache = openCache(dir);
    std::set<std::string> linted[2];
    const Replays replays = interleave(
        engine, tracer,
        [&](const sim::SimJob &job, const sim::JobResult &expected,
            Tracer &t, bool traced, Replay &side) {
            const bool gate =
                linted[traced]
                    .insert(job.kernel + "|" +
                            sim::compilerConfigText(job.config.compiler))
                    .second;
            replayWarmJob(job, expected, cache, gate, t, side, result);
        });
    const Replay &traced = replays.traced;

    std::map<std::string, double> &m = result.metrics;
    engineCounts(engine, m);
    addResultCounts(traced.runs, 0, 0, false, m);
    const double pass_ms = median(parallel.wall) * 1e3;
    m["engine.parallel_util"] =
        ratio(median(parallel.cpu), median(parallel.wall) * options.threads);
    m["compiler.lint_ms"] = ms(tracer, "compiler.lint");
    m["compiler.compile_ms"] = ms(tracer, "compiler.compile");
    m["workloads.make_ms"] = ms(tracer, "workloads.make");
    const std::vector<double> fingerprints =
        tracer.durations("gpu_config.fingerprint");
    m["gpu_config.fingerprint_us"] = median(fingerprints) * 1e6;
    const std::vector<double> loads = tracer.durations("job_cache.load");
    m["job_cache.load_us_p50"] = median(loads) * 1e6;
    m["job_cache.load_us_tail"] = tail(loads) * 1e6;
    m["stats_io.parse_us_p50"] =
        median(tracer.durations("stats_io.parse")) * 1e6;
    m["stats_io.record_bytes"] =
        ratio(traced.recordBytes, static_cast<double>(traced.runs.size()));
    // What the pass spends outside the replayed layers: the figure
    // math and everything else. The engine fingerprints every
    // requested point at least once; repeats beyond that stay in the
    // residual. JobCache::load parses internally, so the separate
    // parse is not subtracted again.
    m["figures.self_ms"] =
        pass_ms - ms(tracer, "engine.lint_gate") -
        median(fingerprints) * 1e3 *
            static_cast<double>(engine.pointsRequested()) -
        total(loads) * 1e3;
    m["trace.overhead_frac"] = replays.overhead();
    fs::remove_all(dir);
    tracer.write(options.spansPath);
    return result;
}

} // namespace perfbench
