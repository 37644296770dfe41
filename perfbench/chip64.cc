/**
 * @file
 * The chip64 workload: one full-chip MultiSmSimulator run of srad_v1
 * under the RegLess provider on 64 SMs with cycle skipping on, timed
 * on min(4, nproc) threads and on one thread. Nearly all host time is
 * the SM cycle loop, and it is the only workload whose epochs run on
 * several threads.
 */

#include <memory>

#include "bench.hh"
#include "compiler/compiler.hh"
#include "sim/multi_sm.hh"
#include "sim/stats_io.hh"
#include "trace.hh"
#include "workloads/rodinia.hh"

namespace perfbench
{

namespace
{

using namespace regless;

constexpr const char *kKernel = "srad_v1";
constexpr unsigned kSms = 64;

struct ChipPass
{
    sim::RunStats stats;
    std::string json;
    /** Kernel build + simulator construction. */
    double setup = 0;
    /** run() alone. */
    double wall = 0;
    /** The whole pass: set-up, run and serialization. */
    double total = 0;
    double cpu = 0;
    double smCycles = 0;
};

/** Build and run the chip once, with a span around each public call. */
ChipPass
chipPass(unsigned threads, bool cycle_skip, Tracer &tracer)
{
    sim::GpuConfig config =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    config.sm.cycleSkip = cycle_skip;

    rotateCpu();
    ChipPass pass;
    Tracer::Scope job(tracer, "job");
    const double t0 = now();
    const ir::Kernel kernel = [&] {
        Tracer::Scope span(tracer, "workloads.make");
        return workloads::makeRodinia(kKernel);
    }();
    if (tracer.enabled()) {
        // The constructor compiles the kernel once per SM, out of the
        // trace's sight; time the same compiles on their own.
        Tracer::Scope span(tracer, "compiler.compile");
        for (unsigned sm = 0; sm < kSms; ++sm)
            (void)compiler::compile(kernel, config.compiler);
    }
    std::unique_ptr<sim::MultiSmSimulator> multi;
    {
        Tracer::Scope span(tracer, "sim.assemble");
        multi = std::make_unique<sim::MultiSmSimulator>(kernel, config,
                                                        kSms, threads);
    }
    const double t1 = now();
    const double c1 = cpuNow();
    {
        Tracer::Scope span(tracer, "sim.run");
        pass.stats = multi->run();
    }
    pass.wall = now() - t1;
    pass.cpu = cpuNow() - c1;
    pass.setup = t1 - t0;
    for (const sim::RunStats &sm : multi->perSm())
        pass.smCycles += static_cast<double>(sm.cycles);
    {
        Tracer::Scope span(tracer, "stats_io.write");
        pass.json = sim::toJson(pass.stats);
    }
    pass.total = now() - t0;
    return pass;
}

/** Skip-off must match skip-on apart from the skip meta-counters. */
bool
sameOutsideSkip(sim::RunStats a, sim::RunStats b)
{
    a.skippedCycles = b.skippedCycles = 0;
    a.skipEvents = b.skipEvents = 0;
    return a == b;
}

} // namespace

Result
runChip64(const Options &options)
{
    Result result;
    Tracer untraced(false);
    Samples parallel, serial, warmup;
    std::vector<double> setups;
    sim::RunStats reference;
    auto pass = [&](unsigned threads, Samples &into) {
        ChipPass p = chipPass(threads, true, untraced);
        ++result.attempted;
        result.checkDigest(options, "chip64",
                           digestText(resultLine(p.json, kSms)));
        setups.push_back(p.setup);
        into.wall.push_back(p.wall);
        into.cpu.push_back(p.cpu);
        reference = std::move(p.stats);
        return p.total;
    };
    // Warm-up, untimed: the first chip run after idle is much slower
    // than later ones (see README.md).
    pass(options.threads, warmup);
    pass(1, warmup);

    std::map<std::string, double> &m = result.metrics;
    if (!options.trace) {
        timedPhase(options, 1, parallel, serial, pass);
        addEndToEnd(setups, parallel, serial, result);
        return result;
    }

    // Traced run: untraced reference passes (skip on at both thread
    // counts, skip off at min(4, nproc)), then one traced serial pass
    // between two untraced ones.
    Samples noskip;
    for (int rep = 0; rep < 3; ++rep) {
        pass(options.threads, parallel);
        pass(1, serial);
        const ChipPass off = chipPass(options.threads, false, untraced);
        ++result.attempted;
        if (!sameOutsideSkip(off.stats, reference)) {
            ++result.failed;
            result.problems.push_back(
                "chip64 skip-off run differs from the skip-on run");
        }
        noskip.wall.push_back(off.wall);
    }
    const double before = pass(1, serial);
    Tracer tracer(true);
    ChipPass traced = chipPass(1, true, tracer);
    const double after = pass(1, serial);
    ++result.attempted;
    result.checkDigest(options, "chip64",
                       digestText(resultLine(traced.json, kSms)));

    const double run_s = total(tracer.durations("sim.run"));
    addResultCounts({traced.stats}, traced.smCycles, run_s, true, m);
    m["multi_sm.thread_speedup"] =
        ratio(median(serial.wall), median(parallel.wall));
    m["multi_sm.skip_speedup"] =
        ratio(median(noskip.wall), median(parallel.wall));
    m["engine.parallel_util"] =
        ratio(median(parallel.cpu), median(parallel.wall) * options.threads);
    m["sim.run_ms"] = run_s * 1e3;
    addJobTimes(tracer.durations("job"), m);
    m["compiler.compile_ms"] =
        total(tracer.durations("compiler.compile")) * 1e3;
    m["sim.assemble_ms"] = total(tracer.durations("sim.assemble")) * 1e3;
    m["workloads.make_ms"] =
        total(tracer.durations("workloads.make")) * 1e3;
    m["stats_io.write_us_p50"] =
        median(tracer.durations("stats_io.write")) * 1e6;
    m["stats_io.record_bytes"] = static_cast<double>(traced.json.size());
    // The whole traced pass against its untraced neighbours, so the
    // extra standalone compiles count as overhead.
    m["trace.overhead_frac"] =
        ratio(traced.total, (before + after) / 2) - 1.0;
    tracer.write(options.spansPath);
    return result;
}

} // namespace perfbench
