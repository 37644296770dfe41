/**
 * @file
 * perfbench: the repository benchmark driver. Runs one named workload
 * at one seed through the simulator's public entry points, checks the
 * simulated outputs against reference digests, and prints every
 * metric by name and unit. run.py builds this binary and calls it;
 * see README.md for the workloads and metrics.
 *
 *   perfbench --workload chip64|report_cold|report_warm --seed N
 *             --seconds S --trace 0|1 --work-dir DIR
 *             [--reference KEY=DIGEST]... [--spans FILE] [--commit ID]
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * with the end-to-end metrics when --trace is 0 and the per-layer
 * metrics when it is 1. The exit status is 0 when every output check
 * passed, 1 when one failed, and 2 on a usage or set-up error (no
 * result line then).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include <sched.h>

#include "bench.hh"

using namespace perfbench;

namespace
{

struct Metric
{
    const char *name;
    const char *unit;
    bool endToEnd;
};

/** Every metric the driver prints; BENCHMARK.json lists the same. */
constexpr Metric kMetrics[] = {
    {"setup_s", "s", true},
    {"pass_s", "s", true},
    {"pass_cpu_s", "s", true},
    {"serial_pass_s", "s", true},
    {"peak_rss_mb", "MB", true},

    {"arch.ns_per_stepped_cycle", "ns", false},
    {"arch.skipped_frac", "ratio", false},
    {"arch.skip_events", "count", false},
    {"arch.sm_cycles", "count", false},
    {"arch.issued_slot_frac", "ratio", false},
    {"arch.sm_mcycles_per_s", "Mcycles/s", false},
    {"multi_sm.thread_speedup", "x", false},
    {"multi_sm.skip_speedup", "x", false},
    {"sim.run_ms", "ms", false},
    {"sim.job_ms_p50", "ms", false},
    {"sim.job_ms_tail", "ms", false},
    {"sim.job_ms_max", "ms", false},
    {"engine.parallel_util", "ratio", false},
    {"compiler.compile_ms", "ms", false},
    {"workloads.make_ms", "ms", false},
    {"sim.assemble_ms", "ms", false},
    {"compiler.lint_ms", "ms", false},
    {"gpu_config.fingerprint_us", "us", false},
    {"job_cache.load_us_p50", "us", false},
    {"job_cache.load_us_tail", "us", false},
    {"stats_io.parse_us_p50", "us", false},
    {"figures.self_ms", "ms", false},
    {"job_cache.store_us_p50", "us", false},
    {"job_cache.store_us_tail", "us", false},
    {"stats_io.write_us_p50", "us", false},
    {"stats_io.record_bytes", "B", false},
    {"engine.points_unique", "count", false},
    {"engine.simulated", "count", false},
    {"engine.cache_hits", "count", false},
    {"job_cache.hits", "count", false},
    {"job_cache.stores", "count", false},
    {"job_cache.lock_waits", "count", false},
    {"mem.l1_accesses", "count", false},
    {"mem.dram_accesses", "count", false},
    {"regless.osu_accesses", "count", false},
    {"regless.preload_osu_frac", "ratio", false},
    {"regless.compressor_match_frac", "ratio", false},
    {"trace.overhead_frac", "ratio", false},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload chip64|report_cold|"
                 "report_warm --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--reference KEY=DIGEST]... "
                 "[--spans FILE] [--commit ID]\n";
    std::exit(2);
}

/** CPUs this process may run on. */
unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
number(double value)
{
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string commit = "unknown";
    std::string command;
    bool have_workload = false, have_dir = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        command += (command.empty() ? "" : " ") + arg + " " + value;
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), nullptr);
        } else if (arg == "--trace") {
            options.trace = value == "1";
        } else if (arg == "--work-dir") {
            options.workDir = value;
            have_dir = true;
        } else if (arg == "--reference") {
            const std::size_t eq = value.find('=');
            if (eq == std::string::npos)
                usage("--reference wants KEY=DIGEST");
            options.reference[value.substr(0, eq)] = value.substr(eq + 1);
        } else if (arg == "--spans") {
            options.spansPath = value;
        } else if (arg == "--commit") {
            commit = value;
        } else {
            usage("unknown flag " + arg);
        }
    }
    if (!have_workload || !have_dir)
        usage("--workload and --work-dir are required");
    if (!(options.seconds > 0))
        usage("--seconds must be positive");
    const unsigned nproc = availableCpus();
    options.threads = std::min(4u, nproc);

    Result result;
    try {
        std::filesystem::create_directories(options.workDir);
        if (options.workload == "chip64")
            result = runChip64(options);
        else if (options.workload == "report_cold")
            result = runReportCold(options);
        else if (options.workload == "report_warm")
            result = runReportWarm(options);
        else
            usage("unknown workload '" + options.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: fatal: " << e.what() << "\n";
        return 2;
    }

    // A workload names only the metrics its layers exercise; every
    // other metric of the printed tier reads 0 (no work in that layer).
    for (const auto &[name, value] : result.metrics) {
        const bool known =
            std::any_of(std::begin(kMetrics), std::end(kMetrics),
                        [&](const Metric &m) { return name == m.name; });
        if (!known) {
            std::cerr << "perfbench: internal error: unknown metric "
                      << name << "\n";
            return 2;
        }
    }

    std::ostringstream context;
    context << "# context {\"commit\": " << jsonString(commit)
            << ", \"command\": " << jsonString("perfbench " + command)
            << ", \"workload\": " << jsonString(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << jsonString("g++ " __VERSION__)
            << ", \"nproc\": " << nproc
            << ", \"threads\": " << options.threads << "}\n";
    context << "# digests {";
    const char *sep = "";
    for (const auto &[key, digest] : result.digests) {
        context << sep << jsonString(key) << ": " << jsonString(digest);
        sep = ", ";
    }
    context << "}\n# samples {";
    sep = "";
    for (const auto &[name, values] : result.samples) {
        context << sep << jsonString(name) << ": [";
        for (std::size_t i = 0; i < values.size(); ++i)
            context << (i ? ", " : "") << number(values[i]);
        context << "]";
        sep = ", ";
    }
    context << "}\n";
    for (const std::string &problem : result.problems)
        std::cerr << "perfbench: check failed: " << problem << "\n";

    std::ostringstream json;
    json << "{\"correct\": " << (result.failed ? "false" : "true")
         << ", \"attempted\": " << std::max<std::uint64_t>(1, result.attempted)
         << ", \"failed\": " << result.failed << ", \"metrics\": {";
    sep = "";
    for (const Metric &metric : kMetrics) {
        if (metric.endToEnd == options.trace)
            continue;
        auto found = result.metrics.find(metric.name);
        const double value =
            found == result.metrics.end() ? 0.0 : found->second;
        json << sep << "\"" << metric.name << "\": {\"value\": "
             << number(value) << ", \"unit\": \"" << metric.unit
             << "\"}";
        sep = ", ";
    }
    json << "}}";
    std::cout << context.str() << json.str() << std::endl;
    return result.failed ? 1 : 0;
}
