/**
 * @file
 * regless_trace — run one kernel with per-warp stall tracing enabled
 * and write a Chrome-trace-format JSON timeline (open it at
 * ui.perfetto.dev or chrome://tracing; see EXPERIMENTS.md).
 *
 * The timeline has one track per warp (tid) under one process per SM
 * (pid): "issue"/"ready" spans and one span per stall cause, plus
 * "cm_activate rN" instants when the capacity manager activates a
 * region. After the run the tool re-reads the file it wrote and
 * validates it (well-formed JSON, required fields, monotonic
 * timestamps), so a broken trace fails loudly here instead of in the
 * viewer.
 *
 * Exit status: 0 trace written and valid, 1 run or validation failed,
 * 2 bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/sim_error.hh"
#include "sim/gpu_config.hh"
#include "sim/gpu_simulator.hh"
#include "sim/multi_sm.hh"
#include "sim/run_stats.hh"
#include "sim/trace_writer.hh"
#include "workloads/rodinia.hh"

namespace
{

using namespace regless;

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: regless_trace [options]\n"
        "\n"
        "Runs one built-in workload with stall tracing enabled and\n"
        "writes a Chrome-trace JSON file per SM (PATH.sm<i>).\n"
        "\n"
        "  --kernel NAME     workload to trace (default nn)\n"
        "  --provider NAME   baseline|regless|rfh|rfv|... (default\n"
        "                    regless)\n"
        "  --out PATH        trace path stem (default\n"
        "                    regless_trace.json)\n"
        "  --sms N           number of SMs (default 1)\n"
        "  --max-cycles N    override the watchdog cycle budget\n"
        "  --list            print available workload names and exit\n"
        "  --help            this text\n");
}

/** Validate one written trace file; returns false and prints on error. */
bool
validateFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "regless_trace: cannot re-read %s\n",
                     path.c_str());
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!sim::validateChromeTrace(text.str(), &error)) {
        std::fprintf(stderr, "regless_trace: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    std::printf("%s: valid (%zu bytes)\n", path.c_str(),
                text.str().size());
    return true;
}

int
run(int argc, char **argv)
{
    std::string kernel = "nn";
    std::string provider = "regless";
    std::string out = "regless_trace.json";
    unsigned sms = 1;
    Cycle max_cycles = 0;

    // Library code throws SimError; this main is the process-exit
    // boundary. Usage errors, a malformed number among them, exit 2.
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc) {
                    std::fprintf(stderr,
                                 "regless_trace: %s needs a value\n",
                                 arg.c_str());
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--kernel") {
                kernel = value();
            } else if (arg == "--provider") {
                provider = value();
            } else if (arg == "--out") {
                out = value();
            } else if (arg == "--sms") {
                sms = flagNumber<unsigned>(arg, value());
            } else if (arg == "--max-cycles") {
                max_cycles = flagNumber<Cycle>(arg, value());
            } else if (arg == "--list") {
                for (const std::string &name : workloads::rodiniaNames())
                    std::printf("%s\n", name.c_str());
                return 0;
            } else if (arg == "--help" || arg == "-h") {
                usage(stdout);
                return 0;
            } else {
                std::fprintf(stderr, "regless_trace: unknown option %s\n",
                             arg.c_str());
                usage(stderr);
                return 2;
            }
        }
        if (sms == 0) {
            std::fprintf(stderr, "regless_trace: --sms must be >= 1\n");
            return 2;
        }

        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::providerFromName(provider));
        cfg.trace.enabled = true;
        cfg.trace.path = out;
        if (max_cycles)
            cfg.sm.maxCycles = max_cycles;

        ir::Kernel k = workloads::makeRodinia(kernel);
        sim::RunStats stats;
        // A deadlocked run has already written its trace files; report
        // the diagnosis but still validate what was written.
        bool ran = true;
        try {
            if (sms == 1) {
                sim::GpuSimulator gpu(k, cfg);
                stats = gpu.run();
            } else {
                sim::MultiSmSimulator gpu(k, cfg, sms);
                stats = gpu.run();
            }
        } catch (const sim::DeadlockError &e) {
            std::fprintf(stderr, "%s\n", e.report().render().c_str());
            ran = false;
        }

        if (ran) {
            std::uint64_t stalled = 0;
            for (std::uint64_t s : stats.stallSlots)
                stalled += s;
            std::printf("%s/%s: %llu cycles, %llu slots issued, "
                        "%llu stalled\n",
                        kernel.c_str(), provider.c_str(),
                        static_cast<unsigned long long>(stats.cycles),
                        static_cast<unsigned long long>(
                            stats.issuedSlots),
                        static_cast<unsigned long long>(stalled));
        }
        bool valid = true;
        for (unsigned i = 0; i < sms; ++i)
            valid = validateFile(out + ".sm" + std::to_string(i)) &&
                    valid;
        return ran && valid ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "regless_trace: %s\n", e.what());
        return 2;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return finishStdout(run(argc, argv));
}
