/**
 * @file
 * regless_lint — standalone staging-annotation linter.
 *
 * Compiles each requested kernel and runs the full lint (structural
 * verifier + path-sensitive staging-state checker, see
 * compiler/staging_checker.hh). With --runtime it additionally
 * executes the kernel under RegLess with the dynamic shadow checker
 * enabled and reports any runtime staging violations.
 *
 * Exit status: 0 all kernels clean, 1 findings reported, 2 bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/sim_error.hh"
#include "compiler/compiler.hh"
#include "compiler/staging_checker.hh"
#include "sim/gpu_config.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/random_kernel.hh"
#include "workloads/rodinia.hh"

namespace
{

using namespace regless;

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: regless_lint [options]\n"
        "\n"
        "Lints the staging annotations of compiled kernels. With no\n"
        "kernel selection, lints all %zu built-in Rodinia workloads.\n"
        "\n"
        "  --kernel NAME   lint this built-in workload (repeatable)\n"
        "  --fuzz N        also lint N random fuzzer kernels\n"
        "  --seed S        first fuzzer seed (default 1)\n"
        "  --runtime       also run each kernel under RegLess with the\n"
        "                  dynamic shadow checker and report violations\n"
        "  --osu N         OSU entries per SM for --runtime runs\n"
        "                  (default 512; small values stress reclaims)\n"
        "  --advisory      also report advisory value-range warnings\n"
        "                  (bank-overclaim, dead-staged-line)\n"
        "  --json          machine-readable output (lint schema 2:\n"
        "                  object with kernels + per-code summary)\n"
        "  --list          print available workload names and exit\n"
        "  --help          this text\n",
        workloads::rodiniaNames().size());
}

/**
 * Version of the --json output layout. 1 was a bare array of kernel
 * objects; 2 wraps it in {"lint_schema", "kernels", "summary"} with a
 * per-code finding-count summary.
 */
constexpr unsigned kLintSchemaVersion = 2;

struct Options
{
    std::vector<std::string> kernels;
    unsigned fuzz = 0;
    std::uint64_t seed = 1;
    bool runtime = false;
    unsigned osuEntries = 0; ///< 0 = config default
    bool advisory = false;
    bool json = false;
};

struct KernelReport
{
    std::string name;
    std::vector<compiler::Finding> findings;
};

/** Run the static lint (and optionally the dynamic cross-check). */
KernelReport
lintOne(const ir::Kernel &kernel, const Options &opt)
{
    KernelReport report;
    report.name = kernel.name();
    compiler::CompiledKernel ck = compiler::compile(kernel);
    compiler::LintOptions lint_options;
    lint_options.advisory = opt.advisory;
    report.findings = compiler::lintCompiledKernel(ck, lint_options);
    if (opt.runtime) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        cfg.regless.runtimeCheck = true;
        if (opt.osuEntries)
            cfg.setOsuCapacity(opt.osuEntries);
        sim::GpuSimulator gpu(kernel, cfg);
        // A watchdog trip or simulator error on one kernel is a
        // finding on that kernel, not the end of the lint run.
        try {
            gpu.run();
            for (compiler::Finding &f : gpu.runtimeViolations())
                report.findings.push_back(std::move(f));
        } catch (const sim::DeadlockError &e) {
            compiler::Finding f;
            f.code = "runtime-deadlock";
            f.message = e.report().render();
            report.findings.push_back(std::move(f));
        } catch (const sim::SimError &e) {
            compiler::Finding f;
            f.code = "runtime-aborted";
            f.message = e.what();
            report.findings.push_back(std::move(f));
        }
    }
    return report;
}

void
printText(const std::vector<KernelReport> &reports)
{
    unsigned total = 0;
    for (const KernelReport &r : reports) {
        if (r.findings.empty()) {
            std::printf("%-18s clean\n", r.name.c_str());
            continue;
        }
        std::printf("%-18s %zu finding%s\n", r.name.c_str(),
                    r.findings.size(),
                    r.findings.size() == 1 ? "" : "s");
        for (const compiler::Finding &f : r.findings)
            std::printf("  %s\n", f.toString().c_str());
        total += r.findings.size();
    }
    std::printf("%zu kernel%s linted, %u finding%s\n", reports.size(),
                reports.size() == 1 ? "" : "s", total,
                total == 1 ? "" : "s");
}

void
printJson(const std::vector<KernelReport> &reports)
{
    std::printf("{\n  \"lint_schema\": %u,\n  \"kernels\": [\n",
                kLintSchemaVersion);
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const KernelReport &r = reports[i];
        std::printf("    {\"kernel\": \"%s\", \"findings\": [",
                    r.name.c_str());
        for (std::size_t j = 0; j < r.findings.size(); ++j)
            std::printf("%s\n      %s", j ? "," : "",
                        r.findings[j].toJson().c_str());
        std::printf("%s]}%s\n", r.findings.empty() ? "" : "\n    ",
                    i + 1 < reports.size() ? "," : "");
    }
    // Per-code counts across all kernels, so CI can gate on specific
    // finding classes without re-parsing every finding object.
    std::map<std::string, unsigned> by_code;
    for (const KernelReport &r : reports) {
        for (const compiler::Finding &f : r.findings)
            ++by_code[f.code];
    }
    std::printf("  ],\n  \"summary\": {");
    std::size_t k = 0;
    for (const auto &[code, count] : by_code) {
        std::printf("%s\n    \"%s\": %u", k ? "," : "", code.c_str(),
                    count);
        ++k;
    }
    std::printf("%s}\n}\n", by_code.empty() ? "" : "\n  ");
}

int
run(int argc, char **argv)
{
    Options opt;

    // Library code throws SimError (e.g. an unknown --kernel name);
    // this main is the process-exit boundary. Usage-class errors,
    // a malformed number among them, exit 2.
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "regless_lint: %s needs a value\n",
                                 arg.c_str());
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--kernel") {
                opt.kernels.push_back(value());
            } else if (arg == "--fuzz") {
                opt.fuzz = flagNumber<unsigned>(arg, value());
            } else if (arg == "--seed") {
                opt.seed = flagNumber<std::uint64_t>(arg, value());
            } else if (arg == "--runtime") {
                opt.runtime = true;
            } else if (arg == "--osu") {
                opt.osuEntries = flagNumber<unsigned>(arg, value());
            } else if (arg == "--advisory") {
                opt.advisory = true;
            } else if (arg == "--json") {
                opt.json = true;
            } else if (arg == "--list") {
                for (const std::string &name : workloads::rodiniaNames())
                    std::printf("%s\n", name.c_str());
                return 0;
            } else if (arg == "--help" || arg == "-h") {
                usage(stdout);
                return 0;
            } else {
                std::fprintf(stderr, "regless_lint: unknown option %s\n",
                             arg.c_str());
                usage(stderr);
                return 2;
            }
        }

        std::vector<ir::Kernel> kernels;
        if (opt.kernels.empty() && opt.fuzz == 0) {
            for (const std::string &name : workloads::rodiniaNames())
                kernels.push_back(workloads::makeRodinia(name));
        } else {
            for (const std::string &name : opt.kernels)
                kernels.push_back(workloads::makeRodinia(name));
        }
        for (unsigned i = 0; i < opt.fuzz; ++i)
            kernels.push_back(workloads::randomKernel(opt.seed + i));

        std::vector<KernelReport> reports;
        reports.reserve(kernels.size());
        bool dirty = false;
        for (const ir::Kernel &kernel : kernels) {
            reports.push_back(lintOne(kernel, opt));
            dirty = dirty || !reports.back().findings.empty();
        }
        if (opt.json)
            printJson(reports);
        else
            printText(reports);
        return dirty ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "regless_lint: %s\n", e.what());
        return 2;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return finishStdout(run(argc, argv));
}
