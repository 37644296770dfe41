/**
 * @file
 * Command-line simulator driver: run any built-in benchmark or a
 * kernel written in the text assembly format under any operand-storage
 * design, and print run statistics.
 *
 *   regless_sim --bench hotspot --provider regless --capacity 512
 *   regless_sim --asm mykernel.rasm --provider baseline --json
 *   regless_sim --bench lud --dump-asm
 *   regless_sim --list
 */

#include <cstring>
#include <iostream>
#include <string>

#include "common/flags.hh"
#include "common/logging.hh"
#include "compiler/name_compactor.hh"
#include "ir/assembler.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "sim/provider_registry.hh"
#include "sim/stats_io.hh"
#include "workloads/rodinia.hh"

using namespace regless;

namespace
{

std::string
providerNameList()
{
    std::string names;
    for (const sim::ProviderDescriptor &d : sim::providerRegistry()) {
        if (!names.empty())
            names += " | ";
        names += d.name;
    }
    return names;
}

void
usage()
{
    std::cout <<
        "usage: regless_sim [options]\n"
        "  --bench <name>       built-in benchmark (see --list)\n"
        "  --asm <file>         kernel in text assembly\n"
        "  --provider <p>       " << providerNameList() << "\n"
        "                       (default regless)\n"
        "  --capacity <n>       OSU entries per SM (default 512)\n"
        "  --scale <n>          workload scale factor (default 1)\n"
        "  --limit-occupancy    model RF occupancy limits\n"
        "  --compact            compact register names first\n"
        "  --dump-asm           print the kernel as assembly and exit\n"
        "  --dump-regions       print the region partition and exit\n"
        "  --json               print RunStats as JSON\n"
        "  --list               list built-in benchmarks\n";
}

sim::ProviderKind
parseProvider(const std::string &name)
{
    sim::ProviderKind kind;
    if (!sim::tryProviderFromName(name, kind))
        fatal("unknown provider '", name, "' (expected ",
              providerNameList(), ")");
    return kind;
}

} // namespace

int
runExample(int argc, char **argv)
{
    std::string bench;
    std::string asm_file;
    sim::ProviderKind provider = sim::ProviderKind::Regless;
    unsigned capacity = 512;
    unsigned scale = 1;
    bool limit_occupancy = false;
    bool compact = false;
    bool dump_asm = false;
    bool dump_regions = false;
    bool as_json = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option ", arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--bench")
            bench = next();
        else if (arg == "--asm")
            asm_file = next();
        else if (arg == "--provider")
            provider = parseProvider(next());
        else if (arg == "--capacity")
            capacity = flagNumber<unsigned>(arg, next());
        else if (arg == "--scale")
            scale = flagNumber<unsigned>(arg, next());
        else if (arg == "--limit-occupancy")
            limit_occupancy = true;
        else if (arg == "--compact")
            compact = true;
        else if (arg == "--dump-asm")
            dump_asm = true;
        else if (arg == "--dump-regions")
            dump_regions = true;
        else if (arg == "--json")
            as_json = true;
        else if (arg == "--list") {
            for (const auto &name : workloads::rodiniaNames())
                std::cout << name << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option '", arg, "'");
        }
    }

    if (bench.empty() == asm_file.empty()) {
        usage();
        fatal("pass exactly one of --bench or --asm");
    }

    ir::Kernel kernel = bench.empty()
                            ? ir::assembleFile(asm_file)
                            : workloads::makeRodinia(bench, scale);
    if (compact) {
        compiler::CompactionResult result =
            compiler::compactNames(kernel);
        std::cout << "# compacted " << result.originalRegs << " -> "
                  << result.compactedRegs << " register names\n";
        kernel = std::move(result.kernel);
    }

    if (dump_asm) {
        std::cout << ir::disassembleToAsm(kernel);
        return 0;
    }

    sim::GpuConfig cfg = sim::GpuConfig::forProvider(provider);
    cfg.setOsuCapacity(capacity);
    cfg.limitOccupancyByRf = limit_occupancy;
    sim::GpuSimulator simulator(kernel, cfg);

    if (dump_regions) {
        std::cout << simulator.compiled().describeRegions();
        return 0;
    }

    sim::RunStats stats = simulator.run();
    if (as_json) {
        sim::writeJson(std::cout, stats);
        std::cout << "\n";
        return 0;
    }
    std::cout << "kernel          " << stats.kernel << "\n";
    std::cout << "provider        " << sim::providerName(provider)
              << "\n";
    std::cout << "cycles          " << stats.cycles << "\n";
    std::cout << "instructions    " << stats.insns << " (ipc "
              << static_cast<double>(stats.insns) / stats.cycles
              << ")\n";
    std::cout << "reg energy      "
              << stats.energy.registerStructures() / 1e6 << " uJ\n";
    std::cout << "total energy    " << stats.energy.total() / 1e6
              << " uJ\n";
    if (provider == sim::ProviderKind::Regless ||
        provider == sim::ProviderKind::ReglessNoCompressor) {
        std::cout << "preloads        " << stats.totalPreloads()
                  << " (osu " << stats.preloadSrcOsu << ", compressor "
                  << stats.preloadSrcCompressor << ", l1 "
                  << stats.preloadSrcL1 << ", l2/dram "
                  << stats.preloadSrcL2Dram << ")\n";
        std::cout << "metadata insns  " << stats.metadataInsns << "\n";
        std::cout << "regions         " << stats.numRegions
                  << " static, " << stats.staticInsnsPerRegion
                  << " insns each; " << stats.regionCyclesMean
                  << " cycles active\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    // Library code throws SimError; the example main is the
    // process-exit boundary.
    int status = 0;
    try {
        status = runExample(argc, argv);
    } catch (const FlagError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        status = 2;
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        status = 1;
    }
    return finishStdout(status);
}
