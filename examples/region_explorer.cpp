/**
 * @file
 * Region explorer: dump the RegLess compiler's view of a kernel — the
 * disassembly, the region partition, and every hardware annotation
 * (preload / erase / evict / cache-invalidate). The window into paper
 * section 4; the live-register curve with its seams is Figure 5
 * (regless_report --filter fig05_liveness_seams).
 *
 *   ./build/examples/region_explorer [benchmark]   (default: hotspot)
 */

#include <iostream>
#include <string>

#include "compiler/compiler.hh"
#include "workloads/rodinia.hh"

using namespace regless;

int
runExample(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "hotspot";
    ir::Kernel kernel = workloads::makeRodinia(name);

    std::cout << kernel.disassemble() << "\n";

    compiler::CompiledKernel ck = compiler::compile(kernel);

    std::cout << "=== regions (" << ck.regions().size() << ") ===\n";
    for (const compiler::Region &region : ck.regions()) {
        std::cout << region.toString() << "\n";
        for (const compiler::Preload &p : region.preloads) {
            std::cout << "    preload r" << p.reg
                      << (p.invalidate ? " (invalidating read)" : "")
                      << "\n";
        }
        for (RegId r : region.cacheInvalidations)
            std::cout << "    cache invalidate r" << r << "\n";
        for (const auto &[pc, regs] : region.erases) {
            for (RegId r : regs)
                std::cout << "    erase r" << r << " @ pc " << pc << "\n";
        }
        for (const auto &[pc, regs] : region.evicts) {
            for (RegId r : regs)
                std::cout << "    evict r" << r << " @ pc " << pc << "\n";
        }
        std::cout << "    metadata instructions: "
                  << region.metadataInsns << "\n";
    }

    std::cout << "\n=== summary ===\n";
    std::cout << "mean insns/region:   " << ck.meanInsnsPerRegion()
              << "\n";
    std::cout << "mean preloads/region: " << ck.meanPreloadsPerRegion()
              << "\n";
    std::cout << "mean max-live/region: " << ck.meanMaxLivePerRegion()
              << "\n";
    std::cout << "metadata instructions: " << ck.metadataInsns() << "\n";
    const auto &ls = ck.lifetimeStats();
    std::cout << "cross-region registers: " << ls.crossRegionRegs
              << ", edge deaths: " << ls.edgeDeathRegs
              << ", soft-def registers: " << ls.softDefRegs
              << ", unplaced invalidations: " << ls.unplacedInvalidations
              << "\n";
    return 0;
}

int
main(int argc, char **argv)
{
    // Library code throws SimError; the example main is the
    // process-exit boundary.
    try {
        return runExample(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
