/**
 * @file
 * Quickstart: build a small GPU kernel with the builder DSL, compile
 * it with the RegLess compiler, run it on the simulated SM under both
 * the baseline register file and RegLess, and compare the results.
 *
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/kernel_builder.hh"

using namespace regless;

int
runExample()
{
    // 1. Write a kernel: out[i] = in[i] * in[i] + i, for 2048 threads.
    workloads::KernelBuilder b("square_plus_tid");
    RegId tid = b.tid();
    RegId addr = b.imuli(tid, 4);
    RegId value = b.ld(addr);
    RegId squared = b.imul(value, value);
    RegId result = b.iadd(squared, tid);
    b.st(result, addr, 65536);
    ir::Kernel kernel = b.build();

    // 2. Compile: the RegLess compiler splits the kernel into regions
    //    and annotates register lifetimes.
    compiler::CompiledKernel ck = compiler::compile(kernel);
    std::cout << "Kernel '" << kernel.name() << "': "
              << kernel.numInsns() << " instructions, "
              << ck.regions().size() << " regions\n";
    std::cout << ck.describeRegions() << "\n";

    // 3. Run under the baseline register file and under RegLess.
    sim::RunStats base =
        sim::runKernel(kernel, sim::ProviderKind::Baseline);
    sim::RunStats rl = sim::runKernel(kernel, sim::ProviderKind::Regless);

    std::cout << "baseline: " << base.cycles << " cycles, RF energy "
              << base.energy.registerStructures() / 1e6 << " uJ\n";
    std::cout << "regless:  " << rl.cycles << " cycles, staging energy "
              << rl.energy.registerStructures() / 1e6 << " uJ\n";
    std::cout << "register-structure energy ratio: "
              << rl.energy.registerStructures() /
                     base.energy.registerStructures()
              << " (paper: ~0.25)\n";
    std::cout << "preloads served by OSU: " << rl.preloadSrcOsu << " / "
              << rl.totalPreloads() << "\n";

    // 4. Verify functional equivalence through memory contents.
    sim::GpuConfig base_cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuConfig rl_cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::GpuSimulator base_sim(kernel, base_cfg);
    sim::GpuSimulator rl_sim(kernel, rl_cfg);
    base_sim.run();
    rl_sim.run();
    unsigned mismatches = 0;
    for (unsigned t = 0; t < 2048; ++t) {
        Addr a = arch::kDataBase + 4 * t + 65536;
        if (base_sim.memory().readWord(a) != rl_sim.memory().readWord(a))
            ++mismatches;
    }
    std::cout << "output mismatches vs baseline: " << mismatches
              << " (expect 0)\n";
    return mismatches == 0 ? 0 : 1;
}

int
main()
{
    // Library code throws SimError; the example main is the
    // process-exit boundary.
    try {
        return runExample();
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
