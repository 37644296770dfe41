/**
 * @file
 * Google-benchmark microbenchmarks of the RegLess building blocks:
 * compressor pattern matching, OSU allocate/erase, liveness analysis,
 * the full compiler pipeline, and SM cycle throughput.
 */

#include <benchmark/benchmark.h>

#include "compiler/compiler.hh"
#include "ir/cfg_analysis.hh"
#include "ir/liveness.hh"
#include "mem/memory_system.hh"
#include "regfile/baseline_rf.hh"
#include "regless/compressor.hh"
#include "regless/operand_staging_unit.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/rodinia.hh"

namespace
{

using namespace regless;

void
BM_CompressorMatch(benchmark::State &state)
{
    ir::LaneValues values{};
    for (unsigned i = 0; i < warpSize; ++i)
        values[i] = 1000 + i * static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            staging::Compressor::matchPattern(values));
    }
}
BENCHMARK(BM_CompressorMatch)->Arg(0)->Arg(1)->Arg(3);

void
BM_OsuAllocateErase(benchmark::State &state)
{
    staging::OperandStagingUnit osu(128,
                                    staging::VictimOrder::FreeCleanDirty);
    RegId reg = 0;
    for (auto _ : state) {
        osu.allocate(3, reg, false);
        osu.erase(3, reg);
        reg = (reg + 1) % 64;
    }
}
BENCHMARK(BM_OsuAllocateErase);

void
BM_OsuReclaimPath(benchmark::State &state)
{
    staging::OperandStagingUnit osu(64,
                                    staging::VictimOrder::FreeCleanDirty);
    // Fill bank 0 with evictable lines so every allocation reclaims.
    for (unsigned i = 0; i < 8; ++i) {
        osu.allocate(0, static_cast<RegId>(i * 8), true);
        osu.markEvictable(0, static_cast<RegId>(i * 8));
    }
    RegId reg = 64;
    for (auto _ : state) {
        osu.allocate(0, reg, true);
        osu.markEvictable(0, reg);
        reg = static_cast<RegId>(64 + ((reg - 64) + 8) % 512);
    }
}
BENCHMARK(BM_OsuReclaimPath);

void
BM_LivenessAnalysis(benchmark::State &state)
{
    ir::Kernel kernel = workloads::makeRodinia("heartwall");
    for (auto _ : state) {
        ir::CfgAnalysis cfg(kernel);
        ir::Liveness live(kernel, cfg);
        benchmark::DoNotOptimize(live.liveCountBefore(0));
    }
}
BENCHMARK(BM_LivenessAnalysis);

void
BM_CompilerPipeline(benchmark::State &state)
{
    ir::Kernel kernel = workloads::makeRodinia("dwt2d");
    for (auto _ : state) {
        compiler::CompiledKernel ck = compiler::compile(kernel);
        benchmark::DoNotOptimize(ck.regions().size());
    }
}
BENCHMARK(BM_CompilerPipeline);

void
BM_SmCyclesBaseline(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
        sim::GpuSimulator sim(workloads::makeRodinia("hotspot"), cfg);
        state.ResumeTiming();
        benchmark::DoNotOptimize(sim.run().cycles);
    }
}
BENCHMARK(BM_SmCyclesBaseline)->Unit(benchmark::kMillisecond);

void
BM_SmCyclesRegless(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        sim::GpuSimulator sim(workloads::makeRodinia("hotspot"), cfg);
        state.ResumeTiming();
        benchmark::DoNotOptimize(sim.run().cycles);
    }
}
BENCHMARK(BM_SmCyclesRegless)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
