/**
 * @file
 * Workload tests: every synthetic Rodinia kernel compiles, respects
 * region invariants, and completes under both the baseline and
 * RegLess with identical architectural results. Parameterized over all
 * 21 benchmark names.
 */

#include <gtest/gtest.h>

#include <set>

#include "compiler/compiler.hh"
#include "ir/cfg_analysis.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

class RodiniaTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RodiniaTest, BuildsAndValidates)
{
    ir::Kernel kernel = workloads::makeRodinia(GetParam());
    EXPECT_EQ(kernel.name(), GetParam());
    EXPECT_GT(kernel.numInsns(), 5u);
    EXPECT_TRUE(kernel.instructions().back().isExit());
    EXPECT_GT(kernel.numRegs(), 2u);
    // Every block reachable block has a terminator or falls through.
    ir::CfgAnalysis cfg(kernel);
    EXPECT_TRUE(cfg.reachable(0));
}

TEST_P(RodiniaTest, CompilesIntoValidRegions)
{
    ir::Kernel kernel = workloads::makeRodinia(GetParam());
    compiler::CompiledKernel ck = compiler::compile(kernel);
    EXPECT_GT(ck.regions().size(), 1u);

    std::vector<unsigned> covered(ck.kernel().numInsns(), 0);
    for (const compiler::Region &region : ck.regions()) {
        EXPECT_LE(region.startPc, region.endPc);
        EXPECT_EQ(ck.kernel().blockOf(region.startPc),
                  ck.kernel().blockOf(region.endPc));
        EXPECT_GE(region.reservedLines(), region.maxLive);
        for (Pc pc = region.startPc; pc <= region.endPc; ++pc)
            ++covered[pc];
        // Inputs and preloads correspond one-to-one.
        EXPECT_EQ(region.inputs.size(), region.preloads.size());
        EXPECT_GE(region.metadataInsns, 1u);
    }
    for (unsigned c : covered)
        EXPECT_EQ(c, 1u);
}

TEST_P(RodiniaTest, LoadAndFirstUseNeverShareRegion)
{
    ir::Kernel kernel = workloads::makeRodinia(GetParam());
    compiler::CompiledKernel ck = compiler::compile(kernel);
    const ir::Kernel &k = ck.kernel();
    for (Pc pc = 0; pc < k.numInsns(); ++pc) {
        const ir::Instruction &insn = k.insn(pc);
        if (!insn.isGlobalLoad())
            continue;
        compiler::RegionId load_region = ck.regionAt(pc);
        const compiler::Region &region = ck.region(load_region);
        for (Pc use = pc + 1; use <= region.endPc; ++use) {
            const auto &srcs = k.insn(use).srcs();
            EXPECT_EQ(std::count(srcs.begin(), srcs.end(), insn.dst()),
                      0)
                << GetParam() << " pc " << pc << " use " << use;
            if (k.insn(use).writesReg() && k.insn(use).dst() == insn.dst())
                break;
        }
    }
}

TEST_P(RodiniaTest, BaselineCompletesWithProgress)
{
    sim::RunStats stats = sim::runKernel(
        workloads::makeRodinia(GetParam()), sim::ProviderKind::Baseline);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.insns, 64u);
    EXPECT_GT(stats.rfReads + stats.rfWrites, stats.insns);
}

TEST_P(RodiniaTest, ReglessMatchesBaselineOutputs)
{
    sim::GpuConfig base_cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuConfig rl_cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::GpuSimulator base(workloads::makeRodinia(GetParam()), base_cfg);
    sim::GpuSimulator rl(workloads::makeRodinia(GetParam()), rl_cfg);
    base.run();
    rl.run();
    // All architecturally stored words must match; sample the data
    // segment densely enough to catch divergence-path errors.
    for (Addr off = 0; off < (4u << 20); off += 4 * 131) {
        Addr a = arch::kDataBase + off;
        ASSERT_EQ(base.memory().readWord(a), rl.memory().readWord(a))
            << GetParam() << " at offset " << off;
    }
}

TEST_P(RodiniaTest, WorkScaleGrowsDynamicWork)
{
    sim::RunStats small = sim::runKernel(
        workloads::makeRodinia(GetParam(), 1),
        sim::ProviderKind::Baseline);
    sim::RunStats big = sim::runKernel(
        workloads::makeRodinia(GetParam(), 2),
        sim::ProviderKind::Baseline);
    EXPECT_GT(big.insns, small.insns) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, RodiniaTest,
    ::testing::ValuesIn(workloads::rodiniaNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(RodiniaRegistryTest, TwentyOneUniqueNames)
{
    const auto &names = workloads::rodiniaNames();
    EXPECT_EQ(names.size(), 21u);
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(RodiniaRegistryTest, UnknownNameIsFatal)
{
    EXPECT_THROW(workloads::makeRodinia("not_a_benchmark"),
                 sim::SimError);
}

TEST(RodiniaRegistryTest, AllRodiniaBuildsEverything)
{
    auto kernels = workloads::allRodinia();
    EXPECT_EQ(kernels.size(), 21u);
}

TEST(RodiniaCharacterTest, CompressibilityVariesAcrossSuite)
{
    // dwt2d is engineered to compress poorly, pathfinder well; check
    // via compressor hit statistics end to end.
    sim::RunStats noisy = sim::runKernel(workloads::makeRodinia("dwt2d"),
                                         sim::ProviderKind::Regless);
    sim::RunStats regular =
        sim::runKernel(workloads::makeRodinia("pathfinder"),
                       sim::ProviderKind::Regless);
    double noisy_frac =
        noisy.totalPreloads()
            ? static_cast<double>(noisy.preloadSrcL1 +
                                  noisy.preloadSrcL2Dram) /
                  noisy.totalPreloads()
            : 0.0;
    double regular_frac =
        regular.totalPreloads()
            ? static_cast<double>(regular.preloadSrcL1 +
                                  regular.preloadSrcL2Dram) /
                  regular.totalPreloads()
            : 0.0;
    EXPECT_GE(noisy_frac, regular_frac);
}

TEST(RodiniaCharacterTest, DivergentKernelsDiverge)
{
    for (const char *name : {"bfs", "heartwall", "hybridsort"}) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
        sim::GpuSimulator g(workloads::makeRodinia(name), cfg);
        g.run();
        EXPECT_GT(
            g.sm().stats().divergentBranches, 0u)
            << name;
    }
}

TEST(RodiniaCharacterTest, ConservativeLivenessInHybridsort)
{
    ir::Kernel kernel = workloads::makeRodinia("hybridsort");
    compiler::CompiledKernel ck = compiler::compile(kernel);
    // The redefine-before-read-on-a-path pattern must produce soft
    // definitions (the paper's conservative-liveness pathology).
    EXPECT_GT(ck.lifetimeStats().softDefRegs, 0u);
}

TEST(RodiniaCharacterTest, RegionSizeSpreadMatchesPaperOrdering)
{
    // lud/dwt2d (compute) build bigger regions than bfs (memory).
    auto mean_insns = [](const char *name) {
        return compiler::compile(workloads::makeRodinia(name))
            .meanInsnsPerRegion();
    };
    EXPECT_GT(mean_insns("lud"), mean_insns("bfs"));
    EXPECT_GT(mean_insns("dwt2d"), mean_insns("bfs"));
}

} // namespace
} // namespace regless
