/**
 * @file
 * Tests for the tooling layer: register-name compaction and the
 * issue-trace checker.
 */

#include <gtest/gtest.h>

#include "compiler/name_compactor.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "sim/trace_checker.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using workloads::KernelBuilder;

TEST(NameCompactorTest, ReducesSequentialTemporaries)
{
    // 20 sequential short-lived temporaries need very few names.
    KernelBuilder b("chain");
    RegId t = b.tid();
    RegId x = t;
    for (int i = 0; i < 20; ++i)
        x = b.iaddi(x, 1);
    b.st(x, b.imuli(t, 4));
    ir::Kernel k = b.build();

    compiler::CompactionResult result = compiler::compactNames(k);
    EXPECT_GT(result.originalRegs, 20u);
    EXPECT_LE(result.compactedRegs, 5u);
}

TEST(NameCompactorTest, CoLiveValuesKeepDistinctNames)
{
    KernelBuilder b("colive");
    RegId t = b.tid();
    std::vector<RegId> vals;
    for (int i = 0; i < 8; ++i)
        vals.push_back(b.iaddi(t, i));
    RegId acc = b.movi(0);
    for (RegId v : vals)
        acc = b.iadd(acc, v);
    b.st(acc, b.imuli(t, 4));
    ir::Kernel k = b.build();

    compiler::CompactionResult result = compiler::compactNames(k);
    // The 8 values + t + accumulator are co-live: at least 10 names.
    EXPECT_GE(result.compactedRegs, 10u);
    EXPECT_LT(result.compactedRegs, result.originalRegs);
}

class CompactionEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CompactionEquivalence, CompactedKernelComputesSameResults)
{
    ir::Kernel original = workloads::makeRodinia(GetParam());
    compiler::CompactionResult result =
        compiler::compactNames(workloads::makeRodinia(GetParam()));
    ASSERT_LE(result.compactedRegs, result.originalRegs);

    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuSimulator a(original, cfg);
    sim::GpuSimulator b(result.kernel, cfg);
    a.run();
    b.run();
    for (Addr off = 0; off < (4u << 20); off += 4 * 251) {
        Addr addr = arch::kDataBase + off;
        ASSERT_EQ(a.memory().readWord(addr), b.memory().readWord(addr))
            << GetParam() << " offset " << off;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, CompactionEquivalence,
    ::testing::Values("hotspot", "heartwall", "hybridsort", "lud",
                      "particle_filter", "srad_v2"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(NameCompactorTest, CompactedKernelRunsUnderRegless)
{
    compiler::CompactionResult result =
        compiler::compactNames(workloads::makeRodinia("dwt2d"));
    sim::RunStats stats =
        sim::runKernel(result.kernel, sim::ProviderKind::Regless);
    EXPECT_GT(stats.cycles, 0u);
}

TEST(TraceCheckerTest, CleanTraceOnBaseline)
{
    ir::Kernel kernel = workloads::makeRodinia("heartwall");
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuSimulator g(kernel, cfg);
    sim::TraceChecker checker(g.compiled(), cfg.sm.numWarps,
                              /*check_regions=*/false);
    checker.attach(g.sm());
    g.run();
    EXPECT_GT(checker.events(), 0u);
    EXPECT_TRUE(checker.violations().empty())
        << checker.violations().front();
}

TEST(TraceCheckerTest, RegionAtomicityHoldsUnderRegless)
{
    ir::Kernel kernel = workloads::makeRodinia("srad_v2");
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::GpuSimulator g(kernel, cfg);
    sim::TraceChecker checker(g.compiled(), cfg.sm.numWarps,
                              /*check_regions=*/true);
    checker.attach(g.sm());
    g.run();
    EXPECT_TRUE(checker.violations().empty())
        << checker.violations().front();
}

TEST(TraceCheckerTest, EventLogRecordsIssues)
{
    KernelBuilder b("tiny");
    b.st(b.tid(), b.movi(0));
    ir::Kernel kernel = b.build();
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuSimulator g(kernel, cfg);
    sim::TraceChecker checker(g.compiled(), cfg.sm.numWarps, false,
                              /*keep_events=*/true);
    checker.attach(g.sm());
    sim::RunStats stats = g.run();
    EXPECT_EQ(checker.events(), stats.insns);
    EXPECT_EQ(checker.eventLog().size(), stats.insns);
    // Events are in nondecreasing cycle order.
    for (std::size_t i = 1; i < checker.eventLog().size(); ++i) {
        EXPECT_GE(checker.eventLog()[i].cycle,
                  checker.eventLog()[i - 1].cycle);
    }
}

TEST(TraceCheckerTest, DetectsUseBeforeDef)
{
    // Hand-build a malformed kernel: read r5 with no definition.
    std::vector<ir::Instruction> insns;
    insns.emplace_back(ir::Opcode::Tid, 0, std::vector<RegId>{});
    insns.emplace_back(ir::Opcode::IAdd, 1, std::vector<RegId>{0, 5});
    insns.emplace_back(ir::Opcode::StGlobal, invalidReg,
                       std::vector<RegId>{1, 0}, 0);
    insns.emplace_back(ir::Opcode::Exit, invalidReg,
                       std::vector<RegId>{});
    ir::Kernel kernel("malformed", std::move(insns));

    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuSimulator g(kernel, cfg);
    sim::TraceChecker checker(g.compiled(), cfg.sm.numWarps, false);
    checker.attach(g.sm());
    g.run();
    ASSERT_FALSE(checker.violations().empty());
    EXPECT_NE(checker.violations().front().find("before any definition"),
              std::string::npos);
}

TEST(TraceCheckerTest, AllBenchmarksHaveCleanReglessTraces)
{
    for (const auto &name : workloads::rodiniaNames()) {
        ir::Kernel kernel = workloads::makeRodinia(name);
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        sim::GpuSimulator g(kernel, cfg);
        sim::TraceChecker checker(g.compiled(), cfg.sm.numWarps, true);
        checker.attach(g.sm());
        g.run();
        EXPECT_TRUE(checker.violations().empty())
            << name << ": " << checker.violations().front();
    }
}

} // namespace
} // namespace regless

#include "compiler/verifier.hh"
#include "mem/memory_system.hh"
#include "regless/compressor.hh"

namespace regless
{
namespace
{

class VerifierTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(VerifierTest, BenchmarkKernelsVerifyClean)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia(GetParam()));
    std::vector<compiler::Finding> findings =
        compiler::verifyStructure(ck);
    EXPECT_TRUE(findings.empty())
        << GetParam() << ": " << findings.front().message;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, VerifierTest,
    ::testing::ValuesIn(workloads::rodiniaNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(VerifierTest, DetectsCorruptedRegion)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    // Break an invariant: claim a region needs zero capacity.
    auto regions = ck.regions();
    regions[0].maxLive += 3;
    compiler::CompiledKernel broken(ck.kernel(), std::move(regions),
                                    ck.lifetimeStats(),
                                    ck.metadataInsns());
    std::vector<compiler::Finding> findings =
        compiler::verifyStructure(broken);
    ASSERT_FALSE(findings.empty());
    EXPECT_NE(findings.front().message.find("maxLive"),
              std::string::npos);
}

TEST(VerifierTest, NoLoadUseCheckWhenSplitDisabled)
{
    compiler::CompilerConfig cfg;
    cfg.splitLoadUse = false;
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("kmeans"), cfg);
    // With the split disabled, load/use pairs are expected; verify
    // everything else still holds.
    std::vector<compiler::Finding> findings =
        compiler::verifyStructure(ck, /*check_load_use=*/false);
    EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(CompressorMaskTest, DisabledPatternsDoNotMatch)
{
    mem::MemorySystem mem;
    staging::CompressorConfig cfg;
    cfg.patternMask =
        1u << static_cast<unsigned>(staging::Pattern::Constant);
    staging::Compressor comp(cfg, mem, 0x6000'0000, 64);

    ir::LaneValues constant{};
    constant.fill(9);
    EXPECT_TRUE(comp.compressEvict(0, 0, constant, 0).compressed);

    ir::LaneValues stride{};
    for (unsigned i = 0; i < warpSize; ++i)
        stride[i] = 100 + i;
    EXPECT_FALSE(comp.compressEvict(0, 8, stride, 0).compressed);
}

} // namespace
} // namespace regless
