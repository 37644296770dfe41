/**
 * @file
 * Comparison-provider tests: RFV renaming/spilling and RFH static
 * level assignment, plus their end-to-end behaviour.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "regfile/baseline_rf.hh"
#include "regfile/rf_hierarchy.hh"
#include "regfile/rf_virtualization.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using workloads::KernelBuilder;

ir::Kernel
simpleKernel()
{
    KernelBuilder b("simple");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId x = b.iaddi(t, 1);   // x dies at the next insn
    RegId y = b.imul(x, x);    // y long-ish lived
    RegId z = b.iadd(y, t);
    b.st(z, addr);
    return b.build();
}

TEST(RfvTest, AllocatesOnWriteReleasesOnLastUse)
{
    compiler::CompiledKernel ck = compiler::compile(
        simpleKernel(), [] {
            compiler::CompilerConfig cfg;
            cfg.reassignBanks = false;
            return cfg;
        }());
    regfile::RfVirtualization rfv(ck, 16);
    arch::Warp warp(0, 0, ck.kernel().numRegs());

    // Drive the instruction stream by hand.
    for (Pc pc = 0; pc < ck.kernel().numInsns(); ++pc) {
        const ir::Instruction &insn = ck.kernel().insn(pc);
        EXPECT_TRUE(rfv.canIssue(warp, pc));
        rfv.onIssue(warp, pc, insn, pc, pc + 1);
        if (!insn.isExit())
            warp.stack().advance();
    }
    // After the store, only dead values should be... everything
    // released except registers with no static last use.
    EXPECT_GT(rfv.stats().releases, 0u);
    EXPECT_LE(rfv.allocated(), 2u);
}

TEST(RfvTest, SpillsWhenOverCommitted)
{
    compiler::CompiledKernel ck = compiler::compile(simpleKernel());
    regfile::RfVirtualization rfv(ck, 2); // absurdly small
    arch::Warp warp(0, 0, ck.kernel().numRegs());
    for (Pc pc = 0; pc < ck.kernel().numInsns(); ++pc) {
        const ir::Instruction &insn = ck.kernel().insn(pc);
        rfv.onIssue(warp, pc, insn, pc, pc + 1);
        if (!insn.isExit())
            warp.stack().advance();
    }
    EXPECT_GT(rfv.stats().spillStores, 0u);
    EXPECT_LE(rfv.allocated(), 2u);
}

TEST(RfvTest, SpilledSourceChargesDelay)
{
    compiler::CompiledKernel ck = compiler::compile(
        simpleKernel(), [] {
            compiler::CompilerConfig cfg;
            cfg.reassignBanks = false;
            return cfg;
        }());
    regfile::RfVirtualization rfv(ck, 1, /*spill_penalty=*/50);
    arch::Warp warp(0, 0, ck.kernel().numRegs());
    // Execute defs of t (r0) and addr, x... with 1 physical register,
    // every older value spills immediately.
    for (Pc pc = 0; pc < 3; ++pc) {
        rfv.onIssue(warp, pc, ck.kernel().insn(pc), pc, pc + 1);
        warp.stack().advance();
    }
    // pc 3 (imul) reads x which is mapped, but earlier regs spilled;
    // find an instruction whose source is spilled.
    std::uint64_t spills = rfv.stats().spillStores;
    EXPECT_GT(spills, 0u);
}

TEST(RfvTest, EndToEndMatchesBaseline)
{
    sim::GpuConfig base_cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuConfig rfv_cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Rfv);
    sim::GpuSimulator base(workloads::makeRodinia("hotspot"), base_cfg);
    sim::GpuSimulator rfv(workloads::makeRodinia("hotspot"), rfv_cfg);
    base.run();
    rfv.run();
    for (Addr off = 0; off < (1u << 19); off += 4 * 257) {
        Addr a = arch::kDataBase + off;
        ASSERT_EQ(base.memory().readWord(a), rfv.memory().readWord(a));
    }
}

TEST(RfhTest, ShortLivedValuesAvoidTheMrf)
{
    compiler::CompilerConfig ccfg;
    ccfg.reassignBanks = false;
    compiler::CompiledKernel ck =
        compiler::compile(simpleKernel(), ccfg);
    regfile::RfHierarchy rfh(ck);
    // x (defined at pc 2, single use at pc 3) should be LRF or ORF.
    RegId x = ck.kernel().insn(2).dst();
    EXPECT_NE(rfh.levelOf(x), regfile::RfLevel::Mrf);
}

TEST(RfhTest, CrossBlockValuesUseTheMrf)
{
    KernelBuilder b("crossblock");
    RegId t = b.tid();
    RegId keep = b.iaddi(t, 1);
    workloads::Label skip = b.newLabel();
    RegId p = b.setLt(t, b.movi(8));
    b.braIf(p, skip);
    b.st(keep, b.imuli(t, 4));
    b.bind(skip);
    b.st(keep, b.imuli(t, 4), 8192);
    compiler::CompilerConfig ccfg;
    ccfg.reassignBanks = false;
    compiler::CompiledKernel ck = compiler::compile(b.build(), ccfg);
    regfile::RfHierarchy rfh(ck);
    EXPECT_EQ(rfh.levelOf(keep), regfile::RfLevel::Mrf);
}

TEST(RfhTest, AccessCountsSplitAcrossLevels)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("lud"));
    sim::GpuConfig cfg = sim::GpuConfig::forProvider(sim::ProviderKind::Rfh);
    sim::RunStats stats =
        sim::runKernel(workloads::makeRodinia("lud"), cfg);
    EXPECT_GT(stats.lrfAccesses + stats.orfAccesses, 0u);
    EXPECT_GT(stats.mrfAccesses, 0u);
    // Filtering works: small levels absorb a meaningful share.
    double small = static_cast<double>(stats.lrfAccesses +
                                       stats.orfAccesses);
    double total = small + static_cast<double>(stats.mrfAccesses);
    EXPECT_GT(small / total, 0.2);
}

TEST(RfhTest, MrfSeriesSmallerThanBaselineAccesses)
{
    sim::RunStats base = sim::runKernel(workloads::makeRodinia("nw"),
                                        sim::ProviderKind::Baseline);
    sim::RunStats rfh = sim::runKernel(workloads::makeRodinia("nw"),
                                       sim::ProviderKind::Rfh);
    double base_total = 0, rfh_total = 0;
    for (double v : base.backingSeries)
        base_total += v;
    for (double v : rfh.backingSeries)
        rfh_total += v;
    EXPECT_LT(rfh_total, base_total);
}

TEST(ProviderEnergyTest, OrderingMatchesPaper)
{
    // On a compute benchmark the register-structure energy must order
    // regless < rfh < rfv < baseline.
    auto rf_energy = [](sim::ProviderKind kind) {
        return sim::runKernel(workloads::makeRodinia("srad_v1"), kind)
            .energy.registerStructures();
    };
    double base = rf_energy(sim::ProviderKind::Baseline);
    double rfv = rf_energy(sim::ProviderKind::Rfv);
    double rfh = rf_energy(sim::ProviderKind::Rfh);
    double rl = rf_energy(sim::ProviderKind::Regless);
    EXPECT_LT(rl, rfh);
    EXPECT_LT(rfh, rfv);
    EXPECT_LT(rfv, base);
}

} // namespace
} // namespace regless

namespace regless
{
namespace
{

TEST(BaselineRfTest, CountsBankConflicts)
{
    // imul r, a, a reads the same register twice: same bank.
    regfile::BaselineRf rf(100, 32, /*collector_penalty=*/2);
    arch::Warp warp(0, 0, 64);
    ir::Instruction square(ir::Opcode::IMul, 5, {3, 3});
    EXPECT_EQ(rf.operandDelay(warp, square, 0), 2u);
    EXPECT_EQ(rf.stats().bankConflicts, 1u);

    // Distinct banks: no conflict.
    ir::Instruction add(ir::Opcode::IAdd, 5, {3, 4});
    EXPECT_EQ(rf.operandDelay(warp, add, 0), 0u);
    // Registers 32 banks apart collide again.
    ir::Instruction far_add(ir::Opcode::IAdd, 5, {3, 35});
    EXPECT_EQ(rf.operandDelay(warp, far_add, 0), 2u);
}

TEST(BaselineRfTest, DefaultCollectorHidesConflicts)
{
    regfile::BaselineRf rf; // penalty 0
    arch::Warp warp(0, 0, 64);
    ir::Instruction square(ir::Opcode::IMul, 5, {3, 3});
    EXPECT_EQ(rf.operandDelay(warp, square, 0), 0u);
    EXPECT_EQ(rf.stats().bankConflicts, 1u);
}

} // namespace
} // namespace regless
