/**
 * @file
 * Capacity-manager state-machine tests, driven through a real SM so
 * warp state and annotations are authentic: activation gating,
 * per-bank reservations, drain behaviour, occupancy-limited residency,
 * and conservation invariants checked every cycle.
 */

#include <gtest/gtest.h>

#include "arch/sm.hh"
#include "compiler/compiler.hh"
#include "mem/memory_system.hh"
#include "regfile/baseline_rf.hh"
#include "regless/regless_provider.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using staging::CmState;
using staging::osuBanks;
using staging::ReglessConfig;
using staging::ReglessProvider;
using workloads::KernelBuilder;

struct CmRun
{
    explicit CmRun(ir::Kernel k,
                   ReglessConfig rcfg = ReglessConfig(),
                   arch::SmConfig scfg = arch::SmConfig())
        : ck(compiler::compile(k)),
          mem(),
          provider(ck, mem, rcfg, scfg.numWarps),
          sm(ck, mem, provider, scfg)
    {
        provider.setWarpSource(
            [this](WarpId w) -> const arch::Warp & {
                return sm.warp(w);
            });
    }
    compiler::CompiledKernel ck;
    mem::MemorySystem mem;
    ReglessProvider provider;
    arch::Sm sm;
};

ir::Kernel
twoRegionKernel()
{
    KernelBuilder b("two_region");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId v = b.ld(addr);
    RegId w = b.iaddi(v, 1);
    b.st(w, addr, 65536);
    return b.build();
}

TEST(CmStateTest, WarpsStartInactiveThenActivate)
{
    CmRun run(twoRegionKernel());
    // Before any tick nothing is active.
    unsigned active0 = 0;
    for (WarpId w = 0; w < 64; ++w)
        active0 += run.provider.cm(w % 4).state(w) == CmState::Active;
    EXPECT_EQ(active0, 0u);

    // After a few cycles the capacity managers activate warps.
    for (int i = 0; i < 20; ++i)
        run.sm.step();
    unsigned active = 0;
    for (WarpId w = 0; w < 64; ++w)
        active += run.provider.cm(w % 4).state(w) == CmState::Active;
    EXPECT_GT(active, 0u);
}

TEST(CmStateTest, AllWarpsReachDoneState)
{
    CmRun run(twoRegionKernel());
    run.sm.run();
    for (WarpId w = 0; w < 64; ++w)
        EXPECT_EQ(run.provider.cm(w % 4).state(w), CmState::Done);
    // And the OSUs are completely empty.
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(run.provider.osu(s).occupiedLines(), 0u);
}

TEST(CmInvariantTest, ReservationsNeverExceedAvailability)
{
    // Step a capacity-stressed run and verify, every cycle, that each
    // bank's reserved-but-unallocated lines fit in what is reclaimable.
    ReglessConfig rcfg;
    rcfg.osuEntriesPerSm = 128;
    arch::SmConfig scfg;
    sim::GpuConfig gc = sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    gc.setOsuCapacity(128);

    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("dwt2d"), gc.compiler);
    mem::MemorySystem mem;
    rcfg.osuEntriesPerSm = 128;
    ReglessProvider provider(ck, mem, rcfg, scfg.numWarps);
    arch::Sm sm(ck, mem, provider, scfg);
    provider.setWarpSource(
        [&sm](WarpId w) -> const arch::Warp & { return sm.warp(w); });

    for (int cycle = 0; cycle < 150000 && !sm.done(); ++cycle) {
        sm.step();
        for (unsigned s = 0; s < 4; ++s) {
            for (unsigned b = 0; b < osuBanks; ++b) {
                auto c = provider.osu(s).bankCounts(b);
                int avail = static_cast<int>(c.free + c.clean + c.dirty);
                ASSERT_GE(avail, provider.cm(s).reservedFuture(b))
                    << "cycle " << cycle << " shard " << s << " bank "
                    << b;
            }
        }
    }
    EXPECT_TRUE(sm.done());
}

TEST(CmInvariantTest, BankOccupancyNeverExceedsLines)
{
    CmRun run(workloads::makeRodinia("heartwall"));
    unsigned lines = run.provider.osu(0).linesPerBank();
    for (int cycle = 0; cycle < 20000 && !run.sm.done(); ++cycle) {
        run.sm.step();
        for (unsigned s = 0; s < 4; ++s) {
            for (unsigned b = 0; b < osuBanks; ++b) {
                auto c = run.provider.osu(s).bankCounts(b);
                ASSERT_EQ(c.owned + c.clean + c.dirty + c.free, lines);
            }
        }
    }
    EXPECT_TRUE(run.sm.done());
}

TEST(CmStateTest, ActiveWarpsBoundedByCapacity)
{
    // With 128 entries (4 lines/bank/shard) only a few warps can hold
    // regions simultaneously.
    ReglessConfig rcfg;
    rcfg.osuEntriesPerSm = 128;
    sim::GpuConfig gc =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    gc.setOsuCapacity(128);
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("lud"), gc.compiler);
    mem::MemorySystem mem;
    ReglessProvider provider(ck, mem, rcfg, 64);
    arch::SmConfig scfg;
    arch::Sm sm(ck, mem, provider, scfg);
    provider.setWarpSource(
        [&sm](WarpId w) -> const arch::Warp & { return sm.warp(w); });

    unsigned peak_active = 0;
    for (int cycle = 0; cycle < 30000 && !sm.done(); ++cycle) {
        sm.step();
        unsigned active = 0;
        for (WarpId w = 0; w < 64; ++w) {
            CmState s = provider.cm(w % 4).state(w);
            active += (s == CmState::Active || s == CmState::Preloading ||
                       s == CmState::Draining);
        }
        peak_active = std::max(peak_active, active);
    }
    EXPECT_TRUE(sm.done());
    EXPECT_LT(peak_active, 48u); // far below all 64
    EXPECT_GT(peak_active, 2u);
}

TEST(CmStateTest, MetadataCountedPerActivation)
{
    CmRun run(twoRegionKernel());
    run.sm.run();
    std::uint64_t meta = 0, activations = 0;
    for (unsigned s = 0; s < 4; ++s) {
        meta += run.provider.cm(s).stats().metadataInsns;
        activations += run.provider.cm(s).stats().activations;
    }
    EXPECT_GT(meta, 0u);
    EXPECT_GE(meta, activations); // >= 1 metadata insn per region
}

TEST(OccupancyTest, ResidencyLimitsBaselineButNotRegless)
{
    // ~40 names per warp -> a 256-entry RF fits few warps.
    KernelBuilder b("occupancy");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId acc = b.movi(0);
    for (int k = 0; k < 36; ++k)
        acc = b.iadd(acc, b.iaddi(t, k));
    b.st(acc, addr);
    ir::Kernel kernel = b.build();

    sim::GpuConfig limited =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    limited.baselineRfEntries = 256;
    limited.limitOccupancyByRf = true;
    sim::GpuConfig unlimited =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);

    sim::RunStats slow = sim::runKernel(kernel, limited);
    sim::RunStats fast = sim::runKernel(kernel, unlimited);
    EXPECT_GT(slow.cycles, fast.cycles);
    // Same amount of work either way.
    EXPECT_EQ(slow.insns, fast.insns);

    // RegLess is never residency-limited.
    sim::GpuConfig rl =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    rl.baselineRfEntries = 256;
    rl.limitOccupancyByRf = true;
    sim::RunStats rl_stats = sim::runKernel(kernel, rl);
    EXPECT_LT(rl_stats.cycles, slow.cycles);
}

TEST(OccupancyTest, BarrierKernelsSafeUnderResidencyLimit)
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    cfg.limitOccupancyByRf = true;
    cfg.baselineRfEntries = 128; // extreme: one block at a time
    sim::RunStats stats =
        sim::runKernel(workloads::makeRodinia("pathfinder"), cfg);
    EXPECT_GT(stats.cycles, 0u); // completed: no barrier deadlock
}

} // namespace
} // namespace regless
