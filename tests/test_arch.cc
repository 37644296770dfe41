/**
 * @file
 * Architecture tests: SIMT stack mechanics, schedulers, scoreboard,
 * and end-to-end SM runs with the baseline register file, including
 * functional-correctness checks against expected memory contents.
 */

#include <gtest/gtest.h>

#include <random>

#include "arch/scheduler.hh"
#include "arch/scoreboard.hh"
#include "arch/simt_stack.hh"
#include "arch/sm.hh"
#include "compiler/compiler.hh"
#include "mem/memory_system.hh"
#include "regfile/baseline_rf.hh"
#include "workloads/kernel_builder.hh"

namespace regless
{
namespace
{

using arch::SimtStack;
using arch::Sm;
using arch::SmConfig;
using workloads::KernelBuilder;
using workloads::Label;

TEST(SimtStackTest, StartsAtZeroFullMask)
{
    SimtStack s;
    EXPECT_EQ(s.pc(), 0u);
    EXPECT_EQ(s.activeMask(), fullMask);
    EXPECT_FALSE(s.allExited());
}

TEST(SimtStackTest, AdvanceIncrementsPc)
{
    SimtStack s;
    s.advance();
    s.advance();
    EXPECT_EQ(s.pc(), 2u);
}

TEST(SimtStackTest, UniformTakenBranch)
{
    SimtStack s;
    bool diverged = s.branch(fullMask, 10, 20);
    EXPECT_FALSE(diverged);
    EXPECT_EQ(s.pc(), 10u);
    EXPECT_EQ(s.depth(), 1u);
}

TEST(SimtStackTest, UniformNotTakenBranch)
{
    SimtStack s;
    s.advance(); // pc = 1
    bool diverged = s.branch(0, 10, 20);
    EXPECT_FALSE(diverged);
    EXPECT_EQ(s.pc(), 2u);
}

TEST(SimtStackTest, DivergenceAndReconvergence)
{
    SimtStack s;
    // At pc 0, half the lanes take a branch to 10; reconverge at 5.
    LaneMask lower = 0x0000ffffu;
    bool diverged = s.branch(lower, 10, 5);
    EXPECT_TRUE(diverged);
    // Taken side executes first.
    EXPECT_EQ(s.pc(), 10u);
    EXPECT_EQ(s.activeMask(), lower);
    EXPECT_EQ(s.depth(), 3u);

    // Taken side runs 10..11 then jumps to the reconvergence point.
    s.jump(5);
    // Now the fall-through side resumes at 1.
    EXPECT_EQ(s.pc(), 1u);
    EXPECT_EQ(s.activeMask(), ~lower);

    // Fall-through runs to the reconvergence point.
    s.advance(); // 2
    s.advance(); // 3
    s.advance(); // 4
    s.advance(); // 5 -> pops
    EXPECT_EQ(s.pc(), 5u);
    EXPECT_EQ(s.activeMask(), fullMask);
    EXPECT_EQ(s.depth(), 1u);
}

TEST(SimtStackTest, ExitAllLanes)
{
    SimtStack s;
    s.exitLanes();
    EXPECT_TRUE(s.allExited());
    EXPECT_EQ(s.activeMask(), 0u);
}

TEST(SimtStackTest, DivergentExit)
{
    SimtStack s;
    LaneMask half = 0xffff0000u;
    s.branch(half, 10, invalidPc);
    // Taken side (upper half) exits.
    s.exitLanes();
    // Fall-through side resumes.
    EXPECT_FALSE(s.allExited());
    EXPECT_EQ(s.activeMask(), ~half);
    s.exitLanes();
    EXPECT_TRUE(s.allExited());
}

TEST(SchedulerTest, GtoSticksWithCurrentWarp)
{
    arch::GtoScheduler gto({0, 4, 8});
    std::vector<bool> all{true, true, true};
    int first = gto.pick(all);
    EXPECT_EQ(first, 0);
    EXPECT_EQ(gto.pick(all), 0);
    // When warp 0 stalls, fall to the oldest eligible.
    std::vector<bool> w0_stalled{false, true, true};
    EXPECT_EQ(gto.pick(w0_stalled), 1);
    // Greedy: stays on warp index 1 even when 0 wakes up.
    EXPECT_EQ(gto.pick(all), 1);
}

TEST(SchedulerTest, RrRotates)
{
    arch::RrScheduler rr({0, 1, 2});
    std::vector<bool> all{true, true, true};
    EXPECT_EQ(rr.pick(all), 0);
    EXPECT_EQ(rr.pick(all), 1);
    EXPECT_EQ(rr.pick(all), 2);
    EXPECT_EQ(rr.pick(all), 0);
}

TEST(SchedulerTest, TwoLevelSchedulesOnlyActivePool)
{
    arch::TwoLevelScheduler tl({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 4,
                               /*promotion_delay=*/0);
    // Warp index 9 is pending; never picked while the active 4 are
    // eligible or not.
    std::vector<bool> only9(10, false);
    only9[9] = true;
    EXPECT_EQ(tl.pick(only9), -1);
    // Demote warp 0 (id 0); 4 (index) gets promoted.
    tl.notifyLongStall(0);
    std::vector<bool> only4(10, false);
    only4[4] = true;
    EXPECT_EQ(tl.pick(only4), 4);
}

TEST(SchedulerTest, GtoSurvivesShrunkenEligibilityVector)
{
    // Regression: the greedy index sticks across calls, so a shorter
    // eligibility vector (fewer warps in the group) must not be
    // indexed at the old position.
    arch::GtoScheduler gto({0, 1, 2});
    EXPECT_EQ(gto.pick({false, false, true}), 2);
    EXPECT_EQ(gto.pick({true}), 0);
    EXPECT_EQ(gto.pick(std::vector<bool>{}), -1);
}

TEST(SchedulerTest, TwoLevelEmptyPendingDemotionIsNoOp)
{
    // Regression: with nothing pending, a demotion used to shrink the
    // active pool permanently — with one warp, to empty, after which
    // pick() returned -1 forever (scheduler starvation).
    arch::TwoLevelScheduler tl({7}, 4, /*promotion_delay=*/0);
    std::vector<bool> all{true};
    EXPECT_EQ(tl.pick(all), 0);
    tl.notifyLongStall(7);
    EXPECT_EQ(tl.activePool().size(), 1u);
    EXPECT_EQ(tl.pick(all), 0);
}

TEST(SchedulerTest, TwoLevelSurvivesDrainAndRefill)
{
    // Exercise the pending pool through full drain/refill cycles: one
    // warp pending, so every demotion drains the pool (promoting its
    // only entry) and refills it with the demoted warp. The active
    // pool must keep its size and pick() must keep issuing.
    arch::TwoLevelScheduler tl({0, 1, 2, 3, 4}, 4,
                               /*promotion_delay=*/0);
    std::vector<bool> all(5, true);
    for (unsigned round = 0; round < 20; ++round) {
        int picked = tl.pick(all);
        ASSERT_GE(picked, 0);
        tl.notifyLongStall(tl.warps()[picked]);
        ASSERT_EQ(tl.activePool().size(), 4u);
    }
    // Demoting a warp that is already pending is also a no-op.
    arch::TwoLevelScheduler tl2({0, 1}, 1, /*promotion_delay=*/0);
    tl2.notifyLongStall(1);
    EXPECT_EQ(tl2.activePool().size(), 1u);
    EXPECT_EQ(tl2.pick({true, true}), 0);
}

TEST(SchedulerTest, AllPoliciesPickOnlyEligibleWarps)
{
    // Property test over random eligibility patterns: every policy
    // either declines (-1) or returns an in-range, eligible index;
    // GTO and RR must not decline while anything is eligible, and the
    // two-level scheduler (promotion delay 0) must not decline while
    // anything *active* is eligible.
    std::mt19937 rng(2017); // fixed seed
    arch::GtoScheduler gto({0, 1, 2, 3, 4, 5, 6, 7});
    arch::TwoLevelScheduler tl({0, 1, 2, 3, 4, 5, 6, 7}, 4,
                               /*promotion_delay=*/0);
    arch::RrScheduler rr({0, 1, 2, 3, 4, 5, 6, 7});
    for (unsigned round = 0; round < 2000; ++round) {
        std::vector<bool> eligible(8);
        bool any = false;
        for (std::size_t i = 0; i < eligible.size(); ++i) {
            eligible[i] = (rng() & 3) != 0;
            any = any || eligible[i];
        }
        for (arch::WarpScheduler *sched :
             {static_cast<arch::WarpScheduler *>(&gto),
              static_cast<arch::WarpScheduler *>(&tl),
              static_cast<arch::WarpScheduler *>(&rr)}) {
            int picked = sched->pick(eligible);
            ASSERT_GE(picked, -1);
            ASSERT_LT(picked, 8);
            if (picked >= 0) {
                ASSERT_TRUE(eligible[picked]);
            }
        }
        if (any) {
            ASSERT_GE(gto.pick(eligible), 0);
            ASSERT_GE(rr.pick(eligible), 0);
        }
        bool any_active = false;
        for (unsigned idx : tl.activePool())
            any_active = any_active || eligible[idx];
        if (any_active) {
            ASSERT_GE(tl.pick(eligible), 0);
        }
        // Occasional demotions keep the pools churning.
        if ((rng() & 7) == 0)
            tl.notifyLongStall(rng() % 8);
    }
}

TEST(SchedulerTest, PolicyFromString)
{
    EXPECT_EQ(arch::schedulerPolicyFromString("gto"),
              arch::SchedulerPolicy::Gto);
    EXPECT_EQ(arch::schedulerPolicyFromString("two_level"),
              arch::SchedulerPolicy::TwoLevel);
    EXPECT_EQ(arch::schedulerPolicyFromString("rr"),
              arch::SchedulerPolicy::Rr);
}

TEST(ScoreboardTest, TracksPendingWrites)
{
    arch::Scoreboard sb(2, 8);
    ir::Instruction add(ir::Opcode::IAdd, 3, {1, 2});
    EXPECT_TRUE(sb.ready(0, add, 0));
    sb.recordWrite(0, add, 10);
    ir::Instruction use(ir::Opcode::Mov, 4, {3});
    EXPECT_FALSE(sb.ready(0, use, 5));
    EXPECT_TRUE(sb.ready(0, use, 10));
    // Other warps are unaffected.
    EXPECT_TRUE(sb.ready(1, use, 5));
    // WAW on the same destination also blocks.
    EXPECT_FALSE(sb.ready(0, add, 5));
}

/** Run a kernel on one SM with the baseline RF; return cycles. */
struct SmRun
{
    explicit SmRun(ir::Kernel k, SmConfig cfg = SmConfig())
        : ck(compiler::compile(k)),
          mem(),
          rf(),
          sm(ck, mem, rf, cfg)
    {
    }
    compiler::CompiledKernel ck;
    mem::MemorySystem mem;
    regfile::BaselineRf rf;
    Sm sm;
};

TEST(SmTest, StraightLineKernelCompletes)
{
    KernelBuilder b("straight");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId x = b.iaddi(t, 100);
    b.st(x, addr);
    SmRun run(b.build());
    Cycle cycles = run.sm.run();
    EXPECT_GT(cycles, 0u);
    EXPECT_TRUE(run.sm.done());
    // 64 warps x 5 instructions (incl. exit).
    EXPECT_EQ(run.sm.totalInsns(), 64u * 5u);
}

TEST(SmTest, StoreWritesExpectedValues)
{
    KernelBuilder b("stores");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId x = b.iaddi(t, 100);
    b.st(x, addr);
    SmRun run(b.build());
    run.sm.run();
    // Thread i stored i + 100 at kDataBase + 4 * i.
    for (unsigned i = 0; i < 64; ++i) {
        Addr a = arch::kDataBase + 4 * i;
        EXPECT_EQ(run.mem.readWord(a), i + 100) << "thread " << i;
    }
}

TEST(SmTest, DivergentKernelReconverges)
{
    // Lanes with tid % 2 take one path; both paths store; all lanes
    // then store a sentinel after reconvergence.
    KernelBuilder b("diverge");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId one = b.movi(1);
    RegId bit = b.band(t, one);
    Label odd = b.newLabel();
    Label join = b.newLabel();
    b.braIf(bit, odd);
    b.st(b.movi(1000), addr);
    b.jmp(join);
    b.bind(odd);
    b.st(b.movi(2000), addr);
    b.bind(join);
    b.st(b.iaddi(t, 5000), addr, 16384);
    SmRun run(b.build());
    run.sm.run();
    for (unsigned i = 0; i < 64; ++i) {
        Addr a = arch::kDataBase + 4 * i;
        EXPECT_EQ(run.mem.readWord(a), i % 2 ? 2000u : 1000u);
        EXPECT_EQ(run.mem.readWord(a + 16384), 5000 + i);
    }
    EXPECT_GT(run.sm.stats().divergentBranches, 0u);
}

TEST(SmTest, LoopKernelComputesSum)
{
    // acc = sum(0..9) + tid, stored per thread.
    KernelBuilder b("loopsum");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId i = b.reg();
    RegId acc = b.reg();
    b.moviTo(i, 0);
    b.movTo(acc, t);
    RegId limit = b.movi(10);
    Label head = b.newLabel();
    b.bind(head);
    b.iaddTo(acc, acc, i);
    b.iaddiTo(i, i, 1);
    RegId p = b.setLt(i, limit);
    b.braIf(p, head);
    b.st(acc, addr);
    SmRun run(b.build());
    run.sm.run();
    for (unsigned tid = 0; tid < 64; ++tid) {
        Addr a = arch::kDataBase + 4 * tid;
        EXPECT_EQ(run.mem.readWord(a), 45u + tid);
    }
}

TEST(SmTest, LoadUseRoundTrip)
{
    // Store then reload through global memory.
    KernelBuilder b("roundtrip");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    b.st(b.imuli(t, 3), addr);
    b.bar();
    RegId v = b.ld(addr);
    b.st(b.iaddi(v, 1), addr, 16384);
    SmRun run(b.build());
    run.sm.run();
    for (unsigned tid = 0; tid < 64; ++tid) {
        Addr a = arch::kDataBase + 4 * tid + 16384;
        EXPECT_EQ(run.mem.readWord(a), 3 * tid + 1);
    }
}

TEST(SmTest, BarrierSynchronisesBlock)
{
    // Producer/consumer within a block through shared memory.
    KernelBuilder b("barrier");
    b.setWarpsPerBlock(4);
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    b.sts(b.iaddi(t, 7), addr);
    b.bar();
    RegId v = b.lds(addr);
    b.st(v, addr);
    SmRun run(b.build());
    run.sm.run();
    for (unsigned tid = 0; tid < 64; ++tid) {
        Addr a = arch::kDataBase + 4 * tid;
        EXPECT_EQ(run.mem.readWord(a), tid + 7);
    }
}

TEST(SmTest, MemoryLatencyShowsInRuntime)
{
    // A dependent chain of loads is much slower than pure ALU work.
    KernelBuilder alu_b("alu");
    RegId t = alu_b.tid();
    RegId x = t;
    for (int i = 0; i < 16; ++i)
        x = alu_b.iaddi(x, 1);
    alu_b.st(x, alu_b.imuli(t, 4));

    KernelBuilder mem_b("mem");
    RegId t2 = mem_b.tid();
    RegId a2 = mem_b.imuli(t2, 4);
    RegId v = mem_b.ld(a2);
    for (int i = 0; i < 7; ++i) {
        RegId next = mem_b.band(v, mem_b.movi(0xffff));
        v = mem_b.ld(mem_b.imuli(next, 4), 128 * i);
    }
    mem_b.st(v, a2);

    SmRun alu_run(alu_b.build());
    SmRun mem_run(mem_b.build());
    Cycle alu_cycles = alu_run.sm.run();
    Cycle mem_cycles = mem_run.sm.run();
    EXPECT_GT(mem_cycles, alu_cycles);
}

TEST(SmTest, TwoLevelSchedulerAlsoCompletes)
{
    KernelBuilder b("tl");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId v = b.ld(addr);
    b.st(b.iaddi(v, 1), addr, 16384);
    SmConfig cfg;
    cfg.scheduler = arch::SchedulerPolicy::TwoLevel;
    SmRun run(b.build(), cfg);
    run.sm.run();
    EXPECT_TRUE(run.sm.done());
}

TEST(SmTest, WorkingSetTrackedByBaselineRf)
{
    KernelBuilder b("ws");
    RegId t = b.tid();
    RegId x = b.iaddi(t, 1);
    b.st(x, b.imuli(t, 4));
    SmRun run(b.build());
    run.sm.run();
    EXPECT_GT(run.rf.meanWorkingSetBytes(), 0.0);
    EXPECT_GT(run.rf.stats().reads, 0u);
    EXPECT_GT(run.rf.stats().writes, 0u);
}

} // namespace
} // namespace regless
