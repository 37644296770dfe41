/**
 * @file
 * RegLess hardware tests: OSU line management, compressor pattern
 * matching and caching, capacity-manager state machine, and full SM
 * runs where RegLess must produce exactly the same memory contents as
 * the baseline register file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "arch/sm.hh"
#include "compiler/compiler.hh"
#include "mem/memory_system.hh"
#include "regfile/baseline_rf.hh"
#include "regless/compressor.hh"
#include "regless/operand_staging_unit.hh"
#include "regless/regless_provider.hh"
#include "workloads/kernel_builder.hh"

namespace regless
{
namespace
{

using arch::Sm;
using arch::SmConfig;
using staging::Compressor;
using staging::CompressorConfig;
using staging::OperandStagingUnit;
using staging::ReglessConfig;
using staging::ReglessProvider;
using workloads::KernelBuilder;
using workloads::Label;

ir::LaneValues
lanes(std::uint32_t base, std::uint32_t stride)
{
    ir::LaneValues v{};
    for (unsigned i = 0; i < warpSize; ++i)
        v[i] = base + i * stride;
    return v;
}

TEST(OsuTest, BankMappingRotatesByWarp)
{
    EXPECT_EQ(OperandStagingUnit::bankOf(0, 0), 0u);
    EXPECT_EQ(OperandStagingUnit::bankOf(0, 5), 5u);
    EXPECT_EQ(OperandStagingUnit::bankOf(3, 5), 0u);
    EXPECT_EQ(OperandStagingUnit::bankOf(9, 7), 0u);
}

TEST(OsuTest, AllocateErasesFreesLines)
{
    OperandStagingUnit osu("t", 64, staging::VictimOrder::FreeCleanDirty);
    EXPECT_EQ(osu.linesPerBank(), 8u);
    auto rec = osu.allocate(0, 0, false);
    EXPECT_FALSE(rec.needed);
    EXPECT_TRUE(osu.present(0, 0));
    EXPECT_FALSE(osu.presentEvictable(0, 0));
    EXPECT_EQ(osu.bankCounts(0).owned, 1u);
    EXPECT_EQ(osu.bankCounts(0).free, 7u);
    osu.erase(0, 0);
    EXPECT_FALSE(osu.present(0, 0));
    EXPECT_EQ(osu.bankCounts(0).free, 8u);
    EXPECT_EQ(osu.occupiedLines(), 0u);
}

TEST(OsuTest, EvictableAndClaim)
{
    OperandStagingUnit osu("t", 64, staging::VictimOrder::FreeCleanDirty);
    osu.allocate(0, 0, false);
    osu.markEvictable(0, 0);
    EXPECT_TRUE(osu.presentEvictable(0, 0));
    EXPECT_EQ(osu.bankCounts(0).clean, 1u);
    osu.claim(0, 0);
    EXPECT_EQ(osu.bankCounts(0).owned, 1u);
    EXPECT_EQ(osu.bankCounts(0).clean, 0u);
}

TEST(OsuTest, DirtyTrackingFollowsWrites)
{
    OperandStagingUnit osu("t", 64, staging::VictimOrder::FreeCleanDirty);
    osu.allocate(0, 0, false);
    EXPECT_FALSE(osu.isDirty(0, 0));
    osu.recordWrite(0, 0);
    EXPECT_TRUE(osu.isDirty(0, 0));
    osu.markEvictable(0, 0);
    EXPECT_EQ(osu.bankCounts(0).dirty, 1u);
}

TEST(OsuTest, ReclaimPrefersCleanOverDirty)
{
    // 8 lines per bank; fill bank 0 with 4 dirty + 4 clean evictable,
    // then allocate: the clean LRU line must be the victim.
    OperandStagingUnit osu("t", 64, staging::VictimOrder::FreeCleanDirty);
    for (unsigned i = 0; i < 8; ++i) {
        RegId reg = static_cast<RegId>(i * 8); // all map to bank 0
        osu.allocate(0, reg, /*dirty=*/i < 4);
        osu.markEvictable(0, reg);
    }
    EXPECT_EQ(osu.bankCounts(0).free, 0u);
    auto rec = osu.allocate(0, 200, false); // reg 200 % 8 == 0
    EXPECT_TRUE(rec.needed);
    EXPECT_FALSE(rec.writeback); // clean victim, no write-back
    // The victim was the LRU clean entry (reg 32).
    EXPECT_EQ(rec.victimReg, 32);
}

TEST(OsuTest, ReclaimFallsBackToDirty)
{
    OperandStagingUnit osu("t", 64, staging::VictimOrder::FreeCleanDirty);
    for (unsigned i = 0; i < 8; ++i) {
        RegId reg = static_cast<RegId>(i * 8);
        osu.allocate(0, reg, /*dirty=*/true);
        osu.markEvictable(0, reg);
    }
    auto rec = osu.allocate(0, 200, false);
    EXPECT_TRUE(rec.needed);
    EXPECT_TRUE(rec.writeback);
    EXPECT_EQ(rec.victimReg, 0); // LRU dirty
}

TEST(OsuTest, DirtyFirstAblationOrder)
{
    OperandStagingUnit osu("t", 64, staging::VictimOrder::DirtyFirst);
    for (unsigned i = 0; i < 8; ++i) {
        RegId reg = static_cast<RegId>(i * 8);
        osu.allocate(0, reg, /*dirty=*/i < 4);
        osu.markEvictable(0, reg);
    }
    auto rec = osu.allocate(0, 200, false);
    EXPECT_TRUE(rec.needed);
    EXPECT_TRUE(rec.writeback); // dirty victim preferred
}

TEST(OsuTest, DropWarpReleasesEverything)
{
    OperandStagingUnit osu("t", 64, staging::VictimOrder::FreeCleanDirty);
    osu.allocate(3, 1, true);
    osu.allocate(3, 2, false);
    osu.allocate(4, 1, false);
    osu.dropWarp(3);
    EXPECT_FALSE(osu.present(3, 1));
    EXPECT_FALSE(osu.present(3, 2));
    EXPECT_TRUE(osu.present(4, 1));
    EXPECT_EQ(osu.occupiedLines(), 1u);
}

TEST(OsuTest, InvariantsHoldUnderRandomInterleavings)
{
    // Structural invariants after any interleaving of the public
    // mutators: in every bank owned + clean + dirty + free equals
    // linesPerBank(), the cached per-bank counts match a recount of
    // the actual entries, and occupiedLines() matches their sum.
    OperandStagingUnit osu("t", 64, staging::VictimOrder::FreeCleanDirty);
    auto check = [&] {
        unsigned occupied = 0;
        for (unsigned b = 0; b < staging::osuBanks; ++b) {
            auto counts = osu.bankCounts(b);
            ASSERT_EQ(counts.owned + counts.clean + counts.dirty +
                          counts.free,
                      osu.linesPerBank());
            OperandStagingUnit::BankCounts recount;
            for (const auto &entry : osu.bankEntries(b)) {
                switch (entry.state) {
                  case staging::LineState::Owned:
                    ++recount.owned;
                    break;
                  case staging::LineState::EvictClean:
                    ++recount.clean;
                    break;
                  case staging::LineState::EvictDirty:
                    ++recount.dirty;
                    break;
                }
            }
            ASSERT_EQ(recount.owned, counts.owned);
            ASSERT_EQ(recount.clean, counts.clean);
            ASSERT_EQ(recount.dirty, counts.dirty);
            occupied += counts.owned + counts.clean + counts.dirty;
        }
        ASSERT_EQ(occupied, osu.occupiedLines());
    };

    std::mt19937 rng(97);
    std::vector<std::pair<WarpId, RegId>> resident;
    auto drop = [&](WarpId warp, RegId reg) {
        for (auto it = resident.begin(); it != resident.end(); ++it) {
            if (it->first == warp && it->second == reg) {
                resident.erase(it);
                return;
            }
        }
    };
    for (unsigned step = 0; step < 5000; ++step) {
        unsigned op = rng() % 8;
        if (op <= 2 || resident.empty()) { // bias toward filling up
            WarpId w = rng() % 8;
            RegId r = static_cast<RegId>(rng() % 64);
            auto counts =
                osu.bankCounts(OperandStagingUnit::bankOf(w, r));
            // A bank full of owned lines is the capacity manager's
            // over-commit panic, not an OSU state; skip.
            if (osu.present(w, r) ||
                counts.owned == osu.linesPerBank())
                continue;
            auto rec = osu.allocate(w, r, (rng() & 1) != 0);
            if (rec.needed)
                drop(rec.victimWarp, rec.victimReg);
            resident.emplace_back(w, r);
        } else if (op == 3) {
            auto [w, r] = resident[rng() % resident.size()];
            osu.erase(w, r);
            drop(w, r);
        } else if (op == 4) {
            auto [w, r] = resident[rng() % resident.size()];
            osu.markEvictable(w, r);
        } else if (op == 5) {
            auto [w, r] = resident[rng() % resident.size()];
            osu.claim(w, r);
        } else if (op == 6) {
            auto [w, r] = resident[rng() % resident.size()];
            osu.recordWrite(w, r);
        } else {
            WarpId w = rng() % 8;
            osu.dropWarp(w);
            resident.erase(
                std::remove_if(resident.begin(), resident.end(),
                               [w](const auto &e) {
                                   return e.first == w;
                               }),
                resident.end());
        }
        check();
    }
}

TEST(CompressorTest, PatternMatching)
{
    EXPECT_EQ(Compressor::matchPattern(lanes(42, 0)),
              staging::Pattern::Constant);
    EXPECT_EQ(Compressor::matchPattern(lanes(100, 1)),
              staging::Pattern::Stride1);
    EXPECT_EQ(Compressor::matchPattern(lanes(0, 4)),
              staging::Pattern::Stride4);

    ir::LaneValues half{};
    for (unsigned i = 0; i < 16; ++i)
        half[i] = 10 + i;
    for (unsigned i = 16; i < 32; ++i)
        half[i] = 900 + (i - 16);
    EXPECT_EQ(Compressor::matchPattern(half),
              staging::Pattern::HalfStride1);

    ir::LaneValues half4{};
    for (unsigned i = 0; i < 16; ++i)
        half4[i] = 4 * i;
    for (unsigned i = 16; i < 32; ++i)
        half4[i] = 7777 + 4 * (i - 16);
    EXPECT_EQ(Compressor::matchPattern(half4),
              staging::Pattern::HalfStride4);

    ir::LaneValues random{};
    for (unsigned i = 0; i < 32; ++i)
        random[i] = i * i * 2654435761u;
    EXPECT_EQ(Compressor::matchPattern(random), staging::Pattern::None);
}

TEST(CompressorTest, EvictAndPreloadThroughCache)
{
    mem::MemorySystem mem;
    CompressorConfig cfg;
    Compressor comp("c", cfg, mem, 0x6000'0000, 64);

    EXPECT_FALSE(comp.isCompressed(1, 2));
    EXPECT_TRUE(comp.compressEvict(1, 2, lanes(5, 0), 0).compressed);
    EXPECT_TRUE(comp.isCompressed(1, 2));

    auto res = comp.preload(1, 2, 10);
    EXPECT_TRUE(res.accepted);
    EXPECT_TRUE(res.wasCompressed);
    EXPECT_TRUE(res.cacheHit);
    EXPECT_EQ(res.ready, 10 + cfg.checkLatency + cfg.hitLatency);
}

TEST(CompressorTest, MissPathChargesCheckLatency)
{
    // Regression: the cache-miss path used to omit checkLatency, so a
    // miss could come back *cheaper* than a hit. The bit-vector check
    // happens on every preload; raising checkLatency by d must shift
    // every path — including the miss — by exactly d.
    auto missReady = [](unsigned check_latency) {
        mem::MemorySystem mem;
        CompressorConfig cfg;
        cfg.cacheLines = 1;
        cfg.checkLatency = check_latency;
        Compressor comp("c", cfg, mem, 0x6000'0000, 64);
        // Registers >= 32 apart land in distinct compressed lines, so
        // the second evict displaces the first from the 1-line cache.
        comp.compressEvict(0, 0, lanes(1, 0), 0);
        comp.compressEvict(0, 64, lanes(2, 0), 0);
        auto res = comp.preload(0, 0, 100);
        EXPECT_TRUE(res.accepted);
        EXPECT_TRUE(res.wasCompressed);
        EXPECT_FALSE(res.cacheHit);
        return res.ready;
    };
    const unsigned delta = 7;
    EXPECT_EQ(missReady(2 + delta), missReady(2) + delta);
}

TEST(CompressorTest, PreloadLatencyOrdering)
{
    // With one cache line, stage a hit (resident line), a miss
    // (displaced line), and a not-compressed register, all probed at
    // the same cycle: not-compressed <= hit <= miss must hold.
    mem::MemorySystem mem;
    CompressorConfig cfg;
    cfg.cacheLines = 1;
    Compressor comp("c", cfg, mem, 0x6000'0000, 64);
    comp.compressEvict(0, 0, lanes(1, 0), 0);
    comp.compressEvict(0, 64, lanes(2, 0), 0);

    auto not_compressed = comp.preload(0, 128, 100);
    auto hit = comp.preload(0, 64, 100);
    auto miss = comp.preload(0, 0, 100);
    ASSERT_TRUE(not_compressed.accepted);
    ASSERT_FALSE(not_compressed.wasCompressed);
    ASSERT_TRUE(hit.accepted);
    ASSERT_TRUE(hit.cacheHit);
    ASSERT_TRUE(miss.accepted);
    ASSERT_FALSE(miss.cacheHit);
    EXPECT_EQ(not_compressed.ready, 100 + cfg.checkLatency);
    EXPECT_LE(not_compressed.ready, hit.ready);
    EXPECT_LE(hit.ready, miss.ready);
}

TEST(CompressorTest, IncompressibleValueRejected)
{
    mem::MemorySystem mem;
    Compressor comp("c", CompressorConfig{}, mem, 0x6000'0000, 64);
    ir::LaneValues random{};
    for (unsigned i = 0; i < 32; ++i)
        random[i] = i * 2654435761u + (i % 3);
    EXPECT_FALSE(comp.compressEvict(0, 0, random, 0).compressed);
    EXPECT_FALSE(comp.isCompressed(0, 0));
    auto res = comp.preload(0, 0, 5);
    EXPECT_FALSE(res.wasCompressed);
}

TEST(CompressorTest, InvalidateClearsBitVector)
{
    mem::MemorySystem mem;
    Compressor comp("c", CompressorConfig{}, mem, 0x6000'0000, 64);
    comp.compressEvict(0, 3, lanes(9, 1), 0);
    EXPECT_TRUE(comp.isCompressed(0, 3));
    comp.invalidate(0, 3);
    EXPECT_FALSE(comp.isCompressed(0, 3));
}

TEST(CompressorTest, CacheOverflowFlushesDirtyLines)
{
    mem::MemorySystem mem;
    CompressorConfig cfg;
    cfg.cacheLines = 2;
    Compressor comp("c", cfg, mem, 0x6000'0000, 64);
    // Registers far apart land in distinct compressed lines.
    for (RegId r = 0; r < 6; ++r)
        comp.compressEvict(0, static_cast<RegId>(r * 32), lanes(r, 0), 0);
    // Drain the flush queue.
    for (Cycle t = 100; t < 200; ++t)
        comp.tick(t);
    EXPECT_GT(comp.stats().value("line_flushes"), 0u);
}

/** Harness running one kernel under RegLess. */
struct ReglessRun
{
    explicit ReglessRun(ir::Kernel k, ReglessConfig rcfg = ReglessConfig(),
                        SmConfig scfg = SmConfig(),
                        compiler::CompilerConfig ccfg =
                            compiler::CompilerConfig())
        : ck(compiler::compile(k, ccfg)),
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
    Sm sm;
};

/** Same kernel under the baseline RF, for output comparison. */
struct BaselineRun
{
    explicit BaselineRun(ir::Kernel k)
        : ck(compiler::compile(k)), mem(), rf(), sm(ck, mem, rf, {})
    {
    }
    compiler::CompiledKernel ck;
    mem::MemorySystem mem;
    regfile::BaselineRf rf;
    Sm sm;
};

ir::Kernel
computeKernel()
{
    KernelBuilder b("compute");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId x = b.iaddi(t, 3);
    RegId y = b.imul(x, x);
    RegId z = b.iadd(y, t);
    b.st(z, addr);
    return b.build();
}

ir::Kernel
loadChainKernel()
{
    KernelBuilder b("chain");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    b.st(b.imuli(t, 5), addr);
    b.bar();
    RegId v = b.ld(addr);
    RegId w = b.iaddi(v, 11);
    b.st(w, addr, 65536);
    return b.build();
}

ir::Kernel
divergedLoopKernel()
{
    KernelBuilder b("divloop");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId i = b.reg();
    RegId acc = b.reg();
    b.moviTo(i, 0);
    b.movTo(acc, t);
    // Trip count diverges with tid: (t % 4) + 2 iterations.
    RegId trips = b.iaddi(b.band(t, b.movi(3)), 2);
    Label head = b.newLabel();
    b.bind(head);
    b.iaddTo(acc, acc, i);
    b.iaddiTo(i, i, 1);
    RegId p = b.setLt(i, trips);
    b.braIf(p, head);
    b.st(acc, addr);
    return b.build();
}

TEST(ReglessEndToEnd, ComputeKernelMatchesBaseline)
{
    ReglessRun rl(computeKernel());
    BaselineRun base(computeKernel());
    rl.sm.run();
    base.sm.run();
    SmConfig cfg;
    for (unsigned tid = 0; tid < 2048; tid += 37) {
        Addr a = cfg.dataBase + 4 * tid;
        EXPECT_EQ(rl.mem.readWord(a), base.mem.readWord(a))
            << "tid " << tid;
    }
}

TEST(ReglessEndToEnd, LoadChainMatchesBaseline)
{
    ReglessRun rl(loadChainKernel());
    BaselineRun base(loadChainKernel());
    rl.sm.run();
    base.sm.run();
    SmConfig cfg;
    for (unsigned tid = 0; tid < 2048; tid += 53) {
        Addr a = cfg.dataBase + 4 * tid + 65536;
        EXPECT_EQ(rl.mem.readWord(a), 5 * tid + 11) << "tid " << tid;
        EXPECT_EQ(base.mem.readWord(a), 5 * tid + 11) << "tid " << tid;
    }
}

TEST(ReglessEndToEnd, DivergedLoopMatchesBaseline)
{
    ReglessRun rl(divergedLoopKernel());
    BaselineRun base(divergedLoopKernel());
    rl.sm.run();
    base.sm.run();
    SmConfig cfg;
    for (unsigned tid = 0; tid < 2048; tid += 41) {
        Addr a = cfg.dataBase + 4 * tid;
        unsigned trips = (tid & 3) + 2;
        unsigned expect = tid + trips * (trips - 1) / 2;
        EXPECT_EQ(rl.mem.readWord(a), expect) << "tid " << tid;
        EXPECT_EQ(base.mem.readWord(a), expect) << "tid " << tid;
    }
}

TEST(ReglessEndToEnd, PreloadsAreCounted)
{
    ReglessRun rl(loadChainKernel());
    rl.sm.run();
    std::uint64_t from_osu = rl.provider.cmCounter("preload_src_osu");
    std::uint64_t from_l1 = rl.provider.cmCounter("preload_src_l1");
    std::uint64_t from_comp =
        rl.provider.cmCounter("preload_src_compressor");
    std::uint64_t from_far =
        rl.provider.cmCounter("preload_src_l2dram");
    // The chain kernel crosses region boundaries (load/use split), so
    // preloads must happen, and most should hit in the OSU.
    EXPECT_GT(from_osu + from_l1 + from_comp + from_far, 0u);
    EXPECT_GT(from_osu, from_l1 + from_far);
}

TEST(ReglessEndToEnd, ActivationsAndRegionStats)
{
    ReglessRun rl(computeKernel());
    rl.sm.run();
    EXPECT_GT(rl.provider.cmCounter("activations"), 0u);
    EXPECT_GT(rl.provider.meanRegionInsns(), 0.0);
    EXPECT_GT(rl.provider.meanRegionLive(), 0.0);
    const StatGroup &osu = rl.provider.osu(0).stats();
    EXPECT_GT(osu.value("reads") + osu.value("writes"), 0u);
}

TEST(ReglessEndToEnd, TinyOsuStillCorrect)
{
    // 64 entries per SM = 2 lines per bank per shard: extreme pressure
    // forces constant eviction traffic but must stay correct.
    ReglessConfig rcfg;
    rcfg.osuEntriesPerSm = 64;
    compiler::CompilerConfig ccfg;
    ccfg.maxRegsPerRegion = 4;
    ccfg.maxRegsPerBank = 2;
    ReglessRun rl(computeKernel(), rcfg, SmConfig(), ccfg);
    BaselineRun base(computeKernel());
    rl.sm.run();
    base.sm.run();
    SmConfig cfg;
    for (unsigned tid = 0; tid < 2048; tid += 97) {
        Addr a = cfg.dataBase + 4 * tid;
        EXPECT_EQ(rl.mem.readWord(a), base.mem.readWord(a));
    }
}

TEST(ReglessEndToEnd, NoCompressorStillCorrect)
{
    ReglessConfig rcfg;
    rcfg.compressorEnabled = false;
    ReglessRun rl(loadChainKernel(), rcfg);
    rl.sm.run();
    SmConfig cfg;
    for (unsigned tid = 0; tid < 2048; tid += 101) {
        Addr a = cfg.dataBase + 4 * tid + 65536;
        EXPECT_EQ(rl.mem.readWord(a), 5 * tid + 11);
    }
}

TEST(ReglessEndToEnd, FifoActivationAblationCompletes)
{
    ReglessConfig rcfg;
    rcfg.fifoActivation = true;
    ReglessRun rl(divergedLoopKernel(), rcfg);
    rl.sm.run();
    EXPECT_TRUE(rl.sm.done());
}

} // namespace
} // namespace regless
