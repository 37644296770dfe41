/**
 * @file
 * Memory-system tests: cache tag/LRU/dirty behaviour, MSHR merging and
 * rejection, DRAM channel bandwidth, the L1 single-port rule, the
 * register-line write-back policy, and functional word storage.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory_system.hh"

namespace regless
{
namespace
{

using mem::Cache;
using mem::CacheConfig;
using mem::CacheResult;
using mem::DramConfig;
using mem::DramModel;
using mem::MemAccessResult;
using mem::MemConfig;
using mem::MemorySystem;
using mem::MemSource;
using mem::MemSpace;

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024; // 32 lines
    cfg.ways = 4;
    cfg.mshrs = 4;
    return cfg;
}

TEST(CacheTest, LineAlignment)
{
    EXPECT_EQ(mem::lineAddr(0), 0u);
    EXPECT_EQ(mem::lineAddr(127), 0u);
    EXPECT_EQ(mem::lineAddr(128), 128u);
    EXPECT_EQ(mem::lineAddr(0x12345), 0x12345u & ~127u);
}

TEST(CacheTest, MissThenHit)
{
    Cache cache(smallCache());
    CacheResult first = cache.access(0x1000, false, false, 0);
    EXPECT_FALSE(first.hit);
    CacheResult second = cache.access(0x1000, false, false, 10);
    EXPECT_TRUE(second.hit);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, SameLineDifferentWordsHit)
{
    Cache cache(smallCache());
    cache.access(0x1000, false, false, 0);
    EXPECT_TRUE(cache.access(0x1004, false, false, 1).hit);
    EXPECT_TRUE(cache.access(0x107c, false, false, 2).hit);
    EXPECT_FALSE(cache.access(0x1080, false, false, 3).hit);
}

TEST(CacheTest, LruEviction)
{
    // 8 sets x 4 ways; fill one set with 5 lines.
    Cache cache(smallCache());
    unsigned sets = cache.numSets();
    for (unsigned i = 0; i < 5; ++i)
        cache.access(0x1000 + i * sets * 128, false, false, i);
    // The first line was LRU and must be gone.
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_TRUE(cache.contains(0x1000 + 4 * sets * 128));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheTest, DirtyVictimReportsWriteback)
{
    Cache cache(smallCache());
    unsigned sets = cache.numSets();
    // Dirty register line.
    cache.access(0x1000, true, true, 0);
    // Evict it with 4 more lines in the same set.
    CacheResult last;
    for (unsigned i = 1; i <= 4; ++i)
        last = cache.access(0x1000 + i * sets * 128, false, false, i);
    EXPECT_TRUE(last.writeback);
    EXPECT_EQ(last.writebackAddr, 0x1000u & ~127u);
}

TEST(CacheTest, WriteNoAllocatePassesThrough)
{
    Cache cache(smallCache());
    CacheResult r = cache.access(0x2000, true, false, 0);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(cache.contains(0x2000));
}

TEST(CacheTest, RegisterWriteAllocatesWithoutMshr)
{
    CacheConfig cfg = smallCache();
    cfg.mshrs = 1;
    Cache cache(cfg);
    // Exhaust the single MSHR with an outstanding read miss.
    cache.access(0x3000, false, false, 0);
    cache.fillComplete(0x3000, 1000);
    // A register write-allocate miss must still succeed.
    CacheResult w = cache.access(0x4000, true, true, 1);
    EXPECT_FALSE(w.rejected);
    EXPECT_TRUE(cache.contains(0x4000));
    // A read miss, however, is rejected while the MSHR is busy.
    CacheResult r = cache.access(0x5000, false, false, 2);
    EXPECT_TRUE(r.rejected);
}

TEST(CacheTest, MshrMergeOnOutstandingFill)
{
    Cache cache(smallCache());
    cache.access(0x6000, false, false, 0);
    cache.fillComplete(0x6000, 500);
    CacheResult merged = cache.access(0x6000, false, false, 10);
    EXPECT_TRUE(merged.hit);
    EXPECT_TRUE(merged.mshrMerged);
    EXPECT_EQ(cache.outstandingReady(0x6000), 500u);
    // After the fill lands, plain hits.
    CacheResult later = cache.access(0x6000, false, false, 600);
    EXPECT_TRUE(later.hit);
    EXPECT_FALSE(later.mshrMerged);
}

TEST(CacheTest, MshrBoundIsTheEarliestFill)
{
    // expireMshrs skips its walk while now is below a lower bound on
    // the outstanding fills. A bound that the later fill overwrote
    // (100 instead of 50) would keep A's MSHR busy at cycle 60.
    CacheConfig cfg = smallCache();
    cfg.mshrs = 2;
    Cache cache(cfg);
    cache.access(0x1000, false, false, 0);
    cache.fillComplete(0x1000, 50);
    cache.access(0x2000, false, false, 0);
    cache.fillComplete(0x2000, 100);
    CacheResult c = cache.access(0x3000, false, false, 60);
    EXPECT_FALSE(c.rejected);
    cache.fillComplete(0x3000, 160);
    // B and C still hold both MSHRs.
    CacheResult d = cache.access(0x4000, false, false, 60);
    EXPECT_TRUE(d.rejected);
    EXPECT_EQ(cache.mshrsInUse(60), 2u);
    EXPECT_EQ(cache.mshrsInUse(100), 1u);
}

TEST(CacheTest, RefillOfAnOutstandingLineKeepsOneMshr)
{
    // A second fill of a line still outstanding moves its ready cycle;
    // it never takes a second MSHR.
    CacheConfig cfg = smallCache();
    cfg.mshrs = 2;
    Cache cache(cfg);
    cache.access(0x1000, false, false, 0);
    cache.fillComplete(0x1000, 100);
    cache.fillComplete(0x1000, 200);
    EXPECT_EQ(cache.outstandingReady(0x1000), 200u);
    EXPECT_EQ(cache.mshrsInUse(10), 1u);
    EXPECT_TRUE(cache.missOutstanding(0x1000, 150));
    CacheResult other = cache.access(0x2000, false, false, 10);
    EXPECT_FALSE(other.rejected);
}

TEST(CacheTest, FillsPastTheMshrCountStayTracked)
{
    // fillComplete has no cap (the L2 write-miss path registers fills
    // beyond the MSHR count); every such fill counts until it expires,
    // and read misses are rejected while the count is at the limit.
    CacheConfig cfg = smallCache();
    cfg.mshrs = 2;
    Cache cache(cfg);
    cache.fillComplete(0x1000, 100);
    cache.fillComplete(0x2000, 200);
    cache.fillComplete(0x3000, 300);
    cache.fillComplete(0x4000, 400);
    EXPECT_EQ(cache.mshrsInUse(0), 4u);
    EXPECT_TRUE(cache.access(0x5000, false, false, 50).rejected);
    EXPECT_TRUE(cache.access(0x5000, false, false, 150).rejected);
    EXPECT_EQ(cache.mshrsInUse(150), 3u);
    EXPECT_TRUE(cache.access(0x5000, false, false, 250).rejected);
    EXPECT_EQ(cache.mshrsInUse(250), 2u);
    EXPECT_FALSE(cache.access(0x5000, false, false, 350).rejected);
    EXPECT_EQ(cache.mshrsInUse(350), 1u);
    EXPECT_EQ(cache.stats().mshrRejects, 3u);
}

TEST(CacheTest, InvalidateDropsLine)
{
    Cache cache(smallCache());
    cache.access(0x7000, false, false, 0);
    EXPECT_TRUE(cache.invalidate(0x7000));
    EXPECT_FALSE(cache.contains(0x7000));
    EXPECT_FALSE(cache.invalidate(0x7000));
}

TEST(DramTest, LatencyAndBandwidth)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.cyclesPerLine = 4.0;
    cfg.accessLatency = 100;
    cfg.bandwidthShare = 1.0;
    DramModel dram(cfg);
    Cycle first = dram.access(0, 0);
    EXPECT_EQ(first, 100u);
    // Back-to-back transfers on one channel serialise.
    Cycle second = dram.access(128, 0);
    EXPECT_EQ(second, 104u);
    Cycle third = dram.access(256, 0);
    EXPECT_EQ(third, 108u);
}

TEST(DramTest, ChannelInterleavingParallelises)
{
    DramConfig cfg;
    cfg.channels = 4;
    cfg.cyclesPerLine = 4.0;
    cfg.accessLatency = 100;
    cfg.bandwidthShare = 1.0;
    DramModel dram(cfg);
    // Four consecutive lines hit four different channels.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(dram.access(i * 128, 0), 100u);
}

TEST(DramTest, BandwidthShareSlowsChannel)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.cyclesPerLine = 2.0;
    cfg.accessLatency = 0;
    cfg.bandwidthShare = 0.25;
    DramModel dram(cfg);
    dram.access(0, 0);
    // Effective cost per line is 2 / 0.25 = 8 cycles.
    EXPECT_EQ(dram.access(128, 0), 8u);
}

TEST(MemorySystemTest, L1PortSerialises)
{
    MemorySystem mem;
    EXPECT_TRUE(mem.l1PortFree(0));
    mem.access(0x100, false, MemSpace::Register, 0);
    EXPECT_FALSE(mem.l1PortFree(0));
    EXPECT_TRUE(mem.l1PortFree(1));
    MemAccessResult rejected =
        mem.access(0x200, false, MemSpace::Register, 0);
    EXPECT_FALSE(rejected.accepted);
}

TEST(MemorySystemTest, DataBypassSkipsL1)
{
    MemorySystem mem;
    mem.access(0x100, false, MemSpace::Data, 0);
    EXPECT_FALSE(mem.l1().contains(0x100));
    // The L2 saw it.
    EXPECT_GT(mem.l2().stats().misses, 0u);
}

TEST(MemorySystemTest, RegisterLinesCacheInL1)
{
    MemorySystem mem;
    MemAccessResult miss = mem.access(0x100, false, MemSpace::Register, 0);
    EXPECT_TRUE(miss.accepted);
    EXPECT_NE(miss.source, MemSource::L1);
    // Wait out the fill, then hit.
    Cycle later = miss.readyCycle + 1;
    MemAccessResult hit =
        mem.access(0x100, false, MemSpace::Register, later);
    EXPECT_EQ(hit.source, MemSource::L1);
    EXPECT_EQ(hit.readyCycle, later + regless::mem::kL1Latency);
}

TEST(MemorySystemTest, RegisterWriteAllocatesWithoutFetch)
{
    MemorySystem mem;
    std::uint64_t dram_before = mem.dram().stats().accesses;
    MemAccessResult w = mem.access(0x300, true, MemSpace::Register, 0);
    EXPECT_TRUE(w.accepted);
    EXPECT_EQ(w.source, MemSource::L1);
    EXPECT_EQ(mem.dram().stats().accesses, dram_before);
    EXPECT_TRUE(mem.l1().contains(0x300));
}

TEST(MemorySystemTest, InvalidateRegisterLineUsesPort)
{
    MemorySystem mem;
    mem.access(0x400, true, MemSpace::Register, 0);
    EXPECT_TRUE(mem.invalidateRegisterLine(0x400, 5));
    EXPECT_FALSE(mem.l1().contains(0x400));
    // Port now busy at cycle 5.
    EXPECT_FALSE(mem.invalidateRegisterLine(0x500, 5));
}

TEST(MemorySystemTest, FunctionalWordsRoundTrip)
{
    MemorySystem mem;
    mem.writeWord(0x1234, 42);
    EXPECT_EQ(mem.readWord(0x1234), 42u);
    // Untouched addresses come from the generator, deterministically.
    EXPECT_EQ(mem.readWord(0x9999), mem.readWord(0x9999));
}

TEST(MemorySystemTest, CustomValueGenerator)
{
    MemorySystem mem;
    mem.setValueGenerator([](Addr a) {
        return static_cast<std::uint32_t>(a / 4);
    });
    EXPECT_EQ(mem.readWord(40), 10u);
    // Writes still win over the generator.
    mem.writeWord(40, 7);
    EXPECT_EQ(mem.readWord(40), 7u);
}

TEST(MemorySystemTest, EveryByteAddressIsItsOwnWord)
{
    // Functional storage is keyed by byte address: the four byte
    // addresses of one aligned word are four distinct 32-bit words.
    MemorySystem mem;
    auto gen = [](Addr a) {
        return static_cast<std::uint32_t>(a * 2654435761u) ^ 0x5a5a5a5au;
    };
    mem.setValueGenerator(gen);
    const Addr a = 0x2000;
    for (Addr i = 0; i < 4; ++i)
        mem.writeWord(a + i, static_cast<std::uint32_t>(100 + i));
    for (Addr i = 0; i < 4; ++i)
        EXPECT_EQ(mem.readWord(a + i), 100 + i) << "a+" << i;
    EXPECT_EQ(mem.readWord(a + 4), gen(a + 4));
    EXPECT_EQ(mem.readWord(a - 1), gen(a - 1));
    EXPECT_EQ(mem.readWord(a + 4096), gen(a + 4096));

    // Words on both sides of a 4 KB boundary.
    mem.writeWord(0xffc, 1);
    mem.writeWord(0xfff, 2);
    mem.writeWord(0x1000, 3);
    EXPECT_EQ(mem.readWord(0xffc), 1u);
    EXPECT_EQ(mem.readWord(0xfff), 2u);
    EXPECT_EQ(mem.readWord(0x1000), 3u);
    EXPECT_EQ(mem.readWord(0xffd), gen(0xffd));

    // The top of the address space.
    const Addr top = ~Addr{0};
    mem.writeWord(top, 7);
    mem.writeWord(top - 3, 8);
    EXPECT_EQ(mem.readWord(top), 7u);
    EXPECT_EQ(mem.readWord(top - 3), 8u);
    EXPECT_EQ(mem.readWord(top - 1), gen(top - 1));

    // A written word outlives a generator change; unwritten ones
    // follow the new generator.
    mem.setValueGenerator([](Addr) { return 0xabcdu; });
    EXPECT_EQ(mem.readWord(a + 2), 102u);
    EXPECT_EQ(mem.readWord(top - 3), 8u);
    EXPECT_EQ(mem.readWord(a + 4), 0xabcdu);
}

TEST(MemorySystemTest, PerWarpWordsMatchPerLaneCalls)
{
    // readWords/writeWords over a sparse mask, with lanes on two pages
    // (both sides of a 4 KB boundary, and two alignment residues),
    // match one readWord/writeWord per active lane, in lane order.
    auto gen = [](Addr a) { return static_cast<std::uint32_t>(a) ^ 77u; };
    MemorySystem warp_mem;
    MemorySystem lane_mem;
    warp_mem.setValueGenerator(gen);
    lane_mem.setValueGenerator(gen);

    mem::LaneAddrs addrs{};
    mem::LaneWords values{};
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        addrs[lane] = 0xfc0 + 4 * lane + (lane >= 24 ? 1 : 0);
        values[lane] = 1000 + lane;
    }
    addrs[9] = addrs[5]; // lane 9's store lands over lane 5's
    const LaneMask mask = 0xf0f0'3a6eu;
    warp_mem.writeWords(addrs, mask, values);
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if (mask & (1u << lane))
            lane_mem.writeWord(addrs[lane], values[lane]);
    }

    mem::LaneWords got{};
    got.fill(0xdeadu);
    warp_mem.readWords(addrs, fullMask, got);
    for (unsigned lane = 0; lane < warpSize; ++lane)
        EXPECT_EQ(got[lane], lane_mem.readWord(addrs[lane])) << lane;
    EXPECT_EQ(got[5], 1009u);

    // A sparse read leaves the masked-off lanes untouched.
    got.fill(0xdeadu);
    warp_mem.readWords(addrs, ~mask, got);
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        const std::uint32_t expect = (~mask & (1u << lane))
                                         ? lane_mem.readWord(addrs[lane])
                                         : 0xdeadu;
        EXPECT_EQ(got[lane], expect) << lane;
    }
}

TEST(MemorySystemTest, L2HitFasterThanDram)
{
    MemorySystem mem;
    MemAccessResult cold = mem.access(0x800, false, MemSpace::Data, 0);
    EXPECT_EQ(cold.source, MemSource::Dram);
    Cycle later = cold.readyCycle + 10;
    MemAccessResult warm =
        mem.access(0x800, false, MemSpace::Data, later);
    EXPECT_EQ(warm.source, MemSource::L2);
    EXPECT_LT(warm.readyCycle - later, cold.readyCycle);
}

} // namespace
} // namespace regless

namespace regless
{
namespace
{

// Non-bypass L1 data mode (the conventional GPU configuration, off by
// default per Table 1).

TEST(MemorySystemTest, NonBypassDataCachesInL1)
{
    MemConfig cfg;
    cfg.bypassL1Data = false;
    MemorySystem mem(cfg);
    MemAccessResult cold = mem.access(0x900, false, MemSpace::Data, 0);
    EXPECT_TRUE(cold.accepted);
    EXPECT_NE(cold.source, MemSource::L1);
    Cycle later = cold.readyCycle + 1;
    MemAccessResult warm =
        mem.access(0x900, false, MemSpace::Data, later);
    EXPECT_EQ(warm.source, MemSource::L1);
}

TEST(MemorySystemTest, NonBypassWritesAreWriteThrough)
{
    MemConfig cfg;
    cfg.bypassL1Data = false;
    MemorySystem mem(cfg);
    std::uint64_t l2_before =
        mem.l2().stats().hits + mem.l2().stats().misses;
    mem.access(0xa00, true, MemSpace::Data, 0);
    std::uint64_t l2_after =
        mem.l2().stats().hits + mem.l2().stats().misses;
    EXPECT_GT(l2_after, l2_before); // the write propagated downstream
    EXPECT_FALSE(mem.l1().contains(0xa00)); // write-no-allocate
}

TEST(MemorySystemTest, SharedDramContention)
{
    MemConfig cfg;
    cfg.dram.bandwidthShare = 1.0;
    cfg.dram.channels = 1;
    cfg.dram.cyclesPerLine = 8.0;
    auto dram = std::make_shared<DramModel>(cfg.dram);
    MemorySystem a(cfg, dram);
    MemorySystem b(cfg, dram);
    // Interleaved misses from two SMs queue on the shared channel.
    MemAccessResult ra = a.access(0x0, false, MemSpace::Data, 0);
    MemAccessResult rb = b.access(0x0, false, MemSpace::Data, 0);
    EXPECT_GT(rb.readyCycle, ra.readyCycle);
    EXPECT_EQ(dram->stats().accesses, 2u);
}

} // namespace
} // namespace regless
