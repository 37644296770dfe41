/**
 * @file
 * The SM's view of the memory hierarchy: L1 -> L2 -> DRAM.
 *
 * Follows the paper's Table 1 model: the L1 accepts one request per
 * cycle (the critical bandwidth RegLess must conserve), program data
 * accesses bypass the L1 cache, and register lines are cached in L1
 * with a write-back policy and no fetch-on-write (the RegLess L1
 * modification, §5.2.3). Functional word storage is kept separate from
 * the timing model; untouched addresses yield synthetic values from a
 * pluggable generator so register compressibility is workload-driven.
 */

#ifndef REGLESS_MEM_MEMORY_SYSTEM_HH
#define REGLESS_MEM_MEMORY_SYSTEM_HH

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/fault_injector.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"

namespace regless::mem
{

/** Address-space classes with distinct cache policy. */
enum class MemSpace
{
    Data,     ///< program global memory (bypasses L1 by default)
    Register, ///< RegLess spilled registers (L1 write-back lines)
};

/** Where a request was ultimately serviced. */
enum class MemSource
{
    L1,
    L2,
    Dram,
};

/** Result of one memory-system transaction. */
struct MemAccessResult
{
    /** False when the request could not be accepted (retry later). */
    bool accepted = true;
    /** Cycle at which the data is available / the write retired. */
    Cycle readyCycle = 0;
    MemSource source = MemSource::L1;
};

/** @name Fixed hierarchy timing (Table 1). */
/// @{
inline constexpr Cycle kL1Latency = 24;
inline constexpr Cycle kL2Latency = 120;
/** Core cycles per L2 line for this SM's bandwidth share. */
inline constexpr double kL2CyclesPerLine = 4.0;
/// @}

/** One address or value per lane of a warp. */
using LaneAddrs = std::array<Addr, warpSize>;
using LaneWords = std::array<std::uint32_t, warpSize>;

/** Hierarchy-wide configuration. */
struct MemConfig
{
    CacheConfig l1{48 * 1024, 6, 32, /*writeBack=*/false,
                   /*writeAllocate=*/false};
    CacheConfig l2{2 * 1024 * 1024, 16, 128, /*writeBack=*/true,
                   /*writeAllocate=*/true};
    DramConfig dram;
    /** Program data accesses skip the L1 cache (Table 1). */
    bool bypassL1Data = true;
};

/** One SM's memory hierarchy plus functional storage. */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemConfig &config = MemConfig());

    /**
     * Share a DRAM model across several SMs (multi-SM simulation):
     * each SM keeps private L1/L2 slices but contends for the same
     * channels.
     */
    MemorySystem(const MemConfig &config,
                 std::shared_ptr<DramModel> shared_dram);

    /** @return true when the single L1 port can accept a request. */
    bool l1PortFree(Cycle now) const { return _l1NextFree <= now; }

    /** First cycle at which the L1 port is free. */
    Cycle l1PortNextFree() const { return _l1NextFree; }

    /**
     * Next-event bound for cycle skipping: the earliest cycle >=
     * @a from at which this hierarchy's state changes on its own. All
     * latencies are resolved at access time (ready cycles are computed
     * when a request enters the port), so the only autonomous event is
     * the L1 port freeing up.
     */
    Cycle nextEventCycle(Cycle from) const
    {
        return std::max(from, _l1NextFree);
    }

    /**
     * Issue one transaction through the L1 port.
     *
     * @param addr Byte address.
     * @param is_write True for stores/evictions.
     * @param space Policy class of the address.
     * @param now Issue cycle; the port must be free.
     */
    MemAccessResult access(Addr addr, bool is_write, MemSpace space,
                           Cycle now);

    /**
     * RegLess cache-invalidate annotation: drop a register line from
     * L1 (and L2) without any data movement. Occupies the L1 port.
     * @return false when the port is busy.
     */
    bool invalidateRegisterLine(Addr addr, Cycle now);

    /**
     * @name Functional storage.
     * Every byte address holds its own 32-bit word; a word never
     * written reads as the value generator's value for its address.
     */
    /// @{
    std::uint32_t readWord(Addr addr) const;
    void writeWord(Addr addr, std::uint32_t value);
    /**
     * Per-warp forms: the lanes in @a mask, in lane order (the last
     * of several lanes storing to one address wins). Lanes outside
     * @a mask leave @a out untouched.
     */
    void readWords(const LaneAddrs &addrs, LaneMask mask,
                   LaneWords &out) const;
    void writeWords(const LaneAddrs &addrs, LaneMask mask,
                    const LaneWords &values);
    void setValueGenerator(std::function<std::uint32_t(Addr)> gen);
    /// @}

    /**
     * Route this SM's DRAM traffic through epoch port @a port of a
     * shared, epoch-mode DRAM (see DramModel::enableEpochMode). Unset
     * by default: traffic uses the direct DRAM interface.
     */
    void setDramPort(unsigned port) { _dramPort = port; }

    /** Attach a fault injector (null = no faults, the default). */
    void setFaultInjector(FaultInjector *injector)
    {
        _faults = injector;
    }

    Cache &l1() { return _l1; }
    Cache &l2() { return _l2; }
    DramModel &dram() { return *_dram; }

    const MemConfig &config() const { return _cfg; }

    /** Ready cycle of an injected lost response ("never"). */
    static constexpr Cycle neverReady =
        std::numeric_limits<Cycle>::max() / 2;

  private:
    /** The real transaction path behind access(). */
    MemAccessResult accessImpl(Addr addr, bool is_write, MemSpace space,
                               Cycle now);

    /** L2 lookup with bandwidth serialisation at time @a t. */
    MemAccessResult accessL2(Addr addr, bool is_write, Cycle t);

    /** DRAM line transfer, direct or via this SM's epoch port. */
    Cycle dramAccess(Addr addr, Cycle t);

    /**
     * Functional words of one 4 KB window and one alignment residue
     * (addr % 4), and which of them were written.
     */
    static constexpr unsigned kPageWords = 1024;
    struct WordPage
    {
        std::array<std::uint32_t, kPageWords> words{};
        std::bitset<kPageWords> written;
    };
    static Addr pageKey(Addr addr) { return addr & ~Addr{0xffc}; }
    static unsigned pageSlot(Addr addr)
    {
        return static_cast<unsigned>(addr >> 2) & (kPageWords - 1);
    }
    /** The page with key @a key, or null. */
    const WordPage *findPage(Addr key) const;
    /** The page with key @a key, created empty when missing. */
    WordPage &pageFor(Addr key);
    /** The word at @a addr, which lies in @a page when that exists. */
    std::uint32_t wordIn(const WordPage *page, Addr addr) const;
    static void storeIn(WordPage &page, Addr addr, std::uint32_t value);

    /** Sentinel: no epoch port configured. */
    static constexpr unsigned noDramPort = ~0u;

    MemConfig _cfg;
    Cache _l1;
    Cache _l2;
    FaultInjector *_faults = nullptr;
    std::shared_ptr<DramModel> _dram;
    unsigned _dramPort = noDramPort;
    Cycle _l1NextFree = 0;
    double _l2NextFree = 0.0;
    /** Keys of the functional pages, ascending; _pages in step. */
    std::vector<Addr> _pageKeys;
    std::vector<std::unique_ptr<WordPage>> _pages;
    std::function<std::uint32_t(Addr)> _valueGen;
};

} // namespace regless::mem

#endif // REGLESS_MEM_MEMORY_SYSTEM_HH
