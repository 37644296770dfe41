/**
 * @file
 * Set-associative cache timing model.
 *
 * The model tracks presence (tags, LRU, dirty bits) and MSHRs, but not
 * data contents — functional values live in the simulator's backing
 * store. Timing uses ready-cycle bookkeeping rather than discrete
 * events: each access computes when it completes given fixed hit/miss
 * latencies, and the owning MemorySystem serialises port bandwidth.
 */

#ifndef REGLESS_MEM_CACHE_HH
#define REGLESS_MEM_CACHE_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hh"

namespace regless::mem
{

/** Line size across the hierarchy: one register (32 lanes x 4B). */
constexpr unsigned lineBytes = 128;

/** Align @a addr down to its line. */
inline Addr
lineAddr(Addr addr)
{
    return addr & ~static_cast<Addr>(lineBytes - 1);
}

/** Outcome of a single cache lookup-and-fill. */
struct CacheResult
{
    bool hit = false;
    /** A dirty victim was evicted; its address for write-back. */
    bool writeback = false;
    Addr writebackAddr = 0;
    /** Miss merged into an existing MSHR (no new downstream request). */
    bool mshrMerged = false;
    /** Request rejected: all MSHRs busy. Caller must retry. */
    bool rejected = false;
};

/** Configuration for one cache level. */
struct CacheConfig
{
    unsigned sizeBytes = 48 * 1024;
    unsigned ways = 6;
    unsigned mshrs = 32;
    /** When false, writes propagate downstream (write-through). */
    bool writeBack = false;
    /** Allocate lines on write misses (RegLess register lines). */
    bool writeAllocate = false;
};

/**
 * One cache level. The cache itself is policy-light: the MemorySystem
 * decides which spaces are cacheable, write-back behaviour per space,
 * and charges latencies.
 */
class Cache
{
  public:
    /** Event counts of one cache level. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        /** Fill requests refused because every MSHR was busy. */
        std::uint64_t mshrRejects = 0;
    };

    explicit Cache(const CacheConfig &config);

    /**
     * Look up @a addr, allocating on miss per policy.
     *
     * @param addr Byte address (will be line-aligned).
     * @param is_write True for stores.
     * @param write_back_line Treat this line as write-back regardless
     *        of the global policy (RegLess register lines in L1).
     * @param now Current cycle, for MSHR accounting.
     */
    CacheResult access(Addr addr, bool is_write, bool write_back_line,
                       Cycle now);

    /**
     * A miss issued at @a now has returned; free its MSHR.
     * MemorySystem calls this with the computed fill cycle.
     */
    void fillComplete(Addr addr, Cycle ready);

    /** Drop @a addr if present; @return true when the line existed. */
    bool invalidate(Addr addr);

    /** @return true when @a addr is resident. */
    bool contains(Addr addr) const;

    /** @return true when a miss to @a addr would be MSHR-merged. */
    bool missOutstanding(Addr addr, Cycle now) const;

    /** Ready cycle of the outstanding miss covering @a addr. */
    Cycle outstandingReady(Addr addr) const;

    /**
     * Retire MSHRs whose fills completed at or before @a now. Returns
     * at once while @a now is below every outstanding ready cycle.
     */
    void expireMshrs(Cycle now);

    /** Outstanding misses whose fills land after @a now. */
    std::size_t mshrsInUse(Cycle now) const;

    const Stats &stats() const { return _stats; }

    unsigned numSets() const { return _numSets; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    /** One outstanding miss: its line and the cycle its fill lands. */
    struct Mshr
    {
        Addr line = 0;
        Cycle ready = 0;
    };

    unsigned setIndex(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    /** The MSHR of @a addr's line, or null. */
    const Mshr *findMshr(Addr addr) const;

    unsigned _numSets;
    unsigned _ways;
    unsigned _numMshrs;
    bool _writeAllocate;
    std::vector<std::vector<Line>> _sets;
    /** Outstanding misses, one entry per line, in no order. */
    std::vector<Mshr> _mshrs;
    /** Lower bound on the ready cycles in _mshrs: fillComplete
     *  lowers it, and each walk in expireMshrs recomputes it. */
    Cycle _mshrMinReady = std::numeric_limits<Cycle>::max();
    std::uint64_t _lruCounter = 0;
    Stats _stats;
};

} // namespace regless::mem

#endif // REGLESS_MEM_CACHE_HH
