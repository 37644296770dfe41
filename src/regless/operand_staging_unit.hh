/**
 * @file
 * Operand staging unit (OSU), paper §5.2.
 *
 * One OSU per warp scheduler, 8 independently tracked banks. A line
 * holds one 128-byte register for one warp. Lines are either owned by
 * an executing/preloading region, evictable (clean or dirty, the
 * paper's clean/dirty lists), or free. Registers map to bank
 * (warpId + regId) mod 8. The OSU stores no data — functional values
 * live in the warps — it tracks residency, dirtiness, and LRU order,
 * and counts the accesses the energy model charges.
 */

#ifndef REGLESS_REGLESS_OPERAND_STAGING_UNIT_HH
#define REGLESS_REGLESS_OPERAND_STAGING_UNIT_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "regless/regless_config.hh"

namespace regless::staging
{

/** Number of banks per OSU (fixed by the design). */
constexpr unsigned osuBanks = 8;

/** Residency state of one OSU line. */
enum class LineState : std::uint8_t
{
    Owned,      ///< reserved by an active/preloading/draining region
    EvictClean, ///< evictable, value matches the backing store
    EvictDirty, ///< evictable, must be written back when reclaimed
};

/** What a write found at its register's line (see write()). */
enum class Residency : std::uint8_t
{
    Absent,    ///< no line: the caller allocates one
    Owned,     ///< an owned line, now dirty
    Evictable, ///< an evictable line, now claimed (owned) and dirty
};

/** One warp-scheduler's operand staging unit. */
class OperandStagingUnit
{
  public:
    /** Per-bank occupancy snapshot. */
    struct BankCounts
    {
        unsigned owned = 0;
        unsigned clean = 0;
        unsigned dirty = 0;
        unsigned free = 0;
    };

    /** Victim that must be written back before its line is reused. */
    struct Reclaim
    {
        bool needed = false;   ///< a line had to be reclaimed
        bool writeback = false; ///< the victim was dirty
        WarpId victimWarp = invalidWarp;
        RegId victimReg = invalidReg;
    };

    /** Accesses counted for the energy model. */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t tagLookups = 0;
    };

    /**
     * @param total_lines Lines in this OSU (entries / shards).
     * @param order Victim preference for reclaims.
     */
    OperandStagingUnit(unsigned total_lines, VictimOrder order);

    /** Bank of register @a reg for warp @a warp. */
    static unsigned
    bankOf(WarpId warp, RegId reg)
    {
        return (warp + reg) % osuBanks;
    }

    unsigned linesPerBank() const { return _linesPerBank; }

    const BankCounts &bankCounts(unsigned bank) const
    {
        return _counts.at(bank);
    }

    /** @return true when (warp, reg) is resident in any state. */
    bool present(WarpId warp, RegId reg) const;

    /** @return true when (warp, reg) is resident and evictable. */
    bool presentEvictable(WarpId warp, RegId reg) const;

    /** @return true when a resident entry is dirty. */
    bool isDirty(WarpId warp, RegId reg) const;

    /**
     * Convert an evictable entry back to owned (preload hit or
     * redefinition of a resident output). Keeps the dirty history.
     */
    void claim(WarpId warp, RegId reg);

    /**
     * Allocate an owned line for (warp, reg), reclaiming a victim in
     * the same bank if necessary (free, then clean, then dirty — or
     * the ablation order). The entry starts clean unless @a dirty.
     *
     * @return reclaim duties for the caller (write-back traffic).
     */
    Reclaim allocate(WarpId warp, RegId reg, bool dirty);

    /** Erase annotation: the line becomes free immediately. */
    void erase(WarpId warp, RegId reg);

    /** Evict annotation: the line joins the clean or dirty list. */
    void markEvictable(WarpId warp, RegId reg);

    /**
     * Record a write to (warp, reg) with one lookup: an evictable line
     * is claimed first (as claim() does), then a resident line becomes
     * dirty and most recently used. An absent line is left alone.
     *
     * @return what the write found.
     */
    Residency write(WarpId warp, RegId reg);

    /** Drop every line belonging to @a warp (kernel exit). */
    void dropWarp(WarpId warp);

    /** @name Access counting for the energy model. */
    /// @{
    void countRead() { ++_stats.reads; }
    void countWrite() { ++_stats.writes; }
    void countTagLookup() { ++_stats.tagLookups; }
    /// @}

    /** Total lines currently occupied (for occupancy stats). */
    unsigned occupiedLines() const { return _occupied; }

    /** Entry listing of one bank (diagnostics and tests). */
    struct EntryInfo
    {
        WarpId warp;
        RegId reg;
        LineState state;
    };
    std::vector<EntryInfo> bankEntries(unsigned bank) const;

    const Stats &stats() const { return _stats; }

  private:
    struct Entry
    {
        LineState state = LineState::Owned;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    static std::uint32_t
    key(WarpId warp, RegId reg)
    {
        return (static_cast<std::uint32_t>(warp) << 16) | reg;
    }

    /** Turn the evictable @a entry of bank @a b into an owned one. */
    void claimEntry(unsigned b, Entry &entry);

    unsigned _linesPerBank;
    VictimOrder _order;
    std::array<std::unordered_map<std::uint32_t, Entry>, osuBanks> _banks;
    std::array<BankCounts, osuBanks> _counts;
    std::uint64_t _lruCounter = 0;
    unsigned _occupied = 0;
    Stats _stats;
};

} // namespace regless::staging

#endif // REGLESS_REGLESS_OPERAND_STAGING_UNIT_HH
