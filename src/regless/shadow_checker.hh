/**
 * @file
 * Dynamic staging-state shadow checker.
 *
 * The runtime half of the staging verifier (the static half is
 * compiler/staging_checker.hh). The simulator's functional values live
 * in the warps, so a staging bug — a value erased, invalidated, or
 * reclaimed while a later instruction still needs it — never corrupts
 * results; it would only surface on real hardware. This checker makes
 * such bugs observable in simulation: it shadows every OSU and
 * backing-store transition and records exactly which (warp, register)
 * values have been *lost* (no staged copy and no backing copy
 * anywhere). Reads, preload fetches, and region drains are then
 * cross-checked against that lost set and against OSU residency, and
 * each violated invariant is reported as a compiler::Finding with an
 * `rt-` code. Enabled by ReglessConfig::runtimeCheck; see DESIGN.md §8.
 */

#ifndef REGLESS_REGLESS_SHADOW_CHECKER_HH
#define REGLESS_REGLESS_SHADOW_CHECKER_HH

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "compiler/compiler.hh"
#include "compiler/finding.hh"
#include "regless/operand_staging_unit.hh"

namespace regless::staging
{

/**
 * One shadow checker per SM, shared by the SM's capacity managers
 * (CM callbacks are single-threaded within an SM).
 */
class ShadowChecker
{
  public:
    explicit ShadowChecker(const compiler::CompiledKernel &ck);

    /** @name Event hooks, called by CapacityManager. */
    /// @{

    /** An OSU line was erased (annotation or stale-output cleanup). */
    void onErase(WarpId warp, RegId reg);

    /** The destination of an issued instruction was written. */
    void onWrite(WarpId warp, RegId reg);

    /**
     * A clean (no write-back) victim was reclaimed. @a in_backing is
     * whether the CM still tracks a backing-store copy of the value.
     */
    void onCleanReclaim(WarpId warp, RegId reg, bool in_backing);

    /**
     * The backing-store copy was dropped (invalidating read or cache
     * invalidation). @a resident is OSU residency at that moment.
     */
    void onBackingInvalidate(WarpId warp, RegId reg, bool resident);

    /** A preload missed the OSU and fetches from the backing path. */
    void onPreloadFetch(WarpId warp, RegId reg,
                        compiler::RegionId region);

    /** An instruction issued: check its reads, then apply its write. */
    void onIssue(WarpId warp, Pc pc, const ir::Instruction &insn,
                 const OperandStagingUnit &osu,
                 compiler::RegionId region);

    /**
     * A region finished draining (deferred erases/evicts applied):
     * any line the warp still owns leaked past its region.
     */
    void onDrainEnd(WarpId warp, const OperandStagingUnit &osu,
                    compiler::RegionId region, Pc end_pc);

    /**
     * An evicted value escaped its compile-time proven encoding: the
     * static value-range analysis (or a mutated annotation) claimed a
     * range the runtime value violates. The compressor's lane guard
     * already kept the data safe; this records the unsound proof.
     */
    void onEncodingUnsound(WarpId warp, RegId reg);

    /** The warp exited the kernel; all its values are dead. */
    void onWarpDropped(WarpId warp);

    /// @}

    const std::vector<compiler::Finding> &violations() const
    {
        return _violations;
    }

  private:
    enum class Loss : std::uint8_t { Erased, Invalidated };

    static std::uint32_t
    key(WarpId warp, RegId reg)
    {
        return (static_cast<std::uint32_t>(warp) << 16) | reg;
    }

    void flag(const char *code, compiler::RegionId region, Pc pc,
              RegId reg, std::string message);

    const ir::Liveness &_live;

    /** Values with no staged and no backing copy, by loss kind. */
    std::unordered_map<std::uint32_t, Loss> _lost;

    /**
     * Values whose backing-store line still matches the current
     * architectural value (fetched and not yet rewritten or
     * invalidated). The CM's kInBackingStore flag only tracks copies
     * RegLess wrote back; this covers the pristine original.
     */
    std::set<std::uint32_t> _backingFresh;

    /**
     * Leaked lines already reported. A leak persists across the
     * warp's later drains; report it once, at the region that
     * caused it.
     */
    std::set<std::uint32_t> _leakReported;

    /** Dedup key: one report per (code, region, pc, reg). */
    std::set<std::tuple<std::string, compiler::RegionId, Pc, RegId>>
        _seen;
    std::vector<compiler::Finding> _violations;
};

} // namespace regless::staging

#endif // REGLESS_REGLESS_SHADOW_CHECKER_HH
