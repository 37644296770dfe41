/**
 * @file
 * Capacity manager (CM), paper §5.1 and Figure 9.
 *
 * One CM per warp scheduler. It owns a warp stack of inactive warps
 * and per-warp state machines (inactive -> preloading -> active ->
 * draining -> inactive). Each cycle it tries to activate the top
 * stack warp (reserving per-bank OSU lines for the warp's next
 * region), drains preload and invalidation queues through the
 * compressor and L1, and retires draining warps once their last
 * writes land. Only warps in the active state may issue instructions.
 */

#ifndef REGLESS_REGLESS_CAPACITY_MANAGER_HH
#define REGLESS_REGLESS_CAPACITY_MANAGER_HH

#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "arch/stall.hh"
#include "arch/warp.hh"
#include "common/fault_injector.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "compiler/compiler.hh"
#include "mem/memory_system.hh"
#include "regless/compressor.hh"
#include "regless/operand_staging_unit.hh"
#include "regless/regless_config.hh"

namespace regless::staging
{

class ShadowChecker;

/** Figure 9 warp states. */
enum class CmState : std::uint8_t
{
    Inactive,
    Preloading,
    Active,
    Draining,
    Done,
};

constexpr std::size_t kNumCmStates =
    static_cast<std::size_t>(CmState::Done) + 1;

/** One warp scheduler's capacity manager. */
class CapacityManager
{
  public:
    /** Accessor for a warp's architectural state (PC, status, values). */
    using WarpSource = std::function<const arch::Warp &(WarpId)>;

    /** Staging events of one shard (summed over shards for RunStats). */
    struct Stats
    {
        /** Region activations (a forward-progress event). */
        std::uint64_t activations = 0;
        /** Preloads by the level that served them (Figure 17). */
        std::uint64_t preloadSrcOsu = 0;
        std::uint64_t preloadSrcCompressor = 0;
        std::uint64_t preloadSrcL1 = 0;
        std::uint64_t preloadSrcL2Dram = 0;
        /** L1 requests issued by the CM (Figure 18). */
        std::uint64_t l1PreloadReqs = 0;
        std::uint64_t l1StoreReqs = 0;
        std::uint64_t l1InvalidateReqs = 0;
        /** Region metadata instructions of activated regions. */
        std::uint64_t metadataInsns = 0;
        /** OSU banks gated, summed over cycles (DESIGN.md §14). */
        std::uint64_t gatedBankCycles = 0;
    };

    /**
     * @param shard_warps Warps supervised by this CM's scheduler.
     * @param ck Compiled kernel with region annotations.
     * @param osu This shard's staging unit.
     * @param compressor This shard's compressor (null disables the
     *        compressor, the paper's ablation in Figure 16).
     * @param mem Shared memory hierarchy.
     * @param cfg RegLess configuration.
     * @param num_warps Warps per SM (register address layout).
     */
    CapacityManager(std::vector<WarpId> shard_warps,
                    const compiler::CompiledKernel &ck,
                    OperandStagingUnit &osu, Compressor *compressor,
                    mem::MemorySystem &mem, const ReglessConfig &cfg,
                    unsigned num_warps);

    /** Must be called before the first tick. */
    void setWarpSource(WarpSource ws) { _warpOf = std::move(ws); }

    /** Attach the dynamic staging-state checker (null disables). */
    void setShadow(ShadowChecker *shadow) { _shadow = shadow; }

    /** Attach a fault injector (null = no faults, the default). */
    void setFaultInjector(FaultInjector *injector)
    {
        _faults = injector;
    }

    /** Per-cycle work: queues, drains, activation. */
    void tick(Cycle now);

    /**
     * Earliest cycle >= @a from at which tick() could do anything
     * observable. Returns @a from while any warp has queued preloads
     * or invalidations, or the compressor has flushes pending (those
     * paths count tag lookups and retry ports every cycle); otherwise
     * the nearest preload-ready or drain-end cycle; otherwise never.
     */
    Cycle nextEventCycle(Cycle from) const;

    /**
     * Cycles [@a from, @a from + @a n) were skipped: bulk-apply the
     * unconditional per-cycle bookkeeping those ticks would have done
     * (currently just the blocked-activation counter, which charges
     * one cycle per tick while the top stacked warp does not fit).
     */
    void onCyclesSkipped(Cycle from, Cycle n);

    /** Only active warps whose PC is inside their region may issue. */
    bool canIssue(const arch::Warp &warp, Cycle now) const;

    /**
     * Why canIssue last refused @a warp (stall attribution): waiting
     * for activation (CmNotStaged), activation blocked on OSU space
     * (CmNoCapacity), preloads blocked on a bank port
     * (OsuBankConflict), or preload data in flight (MemPending).
     */
    arch::StallCause blockCause(WarpId warp) const
    {
        return ctx(warp).blockCause;
    }

    /** Observer called at every region activation (tracing). */
    using ActivationHook =
        std::function<void(WarpId, compiler::RegionId, Cycle)>;
    void setActivationHook(ActivationHook hook)
    {
        _onActivate = std::move(hook);
    }

    /** Process annotations and region boundaries for an issue. */
    void onIssue(const arch::Warp &warp, Pc pc,
                 const ir::Instruction &insn, Cycle now, Cycle writeback);

    /** Kernel exit: release the warp's staging resources. */
    void onWarpFinished(const arch::Warp &warp, Cycle now);

    CmState state(WarpId warp) const { return ctx(warp).state; }

    /** Outstanding reserved-but-unallocated lines in @a bank. */
    int reservedFuture(unsigned bank) const
    {
        return _reservedFuture.at(bank);
    }

    /** Current region of @a warp (invalidRegion when inactive). */
    compiler::RegionId warpRegion(WarpId warp) const
    {
        return ctx(warp).region;
    }

    /** Pending (not yet issued) preloads of @a warp's region. */
    std::size_t pendingPreloads(WarpId warp) const
    {
        return ctx(warp).preloads.size();
    }

    /** @name Multi-tenant hooks (DESIGN.md §16). */
    /// @{

    /**
     * Admission gate consulted before a region activation commits
     * @a lines new OSU-line reservations. Under multi-tenant operation
     * the TenantArbiter sits here; a refusal blocks the activation
     * exactly like an out-of-space condition (CmNoCapacity), retried
     * every cycle.
     */
    using AdmissionGate = std::function<bool(unsigned lines)>;
    void setAdmissionGate(AdmissionGate gate)
    {
        _admissionGate = std::move(gate);
    }

    /**
     * Begin suspending: stop starting new region activations.
     * In-flight regions (preloading/active/draining) run to their
     * natural boundary. Idempotent.
     */
    void requestSuspend();

    /**
     * Every supervised warp parked at a region boundary (Inactive or
     * Done) and no compressor flushes outstanding?
     */
    bool suspendComplete() const;

    /**
     * Hand off the architected state: write back every staged line
     * that has no current backing copy, then release all lines. Only
     * legal once suspendComplete(); afterwards linesInUse() == 0.
     */
    void finalizeSuspend(Cycle now);

    /** Allow activations again after a suspension. Idempotent. */
    void resume();

    /**
     * Lines currently held against the shared physical pool: Owned
     * lines of in-flight regions plus outstanding reserved-future
     * lines. Evictable lines are excluded — they are reclaimable on
     * demand, so the arbiter treats them as free capacity.
     */
    std::uint64_t linesInUse() const;
    /// @}

    const Stats &stats() const { return _stats; }

    /** L1 transactions attributable to RegLess (Figures 3 and 18). */
    WindowedSeries &l1Series() { return _l1Series; }

    /** @name Dynamic region statistics (Figure 19, Table 2). */
    /// @{
    Distribution &regionPreloads() { return _regionPreloads; }
    Distribution &regionLive() { return _regionLive; }
    Distribution &regionCycles() { return _regionCycles; }
    Distribution &regionInsns() { return _regionInsns; }
    /// @}

  private:
    struct WarpCtx
    {
        CmState state = CmState::Inactive;
        compiler::RegionId region = compiler::invalidRegion;
        std::deque<compiler::Preload> preloads;
        std::deque<RegId> invalidations;
        Cycle preloadReady = 0;
        Cycle activatedAt = 0;
        Cycle drainUntil = 0;
        unsigned preloadCount = 0;
        /** New lines this region may still allocate, per bank. */
        std::array<int, osuBanks> budget{};
        std::vector<RegId> deferredErase;
        std::vector<RegId> deferredEvict;
        /** Last reason canIssue would refuse this warp. */
        arch::StallCause blockCause = arch::StallCause::CmNotStaged;
    };

    WarpCtx &ctx(WarpId warp);
    const WarpCtx &ctx(WarpId warp) const;

    /** Backing-copy flags of (@a warp, @a reg), a BackingFlag set. */
    std::uint8_t &backing(WarpId warp, RegId reg)
    {
        return _backing[static_cast<std::size_t>(warp) * _numRegs + reg];
    }

    Addr regAddr(WarpId warp, RegId reg) const;

    /** Handle a reclaim's write-back duty (compressor or L1). */
    void handleReclaim(const OperandStagingUnit::Reclaim &reclaim,
                       Cycle now);

    /** Write a line's value to the backing path (compressor or L1). */
    void writeBackLine(WarpId warp, RegId reg, Cycle now);

    /** Allocate an owned line, consuming the warp's budget. */
    void allocateLine(WarpCtx &wc, WarpId warp, RegId reg, bool dirty,
                      Cycle now);

    /** Return a mid-region released line to the region's budget. */
    void creditLine(WarpCtx &wc, WarpId warp, RegId reg);

    /** Forget a register's backing-store copy (invalidating read). */
    void invalidateBacking(WarpId warp, RegId reg, bool charge_l1,
                           Cycle now);

    void processInvalidations(WarpCtx &wc, WarpId warp, Cycle now);
    void processPreloads(WarpCtx &wc, WarpId warp, Cycle now,
                         std::array<bool, osuBanks> &bank_busy);
    void finishDrain(WarpCtx &wc, WarpId warp, Cycle now);
    void sampleRegionStats(const WarpCtx &wc, Cycle now);
    void tryActivate(Cycle now);

    /** Every state transition goes through here to keep the counts. */
    void setState(WarpCtx &wc, CmState state);
    /** Shard warps currently in @a state. */
    unsigned warpsIn(CmState state) const
    {
        return _stateCount[static_cast<std::size_t>(state)];
    }

    std::vector<WarpId> _shardWarps;
    const compiler::CompiledKernel &_ck;
    OperandStagingUnit &_osu;
    Compressor *_compressor;
    mem::MemorySystem &_mem;
    ReglessConfig _cfg;
    unsigned _numWarps;
    /** The kernel's register count: the row length of _backing. */
    unsigned _numRegs;
    WarpSource _warpOf;
    ShadowChecker *_shadow = nullptr;
    FaultInjector *_faults = nullptr;
    ActivationHook _onActivate;

    /**
     * Per-warp state, indexed by global warp id (structure-of-arrays
     * layout: the issue path and the skip probe scan this flat vector
     * instead of chasing hash buckets). `_supervised[w]` guards
     * against lookups for warps this CM does not own.
     */
    std::vector<WarpCtx> _ctx;
    std::vector<std::uint8_t> _supervised;
    /** Shard warps in each CmState (tick skips empty passes). */
    std::array<unsigned, kNumCmStates> _stateCount{};
    static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();
    /**
     * The minimum drainUntil over the Draining warps, kNever while
     * none drains. It is exact, not a lower bound: nextEventCycle
     * returns it, so a stale value would move the skip counters.
     * onIssue lowers it as a warp starts draining, and the drain walk
     * and onWarpFinished recompute it as warps leave that state.
     */
    Cycle _drainBound = kNever;
    /**
     * Last activation attempt was refused by the admission gate. The
     * gate's answer depends on *other* tenants' usage, invisible to
     * this CM's event horizon, so nextEventCycle() must pin the SM to
     * cycle granularity while set.
     */
    bool _gateBlocked = false;
    /** Activations are suspended (region-boundary preemption). */
    bool _suspended = false;
    AdmissionGate _admissionGate;
    /** Banks counted gated by the last tick (skip replay). */
    unsigned _lastGatedBanks = 0;
    std::deque<WarpId> _stack; ///< front = top (last to have executed)
    std::array<int, osuBanks> _reservedFuture{};
    enum BackingFlag : std::uint8_t
    {
        /** A live copy in the compressor/L1/L2 path. */
        kInBackingStore = 1,
        /** An uncompressed L1/L2 line. Cleared with kInBackingStore
         *  only when the invalidation is charged to L1, so it can
         *  outlive the copy; readers test the flag they need. */
        kInL1 = 2,
    };
    /** BackingFlag sets indexed by warp id * _numRegs + reg. */
    std::vector<std::uint8_t> _backing;
    /** tryActivate's pinned inputs and stale outputs, in region
     *  order; reused so an activation does not allocate. */
    std::vector<RegId> _pinnedScratch;
    std::vector<RegId> _staleScratch;

    Stats _stats;
    WindowedSeries _l1Series;
    Distribution _regionPreloads;
    Distribution _regionLive;
    Distribution _regionCycles;
    Distribution _regionInsns;
};

} // namespace regless::staging

#endif // REGLESS_REGLESS_CAPACITY_MANAGER_HH
