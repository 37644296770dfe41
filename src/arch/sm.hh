/**
 * @file
 * Streaming multiprocessor (SM) timing model.
 *
 * Models one GTX-980-style SM: 64 warp slots split across 4 scheduling
 * groups, dual issue per group, a scoreboard, SIMT divergence stacks,
 * shared memory, and a single L1 port into the memory hierarchy. The
 * operand path is delegated to a RegisterProvider, which is the only
 * thing that differs between the baseline, RFH, RFV, and RegLess.
 *
 * Multi-tenant operation (DESIGN.md §16): the SM can host several
 * co-resident kernel launches ("tenants"). Each tenant owns a
 * contiguous range of scheduler groups and the contiguous warp range
 * those groups serve, its own scoreboard, its own provider instance,
 * and its own data/shared address segments. Every issue slot and stall
 * cause is charged to exactly one tenant, so the PR 5 closed-account
 * invariant holds per tenant and in total. A single-tenant SM takes
 * exactly the pre-tenant code paths cycle for cycle.
 */

#ifndef REGLESS_ARCH_SM_HH
#define REGLESS_ARCH_SM_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "arch/exec_unit.hh"
#include "arch/scheduler.hh"
#include "arch/scoreboard.hh"
#include "arch/stall.hh"
#include "arch/warp.hh"
#include "compiler/compiler.hh"
#include "mem/memory_system.hh"
#include "regfile/register_provider.hh"

namespace regless::arch
{

/** Instructions a scheduler group may issue per cycle (dual issue). */
inline constexpr unsigned kIssueWidth = 2;
/** Base of the program-data segment in the flat address space. */
inline constexpr Addr kDataBase = 0x1000'0000;
/** Base of the per-block shared-memory segments. */
inline constexpr Addr kSharedBase = 0x8000'0000;

/** SM configuration (Table 1 defaults). */
struct SmConfig
{
    unsigned numWarps = 64;
    unsigned numSchedulers = 4;
    SchedulerPolicy scheduler = SchedulerPolicy::Gto;
    /** Abort threshold for runaway kernels. */
    Cycle maxCycles = 200'000'000;
    /**
     * Forward-progress watchdog: terminate with a DeadlockReport when
     * no warp retires (and no CM activation happens) for this many
     * cycles. 0 disables the stall check; the hard maxCycles budget
     * still applies.
     */
    Cycle watchdogWindow = 1'000'000;

    /**
     * Maximum concurrently resident warps (0 = all). Non-resident
     * warps wait until a resident thread block finishes; admission is
     * block-granular so barriers cannot deadlock. Models register-file
     * occupancy limits for fixed-capacity designs.
     */
    unsigned maxResidentWarps = 0;

    /**
     * Event-driven cycle skipping (DESIGN.md §12): when no scheduler
     * group can issue and every component is quiescent, jump straight
     * to the next event cycle, bulk-charging the skipped slots to the
     * already-attributed stall causes. Results are byte-identical to
     * cycle-by-cycle stepping (enforced by the differential oracle in
     * tests/test_cycle_skip.cc); this flag exists so those reference
     * runs can be produced.
     */
    bool cycleSkip = true;
};

/** One co-resident kernel launch on a multi-tenant SM. */
struct SmTenantSpec
{
    /** Compiled kernel this tenant executes. */
    const compiler::CompiledKernel *ck = nullptr;
    /** This tenant's operand-storage model over its warp partition. */
    regfile::RegisterProvider *provider = nullptr;
    /** Base of this tenant's program-data segment. */
    Addr dataBase = 0;
    /** Base of this tenant's shared-memory segments. */
    Addr sharedBase = 0;
};

/** One SM executing one or more kernel launches to completion. */
class Sm
{
  public:
    /** SM-wide event counts. Issues and slot charges are counted once,
     *  in the tenant accounts, and summed on demand. */
    struct Stats
    {
        /** Branches that split a warp's active mask. */
        std::uint64_t divergentBranches = 0;
        /** Cycles collapsed by stepSkipping(). */
        std::uint64_t skippedCycles = 0;
        /** Skip jumps taken. */
        std::uint64_t skipEvents = 0;
    };

    /**
     * Single-tenant launch (the classic configuration).
     *
     * @param ck Compiled kernel (regions are ignored by non-RegLess
     *        providers but the type carries the instruction stream).
     * @param mem The SM's memory hierarchy.
     * @param provider Operand-storage model.
     * @param config SM parameters.
     */
    Sm(const compiler::CompiledKernel &ck, mem::MemorySystem &mem,
       regfile::RegisterProvider &provider, const SmConfig &config);

    /**
     * Multi-tenant launch: @a tenants kernels co-resident on one SM.
     * Tenant t owns scheduler groups [t*S/T, (t+1)*S/T) and warps
     * [t*W/T, (t+1)*W/T); both divisions must be exact.
     */
    Sm(std::vector<SmTenantSpec> tenants, mem::MemorySystem &mem,
       const SmConfig &config);

    /**
     * Run the kernel to completion.
     * @return total cycles elapsed.
     */
    Cycle run();

    /** Advance exactly one cycle (exposed for unit tests). */
    void step();

    /**
     * Advance one cycle, then — if that cycle proved no warp can issue
     * and every component is quiescent — jump directly to the earliest
     * next event, charging the skipped scheduler slots and per-warp
     * stall cycles exactly as stepping them would have. Never advances
     * past @a limit (the caller's watchdog / budget / epoch boundary).
     */
    void stepSkipping(Cycle limit);

    /** @return true when every warp has finished. */
    bool done() const { return _finishedWarps == _warps.size(); }

    Cycle now() const { return _now; }
    const std::vector<Warp> &warps() const { return _warps; }
    const Warp &warp(WarpId id) const { return _warps.at(id); }

    const Stats &stats() const { return _stats; }
    /** Instructions issued, summed over the tenants. */
    std::uint64_t totalInsns() const;

    /** Observer invoked for every issued instruction (tracing). */
    using IssueHook = std::function<void(
        const Warp &, Pc, const ir::Instruction &, Cycle)>;
    void setIssueHook(IssueHook hook) { _issueHook = std::move(hook); }

    /**
     * Observer for per-warp state runs: called with (warp, label,
     * first cycle, one past last cycle) whenever a warp's issue/stall
     * label changes. Labels are "issue", "ready", or a StallCause
     * name. Call flushStallTrace() after the run to close open runs.
     */
    using StallTraceHook =
        std::function<void(WarpId, const char *, Cycle, Cycle)>;
    void setStallTraceHook(StallTraceHook hook);
    void flushStallTrace();

    /** @name Issue-slot attribution (one slot per scheduler-cycle). */
    ///@{
    /** Issued and stalled slots, summed over the tenants. */
    StallSnapshot slotSnapshot() const;
    /**
     * Cumulative per-warp stall cycles by cause (Running warps only):
     * the settled runs plus the warp's open run up to now.
     */
    std::array<std::uint64_t, kNumStallCauses>
    warpStalls(WarpId warp) const;
    ///@}

    /** @name Per-tenant residency, preemption, and attribution. */
    ///@{
    std::size_t tenantCount() const { return _tenants.size(); }
    unsigned tenantOfWarp(WarpId warp) const
    {
        return _tenantOf.at(warp);
    }

    /**
     * Region-boundary preemption: stop tenant @a t from starting new
     * work; once its provider reaches a preemption boundary the
     * staged state is handed off and the tenant's warps stop issuing
     * entirely. Idempotent; a no-op for finished tenants.
     */
    void requestSuspend(unsigned t, Cycle now);

    /** Resume tenant @a t after a suspension (or cancel a pending
     *  suspend request). Idempotent. */
    void resumeTenant(unsigned t, Cycle now);

    /** Fully suspended (handoff complete, warps parked)? */
    bool tenantSuspended(unsigned t) const
    {
        return tenant(t).suspended;
    }
    /** Every warp of tenant @a t finished? */
    bool tenantDone(unsigned t) const;

    /** @name Per-tenant closed account: for each tenant,
     *  issuedSlots + sum(stallSlots) == schedCount * cycles. */
    ///@{
    std::uint64_t tenantInsns(unsigned t) const
    {
        return tenant(t).insns;
    }
    std::uint64_t tenantIssuedSlots(unsigned t) const
    {
        return tenant(t).slotIssued;
    }
    std::uint64_t tenantStallSlots(unsigned t, StallCause cause) const
    {
        return tenant(t).stallSlots[static_cast<std::size_t>(cause)];
    }
    ///@}

    /** Cycle tenant @a t's last warp finished (0 while running). */
    Cycle tenantFinishCycle(unsigned t) const
    {
        return tenant(t).finishCycle;
    }
    /** Cycles tenant @a t has spent fully suspended so far. */
    std::uint64_t tenantSuspendedCycles(unsigned t) const;
    /** Suspensions requested against tenant @a t. */
    std::uint64_t tenantPreemptions(unsigned t) const
    {
        return tenant(t).preemptions;
    }
    ///@}

  private:
    /** Per-tenant execution context and accounting. */
    struct Tenant
    {
        const compiler::CompiledKernel *ck;
        const ir::Kernel *kernel;
        regfile::RegisterProvider *provider;
        Scoreboard scoreboard;
        WarpId warpBase;
        unsigned warpCount;
        unsigned schedBase;
        unsigned schedCount;
        Addr dataBase;
        Addr sharedBase;
        unsigned nextBlockToAdmit = 0;
        unsigned residentWarps = 0;
        /** @name Region-boundary preemption state. */
        ///@{
        bool suspendRequested = false;
        bool suspended = false;
        Cycle suspendStart = 0;
        std::uint64_t suspendedCycles = 0;
        std::uint64_t preemptions = 0;
        ///@}
        bool finished = false;
        Cycle finishCycle = 0;
        /** @name Closed per-tenant account (the only count of issues
         *  and slot charges; SM-wide totals sum these). */
        ///@{
        std::uint64_t insns = 0;
        std::uint64_t slotIssued = 0;
        std::array<std::uint64_t, kNumStallCauses> stallSlots{};
        ///@}

        Tenant(const SmTenantSpec &spec, WarpId warp_base,
               unsigned warp_count, unsigned sched_base,
               unsigned sched_count);
    };

    /**
     * What one probed cycle learned about whether the stalled window
     * it starts can be collapsed (filled by stepImpl when requested).
     */
    struct SkipProbe
    {
        bool anyIssue = false;
        bool anyEligible = false;
        /** Min next-event bound over all per-warp blockers. */
        Cycle nextEvent = regfile::kNoProviderEvent;
    };

    /**
     * A Running warp's last failed scoreboard verdict, replayed by
     * eligible() while now < until (DESIGN.md §12). Only issue()
     * changes a warp's scoreboard rows or PC, and it clears the memo.
     * Without an issue, time alone changes the verdict only when a
     * pending register becomes ready (nextReady) or a source stops
     * counting as a long stall, so until is the earlier of the two.
     */
    struct StallMemo
    {
        Cycle until = 0;
        /** Scoreboard::nextReadyChange at the fill. */
        Cycle nextReady = 0;
        StallCause cause = StallCause::ScoreboardDep;
        bool longStall = false;
    };

    static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

    /**
     * Where a warp's verdict lives between scans (DESIGN.md §12). Only
     * due warps are evaluated on a stepped cycle; a wake event moves a
     * memo or parked warp back to due.
     */
    enum class Home : std::uint8_t
    {
        /** Eligible, L1-port-busy or provider-blocked: port and
         *  provider state change without the SM seeing it. */
        Due,
        /** Replaying its StallMemo until the memo's until. */
        Memo,
        /** Finished, at a barrier, non-resident or suspended. */
        Parked,
    };

    /** What eligible() decided about one warp. */
    struct Verdict
    {
        bool can = false;
        /** The blocker is a long-latency source (two-level demotion). */
        bool longStall = false;
        /** Attributed cause when blocked (NoWarp when eligible). */
        StallCause cause = StallCause::NoWarp;
        Home home = Home::Due;
    };

    /** A warp's cached verdict and its open per-warp stall run. */
    struct WarpScan
    {
        unsigned group = 0;
        /** Position in the group's warps(). */
        unsigned pos = 0;
        StallCause cause = StallCause::NoWarp;
        bool longStall = false;
        /** @name Open stall run: (cause, charged) since runStart. */
        ///@{
        StallCause runCause = StallCause::NoWarp;
        bool runCharged = false;
        Cycle runStart = 0;
        ///@}
    };

    /** Group positions as a bitset, iterated in ascending order. */
    struct PositionSet
    {
        std::vector<std::uint64_t> words;

        void add(unsigned i) { words[i / 64] |= bit(i); }
        void remove(unsigned i) { words[i / 64] &= ~bit(i); }
        bool has(unsigned i) const { return words[i / 64] & bit(i); }
        static std::uint64_t bit(unsigned i)
        {
            return std::uint64_t{1} << (i % 64);
        }
        /** Call @a f on each member; @a f may change the set (each
         *  word is read before its members are visited). */
        template <typename F>
        void forEach(F &&f) const
        {
            for (std::size_t k = 0; k < words.size(); ++k) {
                for (std::uint64_t bits = words[k]; bits; bits &= bits - 1)
                    f(static_cast<unsigned>(k * 64 + std::countr_zero(bits)));
            }
        }
    };

    /** One scheduler group's verdict homes and cached counts. */
    struct GroupScan
    {
        PositionSet due;
        PositionSet memo;
        /** Cached eligibility by position (the scheduler's input). */
        std::vector<bool> can;
        /** Exact minima of until / nextReady over the memo set. */
        Cycle memoUntil = kNever;
        Cycle memoNextReady = kNever;
        /** Blocked positions per cached cause (the slot charge). */
        std::array<unsigned, kNumStallCauses> blocked{};
        /** Slot charge of the group's last all-stalled cycle (a
         *  skipped window repeats it). */
        StallCause charge = StallCause::NoWarp;
        /** Feed notifyLongStall every stepped cycle (two_level). */
        bool notices = false;
    };

    Tenant &tenant(unsigned t) { return *_tenants.at(t); }
    const Tenant &tenant(unsigned t) const { return *_tenants.at(t); }

    /**
     * Can @a warp issue its next instruction now?
     * @param next_event If non-null and the warp cannot issue, lowered
     *        to the earliest cycle its blocker can clear (left alone
     *        for blockers with no SM-visible bound: barriers,
     *        non-residency, suspension, and provider gating, which the
     *        provider's own nextEventCycle covers).
     */
    Verdict eligible(Tenant &tn, const Warp &warp, Cycle now,
                     Cycle *next_event = nullptr);

    /** One cycle of the SM; fills @a probe when non-null. */
    void stepImpl(SkipProbe *probe);

    /** Cache @a v as the verdict of position @a i (warp @a w) of
     *  @a gs: cause counts, stall run and home. */
    void record(GroupScan &gs, unsigned i, WarpId w, const Verdict &v);

    /** Move @a gs's expired memo warps to due and recompute the memo
     *  bounds over the rest. */
    void refreshMemos(GroupScan &gs, const std::vector<WarpId> &group);

    /** Wake event: @a warp's verdict may change; evaluate it again. */
    void wake(WarpId warp);

    /** Complete suspend requests whose provider reached a boundary. */
    void pollSuspends(Cycle now);

    /** Run-length tracking behind the stall-trace hook. */
    void updateTraceLabel(WarpId warp, const char *label);

    /** Issue and functionally execute the instruction at warp's PC. */
    void issue(Tenant &tn, Warp &warp, Cycle now);

    void execAlu(Tenant &tn, Warp &warp, const ir::Instruction &insn,
                 Cycle now);
    void execGlobalLoad(Tenant &tn, Warp &warp,
                        const ir::Instruction &insn, Cycle now);
    void execGlobalStore(Tenant &tn, Warp &warp,
                         const ir::Instruction &insn, Cycle now);
    void execShared(Tenant &tn, Warp &warp,
                    const ir::Instruction &insn, Cycle now);
    void execBranch(Tenant &tn, Warp &warp,
                    const ir::Instruction &insn, Cycle now);
    void execBarrier(Tenant &tn, Warp &warp, Cycle now);
    void execExit(Tenant &tn, Warp &warp, Cycle now);

    /** Reconvergence PC for branches ending @a block. */
    Pc reconvergePcFor(const Tenant &tn, ir::BlockId block) const;

    /** Per-lane effective addresses of a memory instruction. */
    mem::LaneAddrs laneAddrs(const Warp &warp,
                             const ir::Instruction &insn,
                             Addr base) const;

    /** Distinct 128B lines touched by active lanes, in lane order;
     *  valid until the next call. */
    const std::vector<Addr> &coalesce(const mem::LaneAddrs &addrs,
                                      LaneMask mask);

    /** Release a block's barrier when everyone has arrived. */
    void checkBarrier(Tenant &tn, unsigned block_id);

    /** Admit further thread blocks while residency allows. */
    void admitBlocks(Tenant &tn);

    mem::MemorySystem &_mem;
    SmConfig _cfg;
    std::vector<std::unique_ptr<Tenant>> _tenants;
    /** Owning tenant of each warp slot. */
    std::vector<unsigned> _tenantOf;
    /** Owning tenant of each scheduler group. */
    std::vector<unsigned> _groupTenant;
    std::vector<Warp> _warps;
    std::vector<std::unique_ptr<WarpScheduler>> _schedulers;
    Cycle _now = 0;
    IssueHook _issueHook;
    std::vector<bool> _resident;
    /** Any tenant between requestSuspend and its boundary? Gates the
     *  per-cycle poll and disables cycle skipping while set. */
    bool _anySuspendPending = false;
    Stats _stats;
    /** Per-warp stall cycles of settled runs (see WarpScan). */
    std::vector<std::array<std::uint64_t, kNumStallCauses>> _warpStalls;
    /** Per-warp replayed scoreboard verdicts, indexed by warp id. */
    std::vector<StallMemo> _stallMemo;
    /** Per-warp cached verdicts and stall runs, indexed by warp id. */
    std::vector<WarpScan> _scan;
    /** Per-group verdict homes, indexed like _schedulers. */
    std::vector<GroupScan> _groups;
    std::size_t _finishedWarps = 0;
    /** All schedulers safe to skip over? (precomputed at build) */
    bool _schedulersQuiescent = true;
    StallTraceHook _traceHook;
    std::vector<const char *> _traceLabel;
    std::vector<Cycle> _traceStart;
    /** @name Per-instruction scratch: reused so the cycle loop does
     *  not allocate. */
    ///@{
    std::vector<ir::LaneValues> _srcScratch;
    std::vector<Addr> _lineScratch;
    ///@}
};

} // namespace regless::arch

#endif // REGLESS_ARCH_SM_HH
