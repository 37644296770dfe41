/**
 * @file
 * RegisterProvider: the seam between the SM pipeline and the five
 * operand-storage designs the paper compares (Figure 1).
 *
 * The SM asks the provider whether a warp's registers are available
 * before issuing, notifies it of every issued instruction (so it can
 * count accesses and manage its structures), and gives it a tick each
 * cycle for background work (RegLess preloading, evictions). Each
 * provider counts its activity in its own `Stats` struct of typed
 * fields, which its registry collect hook reads for the energy model.
 */

#ifndef REGLESS_REGFILE_REGISTER_PROVIDER_HH
#define REGLESS_REGFILE_REGISTER_PROVIDER_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "arch/stall.hh"
#include "arch/warp.hh"
#include "common/fault_injector.hh"
#include "common/types.hh"
#include "compiler/finding.hh"
#include "compiler/region.hh"
#include "ir/instruction.hh"

namespace regless::regfile
{

class TenantArbiter;

/**
 * Sentinel for "no pending provider event": far enough out to act as
 * infinity in min() reductions without overflowing when offsets are
 * added.
 */
inline constexpr Cycle kNoProviderEvent =
    static_cast<Cycle>(-1) / 2;

/** Abstract operand-storage model. */
class RegisterProvider
{
  public:
    RegisterProvider() = default;
    virtual ~RegisterProvider() = default;

    RegisterProvider(const RegisterProvider &) = delete;
    RegisterProvider &operator=(const RegisterProvider &) = delete;

    /** Background work at the start of every cycle. */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * May @a warp issue the instruction at its current PC?
     * Called only for warps that already pass scoreboard and
     * structural checks.
     */
    virtual bool canIssue(const arch::Warp &warp, Cycle now) = 0;

    /**
     * Why canIssue refused @a warp (stall attribution; DESIGN.md
     * section 10). Called only after canIssue returned false, so
     * providers that never refuse keep the default.
     */
    virtual arch::StallCause blockCause(const arch::Warp &warp,
                                        Cycle now) const
    {
        (void)warp;
        (void)now;
        return arch::StallCause::CmNotStaged;
    }

    /**
     * An instruction was issued. Called after functional execution,
     * so @a warp reflects post-instruction state (PC, values).
     *
     * @param warp The issuing warp.
     * @param pc PC of the issued instruction.
     * @param insn The instruction.
     * @param now Issue cycle.
     * @param writeback Cycle its destination value is produced.
     */
    virtual void onIssue(const arch::Warp &warp, Pc pc,
                         const ir::Instruction &insn, Cycle now,
                         Cycle writeback) = 0;

    /** @a warp has exited the kernel. */
    virtual void onWarpFinished(const arch::Warp &warp, Cycle now)
    {
        (void)warp;
        (void)now;
    }

    /**
     * Extra issue latency imposed by the operand path this cycle
     * (e.g. OSU bank conflicts). Sampled at issue.
     */
    virtual Cycle operandDelay(const arch::Warp &warp,
                               const ir::Instruction &insn, Cycle now)
    {
        (void)warp;
        (void)insn;
        (void)now;
        return 0;
    }

    /**
     * Earliest cycle >= @a from at which this provider's tick() could
     * do anything observable (state transition, counter increment,
     * fault firing). The cycle-skip engine only collapses a stalled
     * window when every cycle in it is provably dead; returning
     * @a from means "I have per-cycle work right now, do not skip".
     * Providers whose tick() is a no-op (all the non-RegLess designs)
     * keep the default: no events, ever.
     */
    virtual Cycle nextEventCycle(Cycle from) const
    {
        (void)from;
        return kNoProviderEvent;
    }

    /**
     * The SM skipped cycles [@a from, @a from + @a n): the provider
     * must apply whatever its tick() would have done in that window.
     * By the nextEventCycle() contract those ticks were observable
     * no-ops except for bookkeeping that advances unconditionally
     * (e.g. rotation counters, per-cycle blocked-activation charges),
     * which is compensated here.
     */
    virtual void onCyclesSkipped(Cycle from, Cycle n)
    {
        (void)from;
        (void)n;
    }

    /**
     * Monotonic count of provider-internal progress (e.g. RegLess CM
     * activations). The forward-progress watchdog adds this to the
     * SM's retired-instruction count so long-but-live activation
     * phases are not misdiagnosed as stalls. 0 for providers with no
     * multi-cycle background machinery.
     */
    virtual std::uint64_t progressEvents() const { return 0; }

    /**
     * Attach a fault injector (DESIGN.md §9). Providers without
     * injectable faults ignore it.
     */
    virtual void setFaultInjector(FaultInjector *injector)
    {
        (void)injector;
    }

    /** @name Simulator-integration hooks (DESIGN.md §13).
     *
     * These replace the dynamic_cast probes the simulator used to aim
     * at the RegLess provider: every provider answers them, almost
     * always with these trivial defaults, so GpuSimulator never needs
     * to know which concrete design it holds. */
    /// @{

    /** Accessor for another warp's architectural state by id. */
    using WarpSource = std::function<const arch::Warp &(WarpId)>;

    /**
     * Bind the warp-state accessor; called once, after the SM exists
     * and before the first tick. Providers whose background machinery
     * inspects warps (the RegLess capacity managers) store it; the
     * rest ignore it.
     */
    virtual void bindWarpSource(WarpSource source) { (void)source; }

    /** Observer for provider-internal activation events (tracing). */
    using ActivationObserver =
        std::function<void(WarpId, compiler::RegionId, Cycle)>;

    /**
     * Attach a trace observer for activation-style events. Providers
     * without multi-cycle staging machinery have nothing to report
     * and ignore it.
     */
    virtual void setActivationObserver(ActivationObserver observer)
    {
        (void)observer;
    }

    /**
     * Dynamic invariant violations this provider's shadow checking
     * recorded (empty for providers without a runtime checker).
     */
    virtual std::vector<compiler::Finding> runtimeViolations() const
    {
        return {};
    }

    /**
     * Append this provider's view of @a warp to its deadlock-report
     * line (staging state, pending work, ...). One line, no newline.
     */
    virtual void describeWarp(WarpId warp, std::ostream &os) const
    {
        (void)warp;
        (void)os;
    }

    /**
     * Append one line per internal storage structure (bank occupancy,
     * reservations, ...) to a deadlock report's bank section.
     */
    virtual void describeStorage(std::vector<std::string> &out) const
    {
        (void)out;
    }
    /// @}

    /** @name Multi-tenant hooks (DESIGN.md §16).
     *
     * Under multi-tenant operation each co-resident kernel gets its
     * own provider instance over its warp partition. Providers with a
     * shared physical line pool (RegLess) join the SM's TenantArbiter
     * and implement the region-boundary suspend protocol; the default
     * implementations make every other design trivially preemptible at
     * instruction boundaries (their architected state lives in the
     * warps, so there is nothing to drain). */
    /// @{

    /**
     * Register this provider's capacity usage with the SM-wide
     * arbiter, as @a tenant with QoS @a priority, and install the
     * arbiter as the provider's allocation admission gate.
     */
    virtual void joinTenantArbiter(TenantArbiter &arbiter,
                                   unsigned tenant, unsigned priority)
    {
        (void)arbiter;
        (void)tenant;
        (void)priority;
    }

    /**
     * Begin suspending: stop starting new work (region activations);
     * in-flight work runs to its natural boundary. Idempotent.
     */
    virtual void requestSuspend(Cycle now) { (void)now; }

    /**
     * Has in-flight work reached a preemption boundary? Polled by the
     * SM after requestSuspend(); the default ("immediately") is right
     * for providers with no multi-cycle staging machinery.
     */
    virtual bool suspendComplete() const { return true; }

    /**
     * In-flight work is done: hand off the architected state. RegLess
     * writes back and erases every staged line (the region-boundary
     * handoff the paper's design makes cheap); afterwards
     * stagedLinesInUse() must be zero.
     */
    virtual void finalizeSuspend(Cycle now) { (void)now; }

    /** Resume after a suspension. Idempotent. */
    virtual void resume(Cycle now) { (void)now; }

    /**
     * Physical staging lines currently held (occupied + reserved).
     * 0 for designs without a staging pool; the preemption chaos test
     * asserts this is 0 after every completed suspend.
     */
    virtual std::uint64_t stagedLinesInUse() const { return 0; }
    /// @}
};

} // namespace regless::regfile

#endif // REGLESS_REGFILE_REGISTER_PROVIDER_HH
