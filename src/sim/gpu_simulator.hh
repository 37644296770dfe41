/**
 * @file
 * GpuSimulator: the library's top-level entry point. Compiles a
 * kernel, builds the configured operand-storage provider, runs it on
 * one SM, and returns RunStats. This is the API the examples and
 * every benchmark harness use.
 */

#ifndef REGLESS_SIM_GPU_SIMULATOR_HH
#define REGLESS_SIM_GPU_SIMULATOR_HH

#include <memory>

#include "arch/sm.hh"
#include "compiler/compiler.hh"
#include "compiler/finding.hh"
#include "ir/kernel.hh"
#include "mem/memory_system.hh"
#include "common/fault_injector.hh"
#include "common/sim_error.hh"
#include "regfile/baseline_rf.hh"
#include "regfile/register_provider.hh"
#include "regfile/tenant_arbiter.hh"
#include "sim/gpu_config.hh"
#include "sim/progress_monitor.hh"
#include "sim/run_stats.hh"
#include "sim/trace_writer.hh"

namespace regless::sim
{

/**
 * @name Per-tenant address-space strides
 * Tenant t's data segment starts at arch::kDataBase +
 * t * kTenantDataStride and its shared segment at arch::kSharedBase +
 * t * kTenantSharedStride, and the synthetic value generator is
 * translated per segment — so each tenant reads the same values at the
 * same kernel-relative addresses as a solo run (the memory-image
 * parity the preemption tests check).
 */
/// @{
inline constexpr Addr kTenantDataStride = 0x0400'0000;
inline constexpr Addr kTenantSharedStride = 0x1000'0000;
/// @}

/** One-SM GPU simulation of one kernel launch. */
class GpuSimulator
{
  public:
    /**
     * Compile @a kernel under @a config and assemble the machine.
     * Nothing executes until run().
     */
    GpuSimulator(const ir::Kernel &kernel, GpuConfig config);

    /**
     * Multi-tenant launch (DESIGN.md §16): each kernel becomes one
     * SM tenant with its own warp partition, scheduler groups,
     * provider instance, and address segments. config.tenants supplies
     * priorities and the capacity policy; one kernel is exactly the
     * classic single-kernel simulation.
     */
    GpuSimulator(const std::vector<ir::Kernel> &kernels,
                 GpuConfig config);

    /**
     * Assemble around already compiled kernels, one per tenant, on an
     * externally shared DRAM (multi-SM simulation). Compiled kernels
     * are read-only, so every SM of a chip may share the same ones.
     */
    GpuSimulator(
        std::vector<std::shared_ptr<const compiler::CompiledKernel>> cks,
        GpuConfig config, std::shared_ptr<mem::DramModel> shared_dram);

    /**
     * Run a pre-compiled kernel as-is, bypassing the compiler. The
     * mutation tests use this to execute deliberately corrupted
     * region annotations under the runtime shadow checker.
     */
    GpuSimulator(compiler::CompiledKernel ck, GpuConfig config);

    ~GpuSimulator();

    GpuSimulator(const GpuSimulator &) = delete;
    GpuSimulator &operator=(const GpuSimulator &) = delete;

    /**
     * Execute the kernel to completion and harvest statistics.
     *
     * Runs under a forward-progress watchdog: when no warp retires and
     * no CM activation happens for SmConfig::watchdogWindow cycles,
     * when SmConfig::maxCycles is exceeded, or when the optional
     * wall-clock budget expires, throws DeadlockError carrying a
     * populated DeadlockReport.
     *
     * @param wall_timeout_sec Wall-clock budget (0 = unlimited).
     */
    RunStats run(double wall_timeout_sec = 0.0);

    /** Harvest statistics without running (the SM must be done). */
    RunStats collect();

    /** @name Introspection (valid after construction). */
    /// @{
    const compiler::CompiledKernel &compiled() const
    {
        return *_cks.front();
    }
    mem::MemorySystem &memory() { return *_mem; }
    arch::Sm &sm() { return *_sm; }
    regfile::RegisterProvider &provider()
    {
        return *_providers.front();
    }
    const GpuConfig &config() const { return _config; }

    /** Co-resident tenants (1 for classic runs). */
    unsigned tenantCount() const
    {
        return static_cast<unsigned>(_cks.size());
    }
    const compiler::CompiledKernel &compiled(unsigned t) const
    {
        return *_cks[t];
    }
    regfile::RegisterProvider &provider(unsigned t)
    {
        return *_providers[t];
    }

    /** Sum of every tenant's provider progress events (the watchdog
     *  metric's provider half; exposed for the multi-SM runner). */
    std::uint64_t providerProgressEvents() const;

    /**
     * Per-tenant watchdog (DESIGN.md §16.2), shared by the one-SM and
     * multi-SM run loops: feed tenant t's own progress metric to
     * @a monitor's tenant track @a first_track + t.
     * @return the lowest starved tenant, or -1.
     */
    int starvedTenant(ProgressMonitor &monitor, unsigned first_track,
                      Cycle now) const;
    /// @}

    /**
     * @name QoS controller (DESIGN.md §16). Active only when
     * config.tenants.qosPreemption is set, at least two tenants are
     * resident, and both a priority and a best-effort tenant exist.
     */
    /// @{
    /**
     * Act on the schedule at @a now: suspend best-effort tenants at
     * their interval boundary while a priority tenant is unfinished,
     * resume them for their share window (and permanently once every
     * priority tenant retires). Called by the run loops every
     * iteration; skip jumps are clamped to qosNextDecision() so both
     * stepping modes see every boundary cycle.
     */
    void qosPoll(Cycle now);

    /** Next cycle at which qosPoll() could change tenant state. */
    Cycle qosNextDecision(Cycle now) const;

    /**
     * Advance to min(@a epoch_end, completion) under the configured
     * stepping mode with QoS polling (the multi-SM epoch body).
     */
    void advanceEpoch(Cycle epoch_end);
    /// @}

    /**
     * Dynamic staging violations recorded by the shadow checker
     * (DESIGN.md §8). Only non-empty for a RegLess provider with
     * ReglessConfig::runtimeCheck set.
     */
    std::vector<compiler::Finding> runtimeViolations() const;

    /**
     * Build the synthetic memory-value generator for @a profile
     * (exposed so tests can validate the value mix).
     */
    static std::function<std::uint32_t(Addr)>
    valueGenerator(const ir::ValueProfile &profile);

    /**
     * Snapshot scheduler, staging, and memory state into a structured
     * report (used by the watchdog; exposed for the multi-SM runner).
     * @param since When non-null, the report's stall breakdown covers
     *        only the slots charged after this snapshot (the no-
     *        progress window); otherwise it covers the whole run.
     */
    DeadlockReport
    deadlockSnapshot(const ProgressMonitor &monitor,
                     ProgressMonitor::Verdict verdict, Cycle now,
                     const arch::StallSnapshot *since = nullptr,
                     int starved_tenant = -1) const;

    /**
     * Multi-SM instance identity for tracing: pid @a pid in the trace
     * and a ".sm<pid>" suffix on the output path. No-op when tracing
     * is disabled.
     */
    void setTraceInstance(unsigned pid);

    /**
     * Flush and write the trace file if tracing is enabled (called by
     * collect(); exposed so deadlocked runs still get their trace).
     * Idempotent per run.
     */
    void writeTrace();

  private:
    /** Shared tail of every ctor: memory, provider, SM. */
    void assemble(std::shared_ptr<mem::DramModel> shared_dram);

    void harvest(RunStats &stats);

    GpuConfig _config;
    std::vector<std::shared_ptr<const compiler::CompiledKernel>> _cks;
    std::unique_ptr<mem::MemorySystem> _mem;
    std::vector<std::unique_ptr<regfile::RegisterProvider>> _providers;
    std::unique_ptr<regfile::TenantArbiter> _arbiter;
    std::unique_ptr<arch::Sm> _sm;

    /** @name QoS controller state (inert unless _qosActive). */
    /// @{
    bool _qosActive = false;
    bool _qosHogsParked = false;
    std::vector<unsigned> _qosHogs;      ///< best-effort tenant ids
    std::vector<unsigned> _qosSensitive; ///< priority tenant ids
    Cycle _qosRunWindow = 0; ///< hog run share of each interval
    /// @}
    std::unique_ptr<FaultInjector> _injector;
    std::unique_ptr<TraceWriter> _trace;
    unsigned _tracePid = 0;
    std::string _tracePath;
    bool _traceWritten = false;
};

} // namespace regless::sim

#endif // REGLESS_SIM_GPU_SIMULATOR_HH
