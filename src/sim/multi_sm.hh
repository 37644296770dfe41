/**
 * @file
 * Multi-SM simulation: N SMs advanced in lockstep, each with its own
 * warps, operand provider, L1 and L2 slice, all contending for one
 * shared DRAM. The GPU of Table 1 has 16 SMs; the single-SM default
 * approximates their shared-resource pressure analytically (a
 * bandwidth share), while this runs the contention for real.
 *
 * Modelling notes: every SM executes the same kernel over its own
 * 64-warp grid slice (functional state is per-SM, so there is no
 * cross-SM data sharing — matching how Rodinia kernels partition
 * work). Each kernel is compiled once, and every SM reads the same
 * read-only CompiledKernel. The shared L2 is approximated as per-SM
 * slices of the 2 MB total, which is how physically banked GPU L2s
 * behave for interleaved, non-shared working sets.
 *
 * Execution model: SMs advance in barrier-synchronized epochs of
 * epochCycles cycles. Within an epoch each SM touches only its own
 * state plus its private DRAM port, so the epochs run on a thread
 * pool; at each barrier the shared DRAM drains the epoch's requests in
 * fixed SM-id order (see DramModel). Results are therefore
 * bit-identical for every thread count — threads == 1 runs the same
 * protocol inline and is the serial reference.
 */

#ifndef REGLESS_SIM_MULTI_SM_HH
#define REGLESS_SIM_MULTI_SM_HH

#include <memory>
#include <vector>

#include "ir/kernel.hh"
#include "sim/gpu_config.hh"
#include "sim/gpu_simulator.hh"
#include "sim/run_stats.hh"

namespace regless::sim
{

/** N SMs sharing DRAM. */
class MultiSmSimulator
{
  public:
    /**
     * Cycles per epoch (barrier interval). Small against the 220-cycle
     * DRAM latency, so the one-epoch staleness of cross-SM queueing is
     * negligible; large enough to amortize the barrier. Fixed — the
     * epoch length is part of the arbitration semantics, and changing
     * it changes results (thread count never does).
     */
    static constexpr Cycle epochCycles = 32;

    /**
     * @param kernel Kernel every SM executes.
     * @param config Per-SM configuration; the DRAM bandwidth share is
     *        forced to 1.0 (contention is simulated, not scaled) and
     *        the L2 is sliced num_sms ways.
     * @param num_sms Number of SMs to instantiate.
     * @param threads Worker threads for run(): 0 picks
     *        min(num_sms, hardware_concurrency); 1 is the serial
     *        reference path. Any value yields bit-identical results.
     */
    MultiSmSimulator(const ir::Kernel &kernel, GpuConfig config,
                     unsigned num_sms, unsigned threads = 0);

    /**
     * Multi-tenant variant: every SM co-hosts all of @a kernels under
     * config.tenants (DESIGN.md §16). One kernel is exactly the
     * classic constructor.
     */
    MultiSmSimulator(const std::vector<ir::Kernel> &kernels,
                     GpuConfig config, unsigned num_sms,
                     unsigned threads = 0);

    ~MultiSmSimulator();

    MultiSmSimulator(const MultiSmSimulator &) = delete;
    MultiSmSimulator &operator=(const MultiSmSimulator &) = delete;

    /**
     * Run all SMs to completion in lockstep epochs.
     *
     * The whole GPU runs under one forward-progress watchdog (summed
     * progress across SMs, checked at epoch barriers); a trip throws
     * DeadlockError with the first stuck SM's snapshot. An exception
     * raised inside any SM's epoch is captured on its worker thread
     * and rethrown after the barrier — lowest SM id first, so the
     * surfaced error is independent of the thread count.
     *
     * @param wall_timeout_sec Wall-clock budget (0 = unlimited).
     * @return aggregate stats: cycles = slowest SM, traffic and energy
     * summed across SMs.
     */
    RunStats run(double wall_timeout_sec = 0.0);

    /** Per-SM results (valid after run()). */
    const std::vector<RunStats> &perSm() const { return _perSm; }

    /** The shared DRAM model (for queueing statistics). */
    mem::DramModel &dram() { return *_dram; }

  private:
    /**
     * One SM's machinery. Mirrors GpuSimulator's wiring but with the
     * externally shared DRAM.
     */
    struct Instance;

    GpuConfig _config;
    std::shared_ptr<mem::DramModel> _dram;
    std::vector<std::unique_ptr<Instance>> _sms;
    std::vector<RunStats> _perSm;
    unsigned _threads = 1;
};

} // namespace regless::sim

#endif // REGLESS_SIM_MULTI_SM_HH
