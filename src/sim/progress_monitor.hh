/**
 * @file
 * Forward-progress watchdog for the cycle loops (DESIGN.md §9).
 *
 * RegLess's capacity manager is supposed to guarantee forward
 * progress (§4.4); the ProgressMonitor is the defence for when that
 * invariant — or any other part of the machine — breaks. The run loop
 * feeds it a monotonic progress metric (retired instructions plus CM
 * activations) every cycle; the monitor trips when the metric is
 * flat for a configurable window, when a hard cycle budget is
 * exceeded, or when an optional wall-clock deadline passes. The
 * caller then assembles a DeadlockReport and throws DeadlockError.
 */

#ifndef REGLESS_SIM_PROGRESS_MONITOR_HH
#define REGLESS_SIM_PROGRESS_MONITOR_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace regless::sim
{

/** Watchdog over one simulation's cycle loop. */
class ProgressMonitor
{
  public:
    enum class Verdict
    {
        Ok,
        Stalled,     ///< no progress for a full watchdog window
        CycleBudget, ///< hard maxCycles budget exceeded
        WallTimeout, ///< wall-clock deadline passed
    };

    /**
     * @param window Cycles without progress before Stalled
     *        (0 disables the stall check).
     * @param max_cycles Hard cycle budget (0 disables).
     * @param wall_timeout_sec Wall-clock budget for the whole run
     *        (0 disables). Checked coarsely, every few thousand
     *        cycles, so healthy runs never pay for a syscall per
     *        cycle.
     */
    ProgressMonitor(Cycle window, Cycle max_cycles,
                    double wall_timeout_sec = 0.0);

    /**
     * Record the progress metric at @a now and judge the run.
     * @param progress Any monotonically non-decreasing activity count
     *        (retired instructions + provider progress events).
     */
    Verdict check(Cycle now, std::uint64_t progress);

    /** Cycle of the last observed progress-metric increase. */
    Cycle lastProgressCycle() const { return _lastProgressCycle; }

    /**
     * @name Per-tenant starvation tracking (DESIGN.md §16).
     *
     * The global metric sums all tenants, so one starved tenant is
     * invisible behind a co-runner's progress. trackTenants() arms a
     * per-tenant window; the run loop then feeds each tenant's own
     * metric through checkTenant() every time it checks the whole SM.
     */
    /// @{
    /** Arm per-tenant tracking for @a count tenants. */
    void trackTenants(unsigned count);

    /**
     * Record tenant @a t's progress metric at @a now; true when the
     * tenant is starved (no progress for a full window). @a exempt
     * (suspended or finished tenants) restarts the window instead of
     * judging — a tenant parked by the QoS controller is not starved.
     */
    bool checkTenant(unsigned t, Cycle now, std::uint64_t progress,
                     bool exempt);
    /// @}

    Cycle window() const { return _window; }
    Cycle maxCycles() const { return _maxCycles; }

    /**
     * Skip ceiling for the cycle-skip engine: the earliest future
     * cycle at which this monitor could return a non-Ok verdict or
     * poll the wall clock. Clamping skip jumps to this bound makes
     * watchdog trips land on exactly the same cycle as cycle-by-cycle
     * stepping (the deadlock-report determinism the oracle tests
     * check), and keeps the coarse wall-clock poll alive.
     * @param now The cycle loop's current cycle.
     */
    Cycle skipLimit(Cycle now) const;

    /** Human-readable reason for a non-Ok verdict. */
    static const char *reason(Verdict verdict);

  private:
    struct TenantTrack
    {
        std::uint64_t lastProgress = 0;
        Cycle lastProgressCycle = 0;
        bool exempt = false;
    };

    Cycle _window;
    Cycle _maxCycles;
    double _wallTimeoutSec;
    std::chrono::steady_clock::time_point _start;
    std::uint64_t _lastProgress = 0;
    Cycle _lastProgressCycle = 0;
    std::vector<TenantTrack> _tenants;
};

} // namespace regless::sim

#endif // REGLESS_SIM_PROGRESS_MONITOR_HH
