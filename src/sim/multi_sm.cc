#include "sim/multi_sm.hh"

#include <algorithm>
#include <exception>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace regless::sim
{

struct MultiSmSimulator::Instance
{
    explicit Instance(std::unique_ptr<GpuSimulator> s)
        : simulator(std::move(s))
    {
    }
    std::unique_ptr<GpuSimulator> simulator;
    /** Slot counters as of the GPU's last progress event, so a
     *  deadlock report can attribute the stalled window. */
    arch::StallSnapshot atProgress;
};

MultiSmSimulator::MultiSmSimulator(const ir::Kernel &kernel,
                                   GpuConfig config, unsigned num_sms,
                                   unsigned threads)
    : MultiSmSimulator(std::vector<ir::Kernel>{kernel},
                       std::move(config), num_sms, threads)
{
}

MultiSmSimulator::MultiSmSimulator(const std::vector<ir::Kernel> &kernels,
                                   GpuConfig config, unsigned num_sms,
                                   unsigned threads)
    : _config(std::move(config))
{
    if (num_sms == 0)
        fatal("multi-SM simulation needs at least one SM");

    // Contention is simulated, not scaled: each SM sees the full DRAM
    // and an L2 slice.
    _config.mem.dram.bandwidthShare = 1.0;
    _config.mem.l2.sizeBytes =
        std::max(64u * 1024u, _config.mem.l2.sizeBytes / num_sms);
    _dram = std::make_shared<mem::DramModel>(_config.mem.dram);

    // Every SM runs the same tenants: compile each kernel once and
    // share the read-only result across the SMs and their threads.
    std::vector<std::shared_ptr<const compiler::CompiledKernel>> cks;
    for (const ir::Kernel &kernel : kernels) {
        cks.push_back(std::make_shared<const compiler::CompiledKernel>(
            compiler::compile(kernel, _config.compiler)));
    }
    for (unsigned i = 0; i < num_sms; ++i) {
        _sms.push_back(std::make_unique<Instance>(
            std::make_unique<GpuSimulator>(cks, _config, _dram)));
    }

    // Deterministic sharing: each SM submits DRAM traffic through its
    // own port; cross-SM arbitration happens at the epoch barrier in
    // SM-id order, regardless of thread schedule.
    _dram->enableEpochMode(num_sms);
    for (unsigned i = 0; i < num_sms; ++i) {
        _sms[i]->simulator->memory().setDramPort(i);
        _sms[i]->simulator->setTraceInstance(i);
    }

    _threads = threads == 0 ? ThreadPool::defaultThreads(num_sms)
                            : std::min(threads, num_sms);
}

MultiSmSimulator::~MultiSmSimulator() = default;

RunStats
MultiSmSimulator::run(double wall_timeout_sec)
{
    ThreadPool pool(_threads);
    ProgressMonitor monitor(_config.sm.watchdogWindow,
                            _config.sm.maxCycles, wall_timeout_sec);
    // Per-SM exception slots: an exception escaping a worker thread
    // would terminate the process, so each epoch lambda captures its
    // own and the barrier rethrows the lowest SM id's (deterministic
    // for every thread count).
    std::vector<std::exception_ptr> errors(_sms.size());
    // Per-tenant starvation is judged SM by SM: SM i's tenant t uses
    // tenant track i * num_tenants + t.
    const unsigned num_tenants = _sms.front()->simulator->tenantCount();
    if (num_tenants >= 2) {
        monitor.trackTenants(static_cast<unsigned>(_sms.size()) *
                             num_tenants);
    }
    Cycle last_progress = monitor.lastProgressCycle();
    bool all_done = false;
    while (!all_done) {
        // Parallel phase: each SM advances one epoch against its own
        // state and its snapshot view of the DRAM channels.
        pool.parallelFor(_sms.size(), [this, &errors](std::size_t i) {
            try {
                GpuSimulator &gpu = *_sms[i]->simulator;
                // The epoch body (with its QoS polling and skip-jump
                // clamping to the boundary) is SM-local, so it is safe
                // on the worker threads. Skip jumps never pass the
                // epoch boundary, so the DRAM drain and watchdog
                // checks happen at the exact same barrier cycles as
                // plain stepping.
                gpu.advanceEpoch(gpu.sm().now() + epochCycles);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
        // Barrier phase: arbitrate the epoch's DRAM traffic in SM-id
        // order and resnapshot.
        _dram->drainEpoch();

        for (auto &err : errors) {
            if (err)
                std::rethrow_exception(err);
        }

        all_done = true;
        Cycle now = 0;
        std::uint64_t progress = 0;
        for (auto &instance : _sms) {
            GpuSimulator &gpu = *instance->simulator;
            if (!gpu.sm().done())
                all_done = false;
            now = std::max(now, gpu.sm().now());
            progress += gpu.sm().totalInsns() +
                        gpu.providerProgressEvents();
        }
        if (all_done)
            break;

        auto verdict = monitor.check(now, progress);
        // A starved tenant is reported by its SM (the lowest id if
        // several), any other trip by the lowest unfinished SM.
        Instance *culprit = nullptr;
        int starved = -1;
        if (verdict == ProgressMonitor::Verdict::Ok && num_tenants >= 2) {
            for (std::size_t i = 0; i < _sms.size() && !culprit; ++i) {
                starved = _sms[i]->simulator->starvedTenant(
                    monitor, static_cast<unsigned>(i) * num_tenants, now);
                if (starved >= 0) {
                    culprit = _sms[i].get();
                    verdict = ProgressMonitor::Verdict::Stalled;
                }
            }
        } else if (verdict != ProgressMonitor::Verdict::Ok) {
            for (auto &instance : _sms) {
                if (!instance->simulator->sm().done()) {
                    culprit = instance.get();
                    break;
                }
            }
        }
        if (culprit) {
            for (auto &instance : _sms)
                instance->simulator->writeTrace();
            throw DeadlockError(culprit->simulator->deadlockSnapshot(
                monitor, verdict, now, &culprit->atProgress, starved));
        }
        if (monitor.lastProgressCycle() != last_progress) {
            last_progress = monitor.lastProgressCycle();
            for (auto &instance : _sms)
                instance->atProgress =
                    instance->simulator->sm().slotSnapshot();
        }
    }

    _perSm.clear();
    for (auto &instance : _sms)
        _perSm.push_back(instance->simulator->collect());

    // Aggregate under the field list's merge rules: wall clock is the
    // slowest SM, counters and energies sum, means are SM 0's.
    RunStats total = _perSm.front();
    for (std::size_t i = 1; i < _perSm.size(); ++i)
        mergeRunStats(total, _perSm[i]);
    // The shared DRAM's accesses were counted once per instance
    // harvest; take them from the shared model directly.
    total.dramAccesses = _dram->stats().accesses;
    return total;
}

} // namespace regless::sim
