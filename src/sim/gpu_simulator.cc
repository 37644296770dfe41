#include "sim/gpu_simulator.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "sim/provider_registry.hh"

namespace regless::sim
{

namespace
{

const char *
warpStatusName(arch::WarpStatus s)
{
    switch (s) {
      case arch::WarpStatus::Running:
        return "running";
      case arch::WarpStatus::AtBarrier:
        return "at_barrier";
      case arch::WarpStatus::Finished:
        return "finished";
    }
    return "?";
}

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace

std::function<std::uint32_t(Addr)>
GpuSimulator::valueGenerator(const ir::ValueProfile &profile)
{
    return [profile](Addr addr) -> std::uint32_t {
        const std::uint64_t line = addr / 128;
        const unsigned off = static_cast<unsigned>((addr % 128) / 4);
        const std::uint64_t h = mix64(line + 0x1234'5678);
        double sel =
            static_cast<double>(h >> 40) / static_cast<double>(1 << 24);
        const std::uint32_t base =
            static_cast<std::uint32_t>(mix64(line * 2654435761ull + 1));
        if ((sel -= profile.constantFrac) < 0.0)
            return base;
        if ((sel -= profile.stride1Frac) < 0.0)
            return base + off;
        if ((sel -= profile.stride4Frac) < 0.0)
            return base + 4 * off;
        if ((sel -= profile.halfWarpFrac) < 0.0) {
            if (off < 16)
                return base + off;
            return static_cast<std::uint32_t>(mix64(line * 31 + 7)) +
                   (off - 16);
        }
        return static_cast<std::uint32_t>(mix64(addr));
    };
}

GpuSimulator::GpuSimulator(const ir::Kernel &kernel, GpuConfig config)
    : GpuSimulator(kernel, std::move(config), nullptr)
{
}

GpuSimulator::GpuSimulator(const ir::Kernel &kernel, GpuConfig config,
                           std::shared_ptr<mem::DramModel> shared_dram)
    : _config(std::move(config))
{
    _cks.push_back(std::make_unique<compiler::CompiledKernel>(
        compiler::compile(kernel, _config.compiler)));
    assemble(std::move(shared_dram));
}

GpuSimulator::GpuSimulator(const std::vector<ir::Kernel> &kernels,
                           GpuConfig config)
    : GpuSimulator(kernels, std::move(config), nullptr)
{
}

GpuSimulator::GpuSimulator(const std::vector<ir::Kernel> &kernels,
                           GpuConfig config,
                           std::shared_ptr<mem::DramModel> shared_dram)
    : _config(std::move(config))
{
    if (kernels.empty())
        fatal("multi-tenant launch needs at least one kernel");
    for (const ir::Kernel &kernel : kernels) {
        _cks.push_back(std::make_unique<compiler::CompiledKernel>(
            compiler::compile(kernel, _config.compiler)));
    }
    assemble(std::move(shared_dram));
}

GpuSimulator::GpuSimulator(compiler::CompiledKernel ck, GpuConfig config)
    : _config(std::move(config))
{
    _cks.push_back(
        std::make_unique<compiler::CompiledKernel>(std::move(ck)));
    assemble(nullptr);
}

void
GpuSimulator::assemble(std::shared_ptr<mem::DramModel> shared_dram)
{
    const auto num_tenants = static_cast<unsigned>(_cks.size());

    _mem = shared_dram
               ? std::make_unique<mem::MemorySystem>(
                     _config.mem, std::move(shared_dram))
               : std::make_unique<mem::MemorySystem>(_config.mem);

    if (num_tenants == 1) {
        _mem->setValueGenerator(
            valueGenerator(_cks[0]->kernel().valueProfile()));
    } else {
        // Composed generator: tenant t's data and shared segments are
        // translated back to the solo-run address space, so every
        // tenant reads the same values at the same kernel-relative
        // addresses it would read running alone (the memory-image
        // parity the preemption tests assert).
        std::vector<std::function<std::uint32_t(Addr)>> gens;
        gens.reserve(num_tenants);
        for (const auto &ck : _cks)
            gens.push_back(valueGenerator(ck->kernel().valueProfile()));
        const Addr data_base = _config.sm.dataBase;
        const Addr data_stride = _config.tenants.dataStride;
        const Addr shared_base = _config.sm.sharedBase;
        const Addr shared_stride = _config.tenants.sharedStride;
        if (data_stride == 0 || shared_stride == 0)
            fatal("tenant address strides must be non-zero");
        if (data_base + num_tenants * data_stride > shared_base &&
            data_base < shared_base) {
            fatal("tenant data segments would overrun the shared "
                  "segment base");
        }
        _mem->setValueGenerator(
            [gens, data_base, data_stride, shared_base,
             shared_stride](Addr addr) -> std::uint32_t {
                if (addr >= shared_base) {
                    const Addr t = (addr - shared_base) / shared_stride;
                    if (t < gens.size())
                        return gens[t](addr - t * shared_stride);
                    return gens[0](addr);
                }
                if (addr >= data_base) {
                    const Addr t = (addr - data_base) / data_stride;
                    if (t < gens.size())
                        return gens[t](addr - t * data_stride);
                }
                return gens[0](addr);
            });
    }

    const ProviderDescriptor &desc =
        providerDescriptor(_config.provider);

    // Occupancy limit: a fixed architectural register file can only
    // host rfEntries / kernelRegs warps. Virtualising designs
    // oversubscribe the name space and keep full occupancy.
    // Single-tenant only: under co-residency each tenant already runs
    // a fixed warp partition.
    if (num_tenants == 1 && _config.limitOccupancyByRf &&
        desc.fixedArchitecturalRf) {
        unsigned regs = std::max(1u, _cks[0]->kernel().numRegs());
        unsigned wpb = _cks[0]->kernel().warpsPerBlock();
        unsigned fit = _config.baselineRfEntries / regs;
        fit = std::max(wpb, fit - fit % wpb); // block granularity
        if (fit < _config.sm.numWarps) {
            inform("occupancy limited to ", fit, " of ",
                   _config.sm.numWarps, " resident warps (", regs,
                   " registers per warp)");
            _config.sm.maxResidentWarps = fit;
        }
    }

    if (_config.sm.numWarps % num_tenants != 0) {
        fatal(num_tenants, " tenants must divide ",
              _config.sm.numWarps, " warps evenly");
    }
    const unsigned warp_count = _config.sm.numWarps / num_tenants;

    auto priority_of = [this](unsigned t) -> unsigned {
        return t < _config.tenants.workloads.size()
                   ? _config.tenants.workloads[t].priority
                   : 0;
    };

    std::vector<arch::SmTenantSpec> specs;
    for (unsigned t = 0; t < num_tenants; ++t) {
        _providers.push_back(desc.make(*_cks[t], *_mem, _config,
                                       t * warp_count, warp_count));
        arch::SmTenantSpec spec;
        spec.ck = _cks[t].get();
        spec.provider = _providers[t].get();
        spec.dataBase =
            _config.sm.dataBase + t * _config.tenants.dataStride;
        spec.sharedBase =
            _config.sm.sharedBase + t * _config.tenants.sharedStride;
        specs.push_back(spec);
    }

    // The capacity arbiter caps the tenants' summed staged footprint
    // at the one physical OSU's size; each provider registers its
    // live-usage callback and installs the admission gate in its CMs.
    if (num_tenants >= 2) {
        _arbiter = std::make_unique<regfile::TenantArbiter>(
            _config.tenants.policy, _config.regless.osuEntriesPerSm);
        if (_config.tenants.quotaLines)
            _arbiter->setQuotaLines(_config.tenants.quotaLines);
        _arbiter->setReserveFraction(_config.tenants.reserveFrac);
        for (unsigned t = 0; t < num_tenants; ++t)
            _providers[t]->joinTenantArbiter(*_arbiter, t,
                                             priority_of(t));
    }

    _sm = std::make_unique<arch::Sm>(std::move(specs), *_mem,
                                     _config.sm);

    for (auto &provider : _providers) {
        provider->bindWarpSource(
            [this](WarpId w) -> const arch::Warp & {
                return _sm->warp(w);
            });
    }

    if (_config.trace.enabled) {
        _trace = std::make_unique<TraceWriter>();
        _tracePath = _config.trace.path + ".sm0";
        _sm->setStallTraceHook([this](WarpId warp, const char *label,
                                      Cycle from, Cycle to) {
            _trace->addComplete(_tracePid, warp, label, from,
                                to - from);
        });
        for (unsigned t = 0; t < num_tenants; ++t) {
            // Tenant lane prefix only under co-residency, so single-
            // tenant traces stay byte-identical.
            const std::string prefix =
                num_tenants >= 2 ? "t" + std::to_string(t) + " " : "";
            _providers[t]->setActivationObserver(
                [this, prefix](WarpId warp, compiler::RegionId region,
                               Cycle now) {
                    _trace->addInstant(_tracePid, warp,
                                       prefix + "cm_activate r" +
                                           std::to_string(region),
                                       now);
                });
        }
    }

    if (_config.faults.kind != FaultPlan::Kind::None) {
        _injector = std::make_unique<FaultInjector>(_config.faults);
        _mem->setFaultInjector(_injector.get());
        for (auto &provider : _providers)
            provider->setFaultInjector(_injector.get());
    }

    // QoS controller: arm only when both classes are present.
    if (num_tenants >= 2 && _config.tenants.qosPreemption) {
        for (unsigned t = 0; t < num_tenants; ++t) {
            (priority_of(t) > 0 ? _qosSensitive : _qosHogs)
                .push_back(t);
        }
        if (!_qosHogs.empty() && !_qosSensitive.empty()) {
            _qosActive = true;
            const Cycle interval =
                std::max<Cycle>(1, _config.tenants.qosInterval);
            _qosRunWindow = std::min<Cycle>(
                interval,
                static_cast<Cycle>(static_cast<double>(interval) *
                                   _config.tenants.qosShare));
        }
    }
}

GpuSimulator::~GpuSimulator() = default;

std::vector<compiler::Finding>
GpuSimulator::runtimeViolations() const
{
    std::vector<compiler::Finding> all;
    for (const auto &provider : _providers) {
        auto v = provider->runtimeViolations();
        all.insert(all.end(), v.begin(), v.end());
    }
    return all;
}

std::uint64_t
GpuSimulator::providerProgressEvents() const
{
    std::uint64_t events = 0;
    for (const auto &provider : _providers)
        events += provider->progressEvents();
    return events;
}

void
GpuSimulator::qosPoll(Cycle now)
{
    if (!_qosActive)
        return;
    bool sensitive_done = true;
    for (unsigned t : _qosSensitive)
        sensitive_done &= _sm->tenantDone(t);
    if (sensitive_done) {
        // Every latency-sensitive tenant retired: hand the machine
        // back to the throughput tenants for good.
        for (unsigned t : _qosHogs)
            _sm->resumeTenant(t, now);
        _qosHogsParked = false;
        _qosActive = false;
        return;
    }
    const Cycle interval =
        std::max<Cycle>(1, _config.tenants.qosInterval);
    const bool run_phase = now % interval < _qosRunWindow;
    if (!run_phase && !_qosHogsParked) {
        for (unsigned t : _qosHogs)
            _sm->requestSuspend(t, now);
        _qosHogsParked = true;
    } else if (run_phase && _qosHogsParked) {
        for (unsigned t : _qosHogs)
            _sm->resumeTenant(t, now);
        _qosHogsParked = false;
    }
}

Cycle
GpuSimulator::qosNextDecision(Cycle now) const
{
    if (!_qosActive)
        return std::numeric_limits<Cycle>::max() / 2;
    const Cycle interval =
        std::max<Cycle>(1, _config.tenants.qosInterval);
    const Cycle in = now % interval;
    return in < _qosRunWindow ? now + (_qosRunWindow - in)
                              : now + (interval - in);
}

void
GpuSimulator::advanceEpoch(Cycle epoch_end)
{
    const bool skip = _config.sm.cycleSkip;
    while (!_sm->done() && _sm->now() < epoch_end) {
        qosPoll(_sm->now());
        if (skip) {
            Cycle limit = epoch_end;
            if (_qosActive)
                limit = std::min(limit, qosNextDecision(_sm->now()));
            _sm->stepSkipping(limit);
        } else {
            _sm->step();
        }
    }
}

void
GpuSimulator::harvest(RunStats &stats)
{
    stats.insns = _sm->totalInsns();

    // Issue-slot attribution (provider-independent): issued + stalled
    // slots sum to numSchedulers * cycles exactly.
    stats.issuedSlots = _sm->issuedSlots();
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
        stats.stallSlots[c] =
            _sm->stallSlots(static_cast<arch::StallCause>(c));
    }

    // Cycle-skip meta-counters: how much of the run was collapsed.
    // Definitionally zero in skip-off reference runs; the differential
    // oracle zeroes them on both sides before comparing.
    stats.skippedCycles = _sm->skippedCycles();
    stats.skipEvents = _sm->skipEvents();

    // Memory hierarchy counts.
    auto cache_accesses = [](const mem::Cache &cache) {
        return cache.stats().value("hits") + cache.stats().value("misses");
    };
    stats.l1Accesses = cache_accesses(_mem->l1());
    stats.l2Accesses = cache_accesses(_mem->l2());
    stats.dramAccesses = _mem->dram().stats().value("accesses");

    // Provider-specific counters: each registry descriptor knows how
    // to harvest its own design. Multi-tenant runs collect tenant 0
    // into the run and fold the other tenants' providers in under the
    // field list's merge rules (counters sum, means stay tenant 0's).
    const ProviderDescriptor &desc =
        providerDescriptor(_config.provider);
    desc.collect(*_providers[0], stats);
    for (std::size_t t = 1; t < _providers.size(); ++t) {
        RunStats lane;
        desc.collect(*_providers[t], lane);
        mergeRunStats(stats, lane);
    }
    if (_cks.size() > 1) {
        stats.tenants.resize(_cks.size());
        for (unsigned t = 0; t < static_cast<unsigned>(_cks.size());
             ++t) {
            TenantLane &lane = stats.tenants[t];
            lane.kernel = _cks[t]->kernel().name();
            lane.insns = _sm->tenantInsns(t);
            lane.issuedSlots = _sm->tenantIssuedSlots(t);
            for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
                lane.stallSlots[c] = _sm->tenantStallSlots(
                    t, static_cast<arch::StallCause>(c));
            }
            lane.finishCycle = _sm->tenantFinishCycle(t);
            lane.suspendedCycles = _sm->tenantSuspendedCycles(t);
            lane.preemptions = _sm->tenantPreemptions(t);
        }
    }

    stats.staticInsnsPerRegion = _cks[0]->meanInsnsPerRegion();
    stats.numRegions =
        static_cast<unsigned>(_cks[0]->regions().size());

    computeEnergy(stats, _config);
}

void
GpuSimulator::dumpStats(std::ostream &os)
{
    _sm->stats().dump(os);
    for (auto &provider : _providers)
        provider->dumpStats(os);
    _mem->stats().dump(os);
    _mem->l1().stats().dump(os);
    _mem->l2().stats().dump(os);
    _mem->dram().stats().dump(os);
}

DeadlockReport
GpuSimulator::deadlockSnapshot(const ProgressMonitor &monitor,
                               ProgressMonitor::Verdict verdict,
                               Cycle now,
                               const arch::StallSnapshot *since,
                               int starved_tenant) const
{
    DeadlockReport report;
    report.kernel = _cks[0]->kernel().name();
    report.reason = ProgressMonitor::reason(verdict);
    report.cycle = now;
    report.lastProgressCycle = monitor.lastProgressCycle();
    report.watchdogWindow = monitor.window();
    report.maxCycles = monitor.maxCycles();
    report.insnsIssued = _sm->totalInsns();
    report.progressEvents =
        _sm->totalInsns() + providerProgressEvents();

    if (starved_tenant >= 0) {
        const auto t = static_cast<unsigned>(starved_tenant);
        report.starvedTenant = starved_tenant;
        report.starvedTenantKernel = _cks[t]->kernel().name();
        // The tenant's dominant stall cause over the whole run,
        // preferring causes that pin a live warp over no_warp.
        std::size_t top = 0;
        std::uint64_t top_slots = 0;
        std::uint64_t no_warp_slots = 0;
        for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
            const auto cause = static_cast<arch::StallCause>(c);
            const std::uint64_t slots =
                _sm->tenantStallSlots(t, cause);
            if (cause == arch::StallCause::NoWarp) {
                no_warp_slots = slots;
                continue;
            }
            if (slots > top_slots) {
                top_slots = slots;
                top = c;
            }
        }
        if (top_slots > 0) {
            report.starvedTenantStall = arch::stallCauseName(
                static_cast<arch::StallCause>(top));
        } else {
            report.starvedTenantStall =
                no_warp_slots > 0 ? "no_warp" : "none";
        }
    }

    for (const arch::Warp &w : _sm->warps()) {
        if (w.finished())
            continue;
        std::ostringstream os;
        os << "w" << w.id() << ": " << warpStatusName(w.status())
           << " pc=" << w.pc() << " insns=" << w.insnsExecuted();
        // The warp's dominant stall cause over the whole run.
        const auto &ws = _sm->warpStalls(w.id());
        std::size_t top = 0;
        for (std::size_t c = 1; c < arch::kNumStallCauses; ++c) {
            if (ws[c] > ws[top])
                top = c;
        }
        if (ws[top] > 0) {
            os << " stall="
               << arch::stallCauseName(
                      static_cast<arch::StallCause>(top));
        }
        _providers[_sm->tenantOfWarp(w.id())]->describeWarp(w.id(),
                                                           os);
        report.warps.push_back(os.str());
    }

    for (const auto &provider : _providers)
        provider->describeStorage(report.banks);

    std::ostringstream mem;
    mem << "L1 MSHRs in use: " << _mem->l1().mshrsInUse()
        << ", L2 MSHRs in use: " << _mem->l2().mshrsInUse();
    report.memState = mem.str();

    // Slot attribution over the no-progress window (or the whole run
    // when no baseline snapshot is supplied).
    const arch::StallSnapshot cur = _sm->slotSnapshot();
    const arch::StallSnapshot base =
        since ? *since : arch::StallSnapshot{};
    {
        std::ostringstream os;
        os << "issued: " << cur.issuedSlots - base.issuedSlots
           << " slots";
        report.stallBreakdown.push_back(os.str());
    }
    std::size_t top = 0;
    std::uint64_t top_delta = 0;
    std::uint64_t no_warp_delta = 0;
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
        const std::uint64_t delta =
            cur.stallSlots[c] - base.stallSlots[c];
        if (delta == 0)
            continue;
        const auto cause = static_cast<arch::StallCause>(c);
        std::ostringstream os;
        os << arch::stallCauseName(cause) << ": " << delta << " slots";
        report.stallBreakdown.push_back(os.str());
        // NoWarp marks schedulers with nothing runnable (e.g. groups
        // whose warps all finished); it never outranks a cause that
        // actually pins a live warp.
        if (cause == arch::StallCause::NoWarp) {
            no_warp_delta = delta;
            continue;
        }
        if (delta > top_delta) {
            top_delta = delta;
            top = c;
        }
    }
    if (top_delta > 0) {
        report.dominantStall =
            arch::stallCauseName(static_cast<arch::StallCause>(top));
    } else {
        report.dominantStall = no_warp_delta > 0 ? "no_warp" : "none";
    }
    return report;
}

void
GpuSimulator::setTraceInstance(unsigned pid)
{
    if (!_trace)
        return;
    _tracePid = pid;
    _tracePath = _config.trace.path + ".sm" + std::to_string(pid);
}

void
GpuSimulator::writeTrace()
{
    if (!_trace || _traceWritten)
        return;
    _sm->flushStallTrace();
    std::ofstream out(_tracePath, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot write trace file '", _tracePath, "'");
    _trace->write(out);
    out << "\n";
    if (!out)
        fatal("error writing trace file '", _tracePath, "'");
    _traceWritten = true;
}

RunStats
GpuSimulator::run(double wall_timeout_sec)
{
    ProgressMonitor monitor(_config.sm.watchdogWindow,
                            _config.sm.maxCycles, wall_timeout_sec);
    const auto num_tenants =
        static_cast<unsigned>(_sm->tenantCount());
    if (num_tenants >= 2)
        monitor.trackTenants(num_tenants);
    // Slot counters as of the last progress event, so a deadlock
    // report can attribute the stalled window specifically.
    arch::StallSnapshot at_progress = _sm->slotSnapshot();
    Cycle last_progress = monitor.lastProgressCycle();
    const bool skip = _config.sm.cycleSkip;
    while (!_sm->done()) {
        qosPoll(_sm->now());
        if (skip) {
            Cycle limit = monitor.skipLimit(_sm->now());
            if (_qosActive)
                limit = std::min(limit, qosNextDecision(_sm->now()));
            _sm->stepSkipping(limit);
        } else {
            _sm->step();
        }
        auto verdict = monitor.check(
            _sm->now(), _sm->totalInsns() + providerProgressEvents());
        int starved = -1;
        if (verdict == ProgressMonitor::Verdict::Ok &&
            num_tenants >= 2) {
            // Per-tenant starvation: the summed metric above cannot
            // see one tenant pinned while its co-runner progresses.
            // Suspended and finished tenants are exempt (their window
            // restarts); a suspend still draining is not — a stuck
            // handoff is exactly what this must catch.
            for (unsigned t = 0; t < num_tenants; ++t) {
                const bool exempt =
                    _sm->tenantSuspended(t) || _sm->tenantDone(t);
                const std::uint64_t progress =
                    _sm->tenantInsns(t) +
                    _providers[t]->progressEvents();
                if (monitor.checkTenant(t, _sm->now(), progress,
                                        exempt) &&
                    starved < 0) {
                    starved = static_cast<int>(t);
                }
            }
            if (starved >= 0)
                verdict = ProgressMonitor::Verdict::Stalled;
        }
        if (verdict != ProgressMonitor::Verdict::Ok) {
            writeTrace(); // a deadlocked run still gets its timeline
            throw DeadlockError(deadlockSnapshot(monitor, verdict,
                                                 _sm->now(),
                                                 &at_progress,
                                                 starved));
        }
        if (monitor.lastProgressCycle() != last_progress) {
            last_progress = monitor.lastProgressCycle();
            at_progress = _sm->slotSnapshot();
        }
    }
    return collect();
}

RunStats
GpuSimulator::collect()
{
    if (!_sm->done())
        fatal("collect() before the kernel finished");
    writeTrace();
    RunStats stats;
    stats.kernel = _cks[0]->kernel().name();
    for (std::size_t t = 1; t < _cks.size(); ++t)
        stats.kernel += "+" + _cks[t]->kernel().name();
    stats.provider = _config.provider;
    stats.cycles = _sm->now();
    harvest(stats);
    return stats;
}

} // namespace regless::sim
