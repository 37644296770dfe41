#include "regless/regless_provider.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "regfile/tenant_arbiter.hh"

namespace regless::staging
{

ReglessProvider::ReglessProvider(const compiler::CompiledKernel &ck,
                                 mem::MemorySystem &mem,
                                 const ReglessConfig &cfg,
                                 unsigned num_warps)
    : ReglessProvider(ck, mem, cfg, num_warps, /*warp_base=*/0,
                      /*warp_count=*/num_warps)
{
}

ReglessProvider::ReglessProvider(const compiler::CompiledKernel &ck,
                                 mem::MemorySystem &mem,
                                 const ReglessConfig &cfg,
                                 unsigned num_warps, WarpId warp_base,
                                 unsigned warp_count)
    : RegisterProvider("regless"),
      _ck(ck),
      _cfg(cfg),
      _bankConflicts(_stats.counter("osu_bank_conflicts"))
{
    if (cfg.osuEntriesPerSm % cfg.numShards != 0)
        fatal("OSU entries (", cfg.osuEntriesPerSm,
              ") must divide across ", cfg.numShards, " shards");
    if (warp_base + warp_count > num_warps)
        fatal("provider warp range [", warp_base, ", ",
              warp_base + warp_count, ") exceeds ", num_warps,
              " SM warp slots");
    const unsigned lines_per_shard = cfg.osuEntriesPerSm / cfg.numShards;

    for (unsigned s = 0; s < cfg.numShards; ++s) {
        _osus.push_back(std::make_unique<OperandStagingUnit>(
            "osu" + std::to_string(s), lines_per_shard, cfg.victimOrder));
    }
    if (cfg.compressorEnabled) {
        for (unsigned s = 0; s < cfg.numShards; ++s) {
            _compressors.push_back(std::make_unique<Compressor>(
                "compressor" + std::to_string(s), cfg.compressor, mem,
                cfg.compressedBase, num_warps));
            _compressors.back()->setStaticEncodings(
                cfg.compressionMode, &ck.staticEncodings());
        }
    }
    for (unsigned s = 0; s < cfg.numShards; ++s) {
        std::vector<WarpId> shard_warps;
        for (WarpId w = warp_base; w < warp_base + warp_count; ++w) {
            if (w % cfg.numShards == s)
                shard_warps.push_back(w);
        }
        _cms.push_back(std::make_unique<CapacityManager>(
            "cm" + std::to_string(s), std::move(shard_warps), ck,
            *_osus[s],
            cfg.compressorEnabled ? _compressors[s].get() : nullptr, mem,
            cfg, num_warps));
    }
    if (cfg.runtimeCheck) {
        // One shadow per SM: CM callbacks are single-threaded within
        // an SM, and violations aggregate naturally.
        _shadow = std::make_unique<ShadowChecker>(ck);
        for (auto &cm : _cms)
            cm->setShadow(_shadow.get());
    }
}

void
ReglessProvider::setWarpSource(CapacityManager::WarpSource ws)
{
    for (auto &cm : _cms)
        cm->setWarpSource(ws);
}

void
ReglessProvider::tick(Cycle now)
{
    // Injected provider crash: raise an internal error mid-run, the
    // failure class the engine's per-job isolation must contain.
    if (_faults && _faults->fire(FaultPlan::Kind::ProviderThrow, now))
        panic("injected provider fault at cycle ", now);

    // Rotate which shard gets first crack at the shared L1 port.
    const unsigned n = _cfg.numShards;
    for (unsigned i = 0; i < n; ++i)
        _cms[(i + _tickRotation) % n]->tick(now);
    ++_tickRotation;
}

Cycle
ReglessProvider::nextEventCycle(Cycle from) const
{
    Cycle next = regfile::kNoProviderEvent;
    for (const auto &cm : _cms)
        next = std::min(next, cm->nextEventCycle(from));
    // Faults polled by tick() must still fire exactly at their trigger
    // cycle: clamp the skip target so the landing tick polls them.
    // DropDramResponse fires inside memory accesses, whose sequence a
    // skip never changes, so it needs no clamp.
    if (_faults && !_faults->fired()) {
        const FaultPlan &plan = _faults->plan();
        if (plan.kind == FaultPlan::Kind::LeakOsuSlot ||
            plan.kind == FaultPlan::Kind::ProviderThrow) {
            next = std::min(next, std::max(from, plan.triggerCycle));
        }
    }
    return next;
}

void
ReglessProvider::onCyclesSkipped(Cycle from, Cycle n)
{
    // Each skipped tick would have advanced the shard rotation once.
    _tickRotation += n;
    for (auto &cm : _cms)
        cm->onCyclesSkipped(from, n);
}

std::uint64_t
ReglessProvider::progressEvents() const
{
    std::uint64_t total = 0;
    for (const auto &cm : _cms)
        total += cm->activations();
    return total;
}

void
ReglessProvider::setFaultInjector(FaultInjector *injector)
{
    _faults = injector;
    for (auto &cm : _cms)
        cm->setFaultInjector(injector);
}

void
ReglessProvider::joinTenantArbiter(regfile::TenantArbiter &arbiter,
                                   unsigned tenant, unsigned priority)
{
    arbiter.registerTenant(tenant, priority, [this] {
        return stagedLinesInUse();
    });
    for (auto &cm : _cms) {
        cm->setAdmissionGate([&arbiter, tenant](unsigned lines) {
            return arbiter.mayReserve(tenant, lines);
        });
    }
}

void
ReglessProvider::requestSuspend(Cycle now)
{
    (void)now;
    for (auto &cm : _cms)
        cm->requestSuspend();
}

bool
ReglessProvider::suspendComplete() const
{
    for (const auto &cm : _cms) {
        if (!cm->suspendComplete())
            return false;
    }
    return true;
}

void
ReglessProvider::finalizeSuspend(Cycle now)
{
    for (auto &cm : _cms)
        cm->finalizeSuspend(now);
}

void
ReglessProvider::resume(Cycle now)
{
    (void)now;
    for (auto &cm : _cms)
        cm->resume();
}

std::uint64_t
ReglessProvider::stagedLinesInUse() const
{
    std::uint64_t lines = 0;
    for (const auto &cm : _cms)
        lines += cm->linesInUse();
    return lines;
}

bool
ReglessProvider::canIssue(const arch::Warp &warp, Cycle now)
{
    return _cms[shardOf(warp.id())]->canIssue(warp, now);
}

void
ReglessProvider::onIssue(const arch::Warp &warp, Pc pc,
                         const ir::Instruction &insn, Cycle now,
                         Cycle writeback)
{
    _cms[shardOf(warp.id())]->onIssue(warp, pc, insn, now, writeback);
}

void
ReglessProvider::onWarpFinished(const arch::Warp &warp, Cycle now)
{
    _cms[shardOf(warp.id())]->onWarpFinished(warp, now);
}

Cycle
ReglessProvider::operandDelay(const arch::Warp &warp,
                              const ir::Instruction &insn, Cycle now)
{
    (void)now;
    // Two sources in the same OSU bank serialise on the bank port.
    std::array<unsigned, osuBanks> uses{};
    unsigned worst = 0;
    for (RegId src : insn.srcs()) {
        unsigned b = OperandStagingUnit::bankOf(warp.id(), src);
        worst = std::max(worst, ++uses[b]);
    }
    if (worst > 1) {
        ++_bankConflicts;
        return worst - 1;
    }
    return 0;
}

void
ReglessProvider::dumpStats(std::ostream &os) const
{
    _stats.dump(os);
    for (const auto &osu : _osus)
        osu->stats().dump(os);
    for (const auto &comp : _compressors)
        comp->stats().dump(os);
    for (const auto &cm : _cms)
        cm->stats().dump(os);
}

std::uint64_t
ReglessProvider::cmCounter(const char *counter_name) const
{
    std::uint64_t total = 0;
    for (const auto &cm : _cms)
        total += cm->stats().value(counter_name);
    return total;
}

namespace
{

/** Mean of one CM distribution, pooled over every shard's samples. */
double
pooledMean(const std::vector<std::unique_ptr<CapacityManager>> &cms,
           Distribution &(CapacityManager::*dist)())
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &cm : cms) {
        const Distribution &d = (cm.get()->*dist)();
        sum += d.sum();
        n += d.count();
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

} // namespace

double
ReglessProvider::meanRegionPreloads()
{
    return pooledMean(_cms, &CapacityManager::regionPreloads);
}

double
ReglessProvider::meanRegionLive()
{
    return pooledMean(_cms, &CapacityManager::regionLive);
}

double
ReglessProvider::stddevRegionLive()
{
    // Combine shard distributions via the law of total variance.
    double total_n = 0.0, mean = meanRegionLive(), acc = 0.0;
    for (const auto &cm : _cms) {
        auto &d = cm->regionLive();
        if (d.count() == 0)
            continue;
        double n = static_cast<double>(d.count());
        double var = d.stddev() * d.stddev();
        double dm = d.mean() - mean;
        acc += n * (var + dm * dm);
        total_n += n;
    }
    return total_n > 0.0 ? std::sqrt(acc / total_n) : 0.0;
}

double
ReglessProvider::meanRegionCycles()
{
    return pooledMean(_cms, &CapacityManager::regionCycles);
}

double
ReglessProvider::meanRegionInsns()
{
    return pooledMean(_cms, &CapacityManager::regionInsns);
}

std::vector<double>
ReglessProvider::l1SeriesPoints()
{
    std::vector<double> merged;
    for (auto &cm : _cms) {
        cm->l1Series().flush();
        const auto &pts = cm->l1Series().points();
        if (pts.size() > merged.size())
            merged.resize(pts.size(), 0.0);
        for (std::size_t i = 0; i < pts.size(); ++i)
            merged[i] += pts[i];
    }
    return merged;
}

namespace
{

const char *
cmStateName(CmState s)
{
    switch (s) {
      case CmState::Inactive:
        return "inactive";
      case CmState::Preloading:
        return "preloading";
      case CmState::Active:
        return "active";
      case CmState::Draining:
        return "draining";
      case CmState::Done:
        return "done";
    }
    return "?";
}

} // namespace

void
ReglessProvider::describeWarp(WarpId warp, std::ostream &os) const
{
    // CM accessors are non-const only for historical reasons; the
    // snapshot does not mutate anything.
    auto &self = const_cast<ReglessProvider &>(*this);
    auto &cm = self.cm(shardOf(warp));
    os << " cm=" << cmStateName(cm.state(warp)) << " region=";
    if (cm.warpRegion(warp) == compiler::invalidRegion)
        os << "none";
    else
        os << cm.warpRegion(warp);
    os << " pending_preloads=" << cm.pendingPreloads(warp);
}

void
ReglessProvider::describeStorage(std::vector<std::string> &out) const
{
    auto &self = const_cast<ReglessProvider &>(*this);
    for (unsigned s = 0; s < numShards(); ++s) {
        auto &osu = self.osu(s);
        auto &cm = self.cm(s);
        for (unsigned b = 0; b < osuBanks; ++b) {
            auto c = osu.bankCounts(b);
            std::ostringstream os;
            os << "osu" << s << ".b" << b << ": " << c.owned << "/"
               << c.clean << "/" << c.dirty << "/" << c.free
               << ", reserved=" << cm.reservedFuture(b);
            out.push_back(os.str());
        }
    }
}

} // namespace regless::staging
