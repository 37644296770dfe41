#include "regless/capacity_manager.hh"

#include <algorithm>

#include "common/logging.hh"
#include "regfile/register_provider.hh"
#include "regless/shadow_checker.hh"

namespace regless::staging
{

namespace
{

/** Warps a shard may hold in the preloading state at once. */
constexpr unsigned kPreloadSlotsPerShard = 2;
/** Base of the uncompressed register backing space. */
constexpr Addr kRegBase = 0x4000'0000;

} // namespace

CapacityManager::CapacityManager(std::vector<WarpId> shard_warps,
                                 const compiler::CompiledKernel &ck,
                                 OperandStagingUnit &osu,
                                 Compressor *compressor,
                                 mem::MemorySystem &mem,
                                 const ReglessConfig &cfg,
                                 unsigned num_warps)
    : _shardWarps(std::move(shard_warps)),
      _ck(ck),
      _osu(osu),
      _compressor(compressor),
      _mem(mem),
      _cfg(cfg),
      _numWarps(num_warps),
      _numRegs(ck.kernel().numRegs()),
      _l1Series(100)
{
    WarpId max_id = 0;
    for (WarpId w : _shardWarps)
        max_id = std::max(max_id, w);
    _ctx.resize(_shardWarps.empty() ? 0 : max_id + 1);
    _supervised.assign(_ctx.size(), 0);
    _backing.assign(_ctx.size() * _numRegs, 0);
    for (WarpId w : _shardWarps) {
        _supervised[w] = 1;
        _stack.push_back(w); // lowest id activates first
    }
    _stateCount[static_cast<std::size_t>(CmState::Inactive)] =
        static_cast<unsigned>(_shardWarps.size());
}

CapacityManager::WarpCtx &
CapacityManager::ctx(WarpId warp)
{
    if (warp >= _ctx.size() || !_supervised[warp])
        panic("warp ", warp, " not supervised by this CM");
    return _ctx[warp];
}

const CapacityManager::WarpCtx &
CapacityManager::ctx(WarpId warp) const
{
    if (warp >= _ctx.size() || !_supervised[warp])
        panic("warp ", warp, " not supervised by this CM");
    return _ctx[warp];
}

Addr
CapacityManager::regAddr(WarpId warp, RegId reg) const
{
    return kRegBase +
           (static_cast<Addr>(reg) * _numWarps + warp) * regBytes;
}

void
CapacityManager::writeBackLine(WarpId warp, RegId reg, Cycle now)
{
    if (_compressor && _warpOf) {
        Compressor::EvictResult er = _compressor->compressEvict(
            warp, reg, _warpOf(warp).regValue(reg), now);
        if (er.unsound && _shadow)
            _shadow->onEncodingUnsound(warp, reg);
        if (er.compressed) {
            // The copy lives in the compressed path; invalidating it
            // later is a free bit-vector clear, not an L1 request.
            backing(warp, reg) = kInBackingStore;
            return;
        }
    }
    // Incompressible: full-line write to L1 at the next port slot.
    Cycle t = std::max(now, _mem.l1PortNextFree());
    _mem.access(regAddr(warp, reg), /*is_write=*/true,
                mem::MemSpace::Register, t);
    backing(warp, reg) = kInBackingStore | kInL1;
    ++_stats.l1StoreReqs;
    _l1Series.record(now, 1.0);
}

void
CapacityManager::handleReclaim(const OperandStagingUnit::Reclaim &reclaim,
                               Cycle now)
{
    if (!reclaim.needed || !reclaim.writeback)
        return;
    writeBackLine(reclaim.victimWarp, reclaim.victimReg, now);
}

void
CapacityManager::allocateLine(WarpCtx &wc, WarpId warp, RegId reg,
                              bool dirty, Cycle now)
{
    unsigned bank = OperandStagingUnit::bankOf(warp, reg);
    OperandStagingUnit::Reclaim reclaim = _osu.allocate(warp, reg, dirty);
    if (_shadow && reclaim.needed && !reclaim.writeback) {
        // A clean victim is dropped without write-back; if no backing
        // copy exists either, the value is gone.
        _shadow->onCleanReclaim(
            reclaim.victimWarp, reclaim.victimReg,
            (backing(reclaim.victimWarp, reclaim.victimReg) &
             kInBackingStore) != 0);
    }
    handleReclaim(reclaim, now);
    if (wc.budget[bank] > 0) {
        --wc.budget[bank];
        --_reservedFuture[bank];
    }
}

void
CapacityManager::creditLine(WarpCtx &wc, WarpId warp, RegId reg)
{
    // A line released mid-region stays earmarked for its region: the
    // paper's reservation is the region's *peak* concurrent live
    // count, with non-overlapping short-lived registers sharing the
    // same allocation (Fig. 19). Crediting the budget keeps the
    // shared pool sound: other activations see the line as available
    // only together with the matching reservation.
    unsigned bank = OperandStagingUnit::bankOf(warp, reg);
    ++wc.budget[bank];
    ++_reservedFuture[bank];
}

void
CapacityManager::invalidateBacking(WarpId warp, RegId reg,
                                   bool charge_l1, Cycle now)
{
    std::uint8_t &flags = backing(warp, reg);
    if (!(flags & kInBackingStore))
        return;
    flags &= static_cast<std::uint8_t>(~kInBackingStore);
    if (_shadow)
        _shadow->onBackingInvalidate(warp, reg, _osu.present(warp, reg));
    if (_compressor)
        _compressor->invalidate(warp, reg);
    if (charge_l1 && (flags & kInL1)) {
        flags &= static_cast<std::uint8_t>(~kInL1);
        Cycle t = std::max(now, _mem.l1PortNextFree());
        _mem.invalidateRegisterLine(regAddr(warp, reg), t);
        ++_stats.l1InvalidateReqs;
        _l1Series.record(now, 1.0);
    }
}

void
CapacityManager::processInvalidations(WarpCtx &wc, WarpId warp, Cycle now)
{
    while (!wc.invalidations.empty()) {
        RegId reg = wc.invalidations.front();
        if (backing(warp, reg) & kInL1) {
            if (!_mem.l1PortFree(now))
                return; // retry next cycle
            invalidateBacking(warp, reg, /*charge_l1=*/true, now);
        } else {
            // Compressed or absent: a free bit-vector clear.
            invalidateBacking(warp, reg, /*charge_l1=*/false, now);
        }
        wc.invalidations.pop_front();
    }
}

void
CapacityManager::processPreloads(WarpCtx &wc, WarpId warp, Cycle now,
                                 std::array<bool, osuBanks> &bank_busy)
{
    bool blocked_bank = false;
    bool blocked_mem = false;
    for (auto it = wc.preloads.begin(); it != wc.preloads.end();) {
        const compiler::Preload preload = *it;
        unsigned bank = OperandStagingUnit::bankOf(warp, preload.reg);
        if (bank_busy[bank]) {
            blocked_bank = true;
            ++it;
            continue;
        }
        _osu.countTagLookup();

        // Presence was resolved at activation; entries cannot appear
        // later, but keep the fast path for robustness.
        if (_osu.presentEvictable(warp, preload.reg)) {
            _osu.claim(warp, preload.reg);
            if (wc.budget[bank] > 0) {
                --wc.budget[bank];
                --_reservedFuture[bank];
            }
            ++_stats.preloadSrcOsu;
            bank_busy[bank] = true;
            ++wc.preloadCount;
            it = wc.preloads.erase(it);
            continue;
        }

        // Fetch from the backing path, then allocate a line.
        Cycle ready = now;
        mem::MemSource source = mem::MemSource::L1;
        bool via_compressor = false;
        if (_compressor) {
            Compressor::PreloadResult cr =
                _compressor->preload(warp, preload.reg, now);
            if (!cr.accepted) {
                blocked_mem = true;
                ++it;
                continue; // L1 port busy; retry next cycle
            }
            if (cr.wasCompressed) {
                via_compressor = true;
                ready = cr.ready;
                if (cr.cacheHit) {
                    ++_stats.preloadSrcCompressor;
                } else {
                    // Compressed line fetched through L1.
                    ++_stats.l1PreloadReqs;
                    _l1Series.record(now, 1.0);
                    source = cr.source;
                    if (source == mem::MemSource::L1)
                        ++_stats.preloadSrcL1;
                    else
                        ++_stats.preloadSrcL2Dram;
                }
            }
        }
        if (!via_compressor) {
            if (!_mem.l1PortFree(now)) {
                blocked_mem = true;
                ++it;
                continue;
            }
            mem::MemAccessResult mr =
                _mem.access(regAddr(warp, preload.reg),
                            /*is_write=*/false, mem::MemSpace::Register,
                            now);
            if (!mr.accepted) {
                blocked_mem = true;
                ++it;
                continue;
            }
            ready = mr.readyCycle;
            source = mr.source;
            ++_stats.l1PreloadReqs;
            _l1Series.record(now, 1.0);
            if (source == mem::MemSource::L1)
                ++_stats.preloadSrcL1;
            else
                ++_stats.preloadSrcL2Dram;
        }

        if (_shadow)
            _shadow->onPreloadFetch(warp, preload.reg, wc.region);
        allocateLine(wc, warp, preload.reg, /*dirty=*/false, now);
        if (preload.invalidate)
            invalidateBacking(warp, preload.reg, /*charge_l1=*/false,
                              now);
        wc.preloadReady = std::max(wc.preloadReady, ready);
        bank_busy[bank] = true;
        ++wc.preloadCount;
        it = wc.preloads.erase(it);
    }
    // Attribution: a bank-port conflict only charges OsuBankConflict
    // when nothing was also waiting on memory; otherwise the preload
    // data in flight dominates.
    wc.blockCause = blocked_bank && !blocked_mem
                        ? arch::StallCause::OsuBankConflict
                        : arch::StallCause::MemPending;
}

void
CapacityManager::setState(WarpCtx &wc, CmState state)
{
    --_stateCount[static_cast<std::size_t>(wc.state)];
    ++_stateCount[static_cast<std::size_t>(state)];
    wc.state = state;
}

void
CapacityManager::sampleRegionStats(const WarpCtx &wc, Cycle now)
{
    const compiler::Region &region = _ck.region(wc.region);
    _regionCycles.sample(static_cast<double>(
        now > wc.activatedAt ? now - wc.activatedAt : 0));
    _regionInsns.sample(static_cast<double>(region.numInsns()));
    _regionLive.sample(static_cast<double>(region.maxLive));
    _regionPreloads.sample(static_cast<double>(wc.preloadCount));
}

void
CapacityManager::finishDrain(WarpCtx &wc, WarpId warp, Cycle now)
{
    for (RegId reg : wc.deferredErase) {
        _osu.erase(warp, reg);
        if (_shadow)
            _shadow->onErase(warp, reg);
    }
    for (RegId reg : wc.deferredEvict)
        _osu.markEvictable(warp, reg);
    wc.deferredErase.clear();
    wc.deferredEvict.clear();
    if (_shadow) {
        _shadow->onDrainEnd(warp, _osu, wc.region,
                            _ck.region(wc.region).endPc);
    }

    // Release any budget the region reserved but never used (its
    // peak-live estimate is an upper bound on distinct allocations).
    for (unsigned b = 0; b < osuBanks; ++b) {
        if (wc.budget[b] > 0) {
            _reservedFuture[b] -= wc.budget[b];
            wc.budget[b] = 0;
        }
    }

    sampleRegionStats(wc, now);
    setState(wc, CmState::Inactive);
    wc.blockCause = arch::StallCause::CmNotStaged;
    wc.region = compiler::invalidRegion;
    wc.preloadCount = 0;
    // Last-executed warp goes on top so its outputs are likely still
    // staged when its next region activates (§2.2).
    if (_cfg.fifoActivation)
        _stack.push_back(warp);
    else
        _stack.push_front(warp);
}

void
CapacityManager::tryActivate(Cycle now)
{
    if (!_warpOf)
        panic("CapacityManager warp source not bound");
    if (_suspended)
        return; // region-boundary preemption: no new activations
    while (warpsIn(CmState::Preloading) < kPreloadSlotsPerShard &&
           !_stack.empty()) {
        // Top-of-stack activation; warps parked at a barrier are
        // skipped so they cannot hoard staging space.
        auto pick = _stack.end();
        for (auto it = _stack.begin(); it != _stack.end(); ++it) {
            if (_warpOf(*it).status() == arch::WarpStatus::Running) {
                pick = it;
                break;
            }
        }
        if (pick == _stack.end())
            return;
        const WarpId warp = *pick;
        WarpCtx &wc = ctx(warp);
        if (wc.state != CmState::Inactive)
            panic("stacked warp ", warp, " not inactive");

        const Pc pc = _warpOf(warp).pc();
        compiler::RegionId rid = _ck.regionStartingAt(pc);
        if (rid == compiler::invalidRegion)
            panic("warp ", warp, " parked at pc ", pc,
                  " which is not a region start");
        const compiler::Region &region = _ck.region(rid);

        // Hardware bank b holds compiler bank (b - warp) mod 8.
        std::array<unsigned, osuBanks> need{};
        for (unsigned b = 0; b < osuBanks; ++b) {
            need[b] = region.bankUsage[(b + osuBanks -
                                        (warp % osuBanks)) % osuBanks];
        }
        // The fits check covers the full per-bank need, not need minus
        // the inputs pinned below: pinning converts an available line
        // to owned, so counting pins as hits would silently starve
        // other warps' reservations. Erasing a stale output turns an
        // evictable line into a free one, so it does not change
        // availability either. Neither probe feeds this check or the
        // admission gate, so the OSU is probed only once both pass.
        bool fits = true;
        for (unsigned b = 0; b < osuBanks; ++b) {
            const auto &c = _osu.bankCounts(b);
            int avail = static_cast<int>(c.free + c.clean + c.dirty) -
                        _reservedFuture[b];
            if (avail < static_cast<int>(need[b])) {
                fits = false;
                break;
            }
        }
        if (!fits) {
            wc.blockCause = arch::StallCause::CmNoCapacity;
            return;
        }
        // Multi-tenant admission: the shared physical pool may refuse
        // the reservation even though this CM's own structures fit.
        // The whole requirement is charged: linesInUse() counts only
        // non-relinquishable lines, and activation converts the whole
        // need into those (pinned evictables become Owned, the rest
        // becomes reservations).
        if (_admissionGate) {
            unsigned new_lines = 0;
            for (unsigned b = 0; b < osuBanks; ++b)
                new_lines += need[b];
            if (!_admissionGate(new_lines)) {
                _gateBlocked = true;
                wc.blockCause = arch::StallCause::CmNoCapacity;
                return;
            }
        }

        // Region inputs still resident from an earlier region are
        // *pinned* at activation (the preload-hit fast path).
        std::array<unsigned, osuBanks> pinned_in{};
        std::vector<RegId> &pinned = _pinnedScratch;
        pinned.clear();
        for (const compiler::Preload &p : region.preloads) {
            if (std::find(pinned.begin(), pinned.end(), p.reg) !=
                pinned.end()) {
                continue;
            }
            if (_osu.presentEvictable(warp, p.reg)) {
                pinned.push_back(p.reg);
                ++pinned_in[OperandStagingUnit::bankOf(warp, p.reg)];
            }
        }
        // Resident pure outputs (hard-defined before any read) hold
        // values that are dead on entry; erase them now so their
        // stale lines neither get stolen mid-region nor occupy space
        // beyond the peak-live reservation.
        std::vector<RegId> &stale_outputs = _staleScratch;
        stale_outputs.clear();
        for (RegId reg : region.outputs) {
            if (std::find(pinned.begin(), pinned.end(), reg) !=
                    pinned.end() ||
                std::find(stale_outputs.begin(), stale_outputs.end(),
                          reg) != stale_outputs.end()) {
                continue;
            }
            if (_osu.presentEvictable(warp, reg))
                stale_outputs.push_back(reg);
        }
        for (RegId reg : stale_outputs) {
            _osu.erase(warp, reg);
            if (_shadow)
                _shadow->onErase(warp, reg);
        }

        // Commit the activation. The region's metadata instructions
        // are fetched and decoded as the region enters the pipeline.
        _stats.metadataInsns += region.metadataInsns;
        _stack.erase(pick);
        setState(wc, CmState::Preloading);
        wc.blockCause = arch::StallCause::MemPending;
        wc.region = rid;
        wc.preloadReady = now;
        wc.drainUntil = 0;
        wc.preloadCount = 0;
        for (unsigned b = 0; b < osuBanks; ++b) {
            int needed_new = static_cast<int>(need[b]) -
                             static_cast<int>(pinned_in[b]);
            needed_new = std::max(needed_new, 0);
            wc.budget[b] = needed_new;
            _reservedFuture[b] += needed_new;
        }
        for (RegId reg : pinned) {
            _osu.countTagLookup();
            _osu.claim(warp, reg);
        }
        for (const compiler::Preload &p : region.preloads) {
            if (std::find(pinned.begin(), pinned.end(), p.reg) !=
                pinned.end()) {
                ++_stats.preloadSrcOsu;
                ++wc.preloadCount;
                if (p.invalidate &&
                    (backing(warp, p.reg) & kInBackingStore)) {
                    wc.invalidations.push_back(p.reg);
                }
            } else {
                wc.preloads.push_back(p);
            }
        }
        for (RegId reg : region.cacheInvalidations)
            wc.invalidations.push_back(reg);

        if (wc.preloads.empty() && wc.invalidations.empty()) {
            setState(wc, CmState::Active);
            wc.blockCause = arch::StallCause::CmNotStaged;
            wc.activatedAt = now;
            ++_stats.activations;
            if (_onActivate)
                _onActivate(warp, rid, now);
        }
    }
}

void
CapacityManager::tick(Cycle now)
{
    _gateBlocked = false;

    // Injected staging-space leak: phantom reservations permanently
    // consume every bank's lines, so no region ever fits again and
    // the shard's warps wedge in Inactive — the §4.4 deadlock class
    // the forward-progress watchdog must catch.
    if (_faults && _faults->fire(FaultPlan::Kind::LeakOsuSlot, now)) {
        for (unsigned b = 0; b < osuBanks; ++b)
            _reservedFuture[b] += static_cast<int>(_osu.linesPerBank());
    }

    if (_compressor)
        _compressor->tick(now);

    // Retire draining warps first so their lines are reusable. The
    // walk runs in shard order (finishDrain pushes onto the activation
    // stack) and only once some drain has ended.
    if (now >= _drainBound) {
        _drainBound = kNever;
        for (WarpId w : _shardWarps) {
            WarpCtx &wc = _ctx[w];
            if (wc.state != CmState::Draining)
                continue;
            if (now >= wc.drainUntil)
                finishDrain(wc, w, now);
            else
                _drainBound = std::min(_drainBound, wc.drainUntil);
        }
    }

    // Progress preloading warps (one preload per bank per cycle).
    if (warpsIn(CmState::Preloading) != 0) {
        std::array<bool, osuBanks> bank_busy{};
        for (WarpId w : _shardWarps) {
            WarpCtx &wc = ctx(w);
            if (wc.state != CmState::Preloading)
                continue;
            processInvalidations(wc, w, now);
            processPreloads(wc, w, now, bank_busy);
            if (wc.preloads.empty() && wc.invalidations.empty() &&
                now >= wc.preloadReady) {
                setState(wc, CmState::Active);
                wc.blockCause = arch::StallCause::CmNotStaged;
                wc.activatedAt = now;
                ++_stats.activations;
                if (_onActivate)
                    _onActivate(w, wc.region, now);
            }
        }
    }

    tryActivate(now);

    // Static footprint gating (DESIGN.md §14): a bank with no resident
    // lines and no outstanding reservation provably stays empty until
    // an activation — which this tick declined or exhausted — claims
    // space in it, so the energy model may discount its leakage.
    if (_cfg.bankGating) {
        unsigned gated = 0;
        for (unsigned b = 0; b < osuBanks; ++b) {
            const auto &c = _osu.bankCounts(b);
            if (c.owned + c.clean + c.dirty == 0 &&
                _reservedFuture[b] <= 0) {
                ++gated;
            }
        }
        _lastGatedBanks = gated;
        _stats.gatedBankCycles += gated;
    }
}

Cycle
CapacityManager::nextEventCycle(Cycle from) const
{
    // Per-cycle busy work pins the CM to cycle granularity: queued
    // preloads retry ports and count tag lookups every cycle, and the
    // compressor flushes one line per cycle while its queue drains.
    if (_compressor && _compressor->flushPending())
        return from;
    // A gate-blocked activation can unblock whenever *another* tenant
    // frees lines — an event outside this CM's horizon. Stay at cycle
    // granularity until the activation goes through.
    if (_gateBlocked)
        return from;
    Cycle next = regfile::kNoProviderEvent;
    auto consider = [&](Cycle at) {
        next = std::min(next, std::max(from, at));
    };
    if (warpsIn(CmState::Draining) != 0)
        consider(_drainBound);
    if (warpsIn(CmState::Preloading) != 0) {
        for (WarpId w : _shardWarps) {
            const WarpCtx &wc = _ctx[w];
            if (wc.state != CmState::Preloading)
                continue;
            if (!wc.preloads.empty() || !wc.invalidations.empty())
                return from;
            consider(wc.preloadReady);
        }
    }
    // Activation attempts need no bound of their own: their outcome
    // only changes when a drain retires, a preload slot frees, or a
    // warp issues — all covered above or impossible while skipping.
    return next;
}

void
CapacityManager::onCyclesSkipped(Cycle from, Cycle n)
{
    (void)from;
    // Skippable windows cannot change OSU occupancy or reservations,
    // so every skipped tick would have counted the same gated banks.
    _stats.gatedBankCycles +=
        static_cast<std::uint64_t>(n) * _lastGatedBanks;
}

bool
CapacityManager::canIssue(const arch::Warp &warp, Cycle now) const
{
    (void)now;
    const WarpCtx &wc = ctx(warp.id());
    if (wc.state != CmState::Active)
        return false;
    return _ck.region(wc.region).contains(warp.pc());
}

void
CapacityManager::onIssue(const arch::Warp &warp, Pc pc,
                         const ir::Instruction &insn, Cycle now,
                         Cycle writeback)
{
    WarpCtx &wc = ctx(warp.id());
    if (wc.state == CmState::Done)
        return; // exit instruction already tore the warp down
    if (wc.state != CmState::Active)
        panic("onIssue for non-active warp ", warp.id(), " in state ",
              static_cast<int>(wc.state));
    const compiler::Region &region = _ck.region(wc.region);

    // Cross-check the instruction's reads against the shadow state
    // before any OSU mutation below can mask a missing line.
    if (_shadow)
        _shadow->onIssue(warp.id(), pc, insn, _osu, wc.region);

    // Operand reads and the destination write hit the OSU.
    for (std::size_t i = 0; i < insn.srcs().size(); ++i)
        _osu.countRead();
    if (insn.writesReg()) {
        _osu.countWrite();
        const RegId dst = insn.dst();
        switch (_osu.write(warp.id(), dst)) {
          case Residency::Evictable: {
            // Redefinition of a still-resident value reused its line.
            // The activation budgeted a fresh line for this register,
            // so consume the reservation here or it leaks.
            unsigned bank = OperandStagingUnit::bankOf(warp.id(), dst);
            if (wc.budget[bank] > 0) {
                --wc.budget[bank];
                --_reservedFuture[bank];
            }
            break;
          }
          case Residency::Owned:
            break;
          case Residency::Absent:
            allocateLine(wc, warp.id(), dst, /*dirty=*/true, now);
            break;
        }
    }

    // Lifetime annotations at this PC.
    auto erase_it = region.erases.find(pc);
    if (erase_it != region.erases.end()) {
        for (RegId reg : erase_it->second) {
            if (insn.writesReg() && reg == insn.dst() &&
                writeback > now) {
                wc.deferredErase.push_back(reg);
                wc.drainUntil = std::max(wc.drainUntil, writeback);
            } else {
                _osu.erase(warp.id(), reg);
                if (_shadow)
                    _shadow->onErase(warp.id(), reg);
                creditLine(wc, warp.id(), reg);
            }
        }
    }
    auto evict_it = region.evicts.find(pc);
    if (evict_it != region.evicts.end()) {
        for (RegId reg : evict_it->second) {
            if (insn.writesReg() && reg == insn.dst() &&
                writeback > now) {
                wc.deferredEvict.push_back(reg);
                wc.drainUntil = std::max(wc.drainUntil, writeback);
            } else {
                _osu.markEvictable(warp.id(), reg);
                creditLine(wc, warp.id(), reg);
            }
        }
    }

    // Region boundary: enter the draining state. The region issues no
    // further instructions, so its remaining allocation budget is
    // released immediately — only lines pending write-back stay owned
    // ("any other registers that were allocated to that region can be
    // freed for other warps, but the pending register must stay
    // allocated", §5.1).
    if (pc == region.endPc) {
        for (unsigned b = 0; b < osuBanks; ++b) {
            if (wc.budget[b] > 0) {
                _reservedFuture[b] -= wc.budget[b];
                wc.budget[b] = 0;
            }
        }
        wc.drainUntil = std::max({wc.drainUntil, now + 1, writeback});
        setState(wc, CmState::Draining);
        wc.blockCause = arch::StallCause::CmNotStaged;
        _drainBound = std::min(_drainBound, wc.drainUntil);
    }
}

void
CapacityManager::requestSuspend()
{
    _suspended = true;
    _gateBlocked = false; // no more activation attempts to unblock
}

bool
CapacityManager::suspendComplete() const
{
    for (WarpId w : _shardWarps) {
        const WarpCtx &wc = _ctx[w];
        if (wc.state != CmState::Inactive && wc.state != CmState::Done)
            return false;
    }
    return !_compressor || !_compressor->flushPending();
}

void
CapacityManager::finalizeSuspend(Cycle now)
{
    if (!_suspended)
        panic("finalizeSuspend without requestSuspend");
    if (!suspendComplete())
        panic("finalizeSuspend with regions still in flight");

    // Region-boundary invariant: with every warp parked between
    // regions, no reservation can be outstanding.
    for (unsigned b = 0; b < osuBanks; ++b) {
        if (_reservedFuture[b] != 0) {
            panic("finalizeSuspend: bank ", b, " holds ",
                  _reservedFuture[b], " outstanding reservations");
        }
    }

    // Every surviving line is a region output parked evictable
    // between regions (an Owned line would mean a region is still
    // mid-flight). Write back any value whose only current copy is
    // the staged line, then release everything: the handoff leaves
    // the tenant's architected state entirely in the backing path.
    std::vector<OperandStagingUnit::EntryInfo> lines;
    for (unsigned b = 0; b < osuBanks; ++b) {
        for (const OperandStagingUnit::EntryInfo &e :
             _osu.bankEntries(b)) {
            if (e.state == LineState::Owned)
                panic("finalizeSuspend: warp ", e.warp, " reg ",
                      e.reg, " still owned");
            lines.push_back(e);
        }
    }
    for (const OperandStagingUnit::EntryInfo &e : lines) {
        if (e.state == LineState::EvictDirty ||
            !(backing(e.warp, e.reg) & kInBackingStore)) {
            writeBackLine(e.warp, e.reg, now);
        }
        if (_shadow) {
            // Equivalent to a clean reclaim with the backing copy
            // guaranteed present: the value is handed off, not lost.
            _shadow->onCleanReclaim(e.warp, e.reg,
                                    /*in_backing=*/true);
        }
        _osu.erase(e.warp, e.reg);
    }
    if (_osu.occupiedLines() != 0) {
        panic("finalizeSuspend: ", _osu.occupiedLines(),
              " lines leaked past the handoff");
    }
}

void
CapacityManager::resume()
{
    // Warps stayed on the activation stack throughout the suspension;
    // their next activation re-preloads from the backing path.
    _suspended = false;
}

std::uint64_t
CapacityManager::linesInUse() const
{
    // Only lines the tenant cannot relinquish on demand are charged
    // against the shared pool: Owned lines of in-flight regions plus
    // outstanding preload reservations. Evictable lines are backed
    // (or one write-back away from it) and the activation fit check
    // already treats them as available, so charging them would wedge
    // a tenant behind its own reclaimable residue — capacity the
    // arbiter could hand to any tenant on demand.
    std::uint64_t lines = 0;
    for (unsigned b = 0; b < osuBanks; ++b) {
        lines += _osu.bankCounts(b).owned;
        lines += static_cast<std::uint64_t>(
            std::max(_reservedFuture[b], 0));
    }
    return lines;
}

void
CapacityManager::onWarpFinished(const arch::Warp &warp, Cycle now)
{
    WarpCtx &wc = ctx(warp.id());
    // Release everything the warp still holds; dead values need no
    // write-back.
    _osu.dropWarp(warp.id());
    if (_shadow)
        _shadow->onWarpDropped(warp.id());
    wc.deferredErase.clear();
    wc.deferredEvict.clear();
    for (unsigned b = 0; b < osuBanks; ++b) {
        if (wc.budget[b] > 0) {
            _reservedFuture[b] -= wc.budget[b];
            wc.budget[b] = 0;
        }
    }
    wc.preloads.clear();
    wc.invalidations.clear();
    if (wc.region != compiler::invalidRegion)
        sampleRegionStats(wc, now);
    const bool was_draining = wc.state == CmState::Draining;
    setState(wc, CmState::Done);
    wc.region = compiler::invalidRegion;
    if (was_draining) {
        _drainBound = kNever;
        for (WarpId w : _shardWarps) {
            if (_ctx[w].state == CmState::Draining)
                _drainBound = std::min(_drainBound, _ctx[w].drainUntil);
        }
    }
    for (auto it = _stack.begin(); it != _stack.end();) {
        if (*it == warp.id())
            it = _stack.erase(it);
        else
            ++it;
    }
}

} // namespace regless::staging
