#include "arch/sm.hh"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace regless::arch
{

namespace
{

/** Pending-source latency that counts as a "long" stall. */
constexpr Cycle kLongStallThreshold = 40;

} // namespace

Sm::Tenant::Tenant(const SmTenantSpec &spec, WarpId warp_base,
                   unsigned warp_count, unsigned sched_base,
                   unsigned sched_count)
    : ck(spec.ck),
      kernel(&spec.ck->kernel()),
      provider(spec.provider),
      scoreboard(warp_count, spec.ck->kernel().numRegs(), warp_base),
      warpBase(warp_base),
      warpCount(warp_count),
      schedBase(sched_base),
      schedCount(sched_count),
      dataBase(spec.dataBase),
      sharedBase(spec.sharedBase)
{
}

Sm::Sm(const compiler::CompiledKernel &ck, mem::MemorySystem &mem,
       regfile::RegisterProvider &provider, const SmConfig &config)
    : Sm(std::vector<SmTenantSpec>{
             SmTenantSpec{&ck, &provider, kDataBase, kSharedBase}},
         mem, config)
{
}

Sm::Sm(std::vector<SmTenantSpec> tenants, mem::MemorySystem &mem,
       const SmConfig &config)
    : _mem(mem),
      _cfg(config),
      _warpStalls(config.numWarps),
      _stallMemo(config.numWarps),
      _scan(config.numWarps)
{
    if (_cfg.numWarps % _cfg.numSchedulers != 0)
        fatal("warps must divide evenly among schedulers");
    if (tenants.empty())
        fatal("SM needs at least one tenant");
    const auto num_tenants = static_cast<unsigned>(tenants.size());
    if (_cfg.numSchedulers % num_tenants != 0 ||
        _cfg.numWarps % num_tenants != 0) {
        fatal(num_tenants, " tenants must divide ",
              _cfg.numSchedulers, " schedulers and ", _cfg.numWarps,
              " warps evenly");
    }
    const unsigned warp_count = _cfg.numWarps / num_tenants;
    const unsigned sched_count = _cfg.numSchedulers / num_tenants;
    if (warp_count % sched_count != 0)
        fatal("tenant warps must divide evenly among tenant schedulers");

    // Tenant t owns the contiguous warp range [t*W/T, (t+1)*W/T) and
    // scheduler groups [t*S/T, (t+1)*S/T). Warps carry global slot
    // ids; block ids and thread indices are tenant-local, so each
    // tenant sees the same launch geometry as a solo run.
    _warps.reserve(_cfg.numWarps);
    _tenantOf.resize(_cfg.numWarps);
    for (unsigned t = 0; t < num_tenants; ++t) {
        const SmTenantSpec &spec = tenants[t];
        if (!spec.ck || !spec.provider)
            fatal("tenant ", t, " missing kernel or provider");
        const WarpId base = t * warp_count;
        _tenants.push_back(std::make_unique<Tenant>(
            spec, base, warp_count, t * sched_count, sched_count));
        Tenant &tn = *_tenants.back();
        const unsigned wpb = tn.kernel->warpsPerBlock();
        for (unsigned l = 0; l < warp_count; ++l) {
            const WarpId w = base + l;
            _warps.emplace_back(w, l / wpb, tn.kernel->numRegs(), l);
            _tenantOf[w] = t;
        }
    }

    // Interleaved assignment within each tenant: group sg of tenant t
    // serves warps {base + sg + k*schedCount}, which for one tenant is
    // exactly warp w in group w % numSchedulers (matches how
    // consecutive warps spread across GTX 980 schedulers).
    _groupTenant.resize(_cfg.numSchedulers);
    for (unsigned g = 0; g < _cfg.numSchedulers; ++g) {
        const unsigned t = g / sched_count;
        _groupTenant[g] = t;
        Tenant &tn = *_tenants[t];
        const unsigned sg = g % sched_count;
        std::vector<WarpId> group;
        for (WarpId w = tn.warpBase + sg;
             w < tn.warpBase + tn.warpCount; w += sched_count) {
            group.push_back(w);
        }
        _schedulers.push_back(
            WarpScheduler::create(_cfg.scheduler, std::move(group)));
    }
    // Every warp starts due, behind a blocked no_warp placeholder.
    // Only a scheduler that is not quiescent when stalled (two_level)
    // reads stall notices; GTO's and RR's notifyLongStall are no-ops.
    _groups.resize(_cfg.numSchedulers);
    for (unsigned g = 0; g < _cfg.numSchedulers; ++g) {
        const auto &group = _schedulers[g]->warps();
        GroupScan &gs = _groups[g];
        gs.due.words.assign((group.size() + 63) / 64, 0);
        gs.memo.words = gs.due.words;
        gs.can.assign(group.size(), false);
        gs.blocked[static_cast<std::size_t>(StallCause::NoWarp)] =
            static_cast<unsigned>(group.size());
        gs.notices = !_schedulers[g]->quiescentWhenStalled();
        _schedulersQuiescent &= !gs.notices;
        for (unsigned i = 0; i < group.size(); ++i) {
            gs.due.add(i);
            _scan[group[i]].group = g;
            _scan[group[i]].pos = i;
        }
    }

    // Residency: admit thread blocks up to the occupancy limit.
    _resident.assign(_cfg.numWarps, _cfg.maxResidentWarps == 0);
    if (_cfg.maxResidentWarps != 0) {
        for (auto &tn : _tenants)
            admitBlocks(*tn);
    }
}

bool
Sm::tenantDone(unsigned t) const
{
    return tenant(t).finished;
}

std::uint64_t
Sm::tenantSuspendedCycles(unsigned t) const
{
    const Tenant &tn = tenant(t);
    std::uint64_t cycles = tn.suspendedCycles;
    if (tn.suspended)
        cycles += _now - tn.suspendStart;
    return cycles;
}

void
Sm::requestSuspend(unsigned t, Cycle now)
{
    Tenant &tn = tenant(t);
    if (tn.suspended || tn.suspendRequested || tn.finished)
        return;
    tn.suspendRequested = true;
    ++tn.preemptions;
    tn.provider->requestSuspend(now);
    _anySuspendPending = true;
}

void
Sm::resumeTenant(unsigned t, Cycle now)
{
    Tenant &tn = tenant(t);
    if (tn.suspended) {
        tn.suspendedCycles += now - tn.suspendStart;
        tn.suspended = false;
    }
    tn.suspendRequested = false;
    tn.provider->resume(now);
    for (WarpId w = tn.warpBase; w < tn.warpBase + tn.warpCount; ++w)
        wake(w);
    bool pending = false;
    for (const auto &other : _tenants)
        pending |= other->suspendRequested;
    _anySuspendPending = pending;
}

void
Sm::pollSuspends(Cycle now)
{
    bool pending = false;
    for (auto &tn : _tenants) {
        if (!tn->suspendRequested)
            continue;
        if (tn->provider->suspendComplete()) {
            // Boundary reached: hand off the staged state. From the
            // next eligibility scan on, the tenant's warps park.
            tn->provider->finalizeSuspend(now);
            tn->suspendRequested = false;
            tn->suspended = true;
            tn->suspendStart = now;
            for (WarpId w = tn->warpBase;
                 w < tn->warpBase + tn->warpCount; ++w) {
                wake(w);
            }
        } else {
            pending = true;
        }
    }
    _anySuspendPending = pending;
}

Pc
Sm::reconvergePcFor(const Tenant &tn, ir::BlockId block) const
{
    ir::BlockId ipdom =
        tn.ck->analyses().cfg.immediatePostdominator(block);
    if (ipdom == ir::invalidBlock)
        return invalidPc;
    return tn.kernel->block(ipdom).firstPc();
}

void
Sm::admitBlocks(Tenant &tn)
{
    const unsigned wpb = tn.kernel->warpsPerBlock();
    const unsigned num_blocks = tn.warpCount / wpb;
    // Always keep at least one block admitted so progress is possible.
    while (tn.nextBlockToAdmit < num_blocks &&
           (tn.residentWarps == 0 ||
            tn.residentWarps + wpb <= _cfg.maxResidentWarps)) {
        for (WarpId w = tn.warpBase + tn.nextBlockToAdmit * wpb;
             w < tn.warpBase + (tn.nextBlockToAdmit + 1) * wpb; ++w) {
            _resident[w] = true;
            wake(w);
        }
        tn.residentWarps += wpb;
        ++tn.nextBlockToAdmit;
    }
}

Sm::Verdict
Sm::eligible(Tenant &tn, const Warp &warp, Cycle now, Cycle *next_event)
{
    auto blocked = [](StallCause why, Home home, bool long_stall = false) {
        return Verdict{false, long_stall, why, home};
    };
    auto bound = [&](Cycle at) {
        if (next_event)
            *next_event = std::min(*next_event, at);
    };
    // Suspended tenants park with no bound: resumption is an external
    // control decision (the QoS controller clamps the skip limit to
    // its own decision points). Non-resident, finished, and
    // barrier-parked warps likewise have no bound: their release
    // requires another warp to issue, which cannot happen inside an
    // all-stalled window. Each parked verdict holds until a wake event.
    if (tn.suspended || !_resident[warp.id()])
        return blocked(StallCause::NoWarp, Home::Parked);
    if (warp.status() == WarpStatus::AtBarrier)
        return blocked(StallCause::SyncBarrier, Home::Parked);
    if (warp.status() != WarpStatus::Running)
        return blocked(StallCause::NoWarp, Home::Parked);
    StallMemo &memo = _stallMemo[warp.id()];
    if (now < memo.until) {
        bound(memo.nextReady);
        return blocked(memo.cause, Home::Memo, memo.longStall);
    }
    const ir::Instruction &insn = tn.kernel->insn(warp.pc());
    if (!tn.scoreboard.ready(warp.id(), insn, now)) {
        // Long-latency source? (feeds the two-level demotion) A source
        // stops counting as long at readyAt - threshold: the flip.
        Cycle flip = kNever;
        memo.longStall = false;
        for (RegId src : insn.srcs()) {
            const Cycle at = tn.scoreboard.readyAt(warp.id(), src);
            if (at > now + kLongStallThreshold) {
                memo.longStall = true;
                flip = std::min(flip, at - kLongStallThreshold);
            }
        }
        memo.nextReady =
            tn.scoreboard.nextReadyChange(warp.id(), insn, now);
        memo.until = std::min(memo.nextReady, flip);
        memo.cause = tn.scoreboard.blockedOnMem(warp.id(), insn, now)
                         ? StallCause::MemPending
                         : StallCause::ScoreboardDep;
        bound(memo.nextReady);
        return blocked(memo.cause, Home::Memo, memo.longStall);
    }
    if (insn.isGlobalLoad() || insn.isGlobalStore()) {
        if (!_mem.l1PortFree(now)) {
            bound(_mem.nextEventCycle(now));
            return blocked(StallCause::ExecPortBusy, Home::Due);
        }
    }
    // The provider check comes last so its internal gating (e.g. the
    // RegLess capacity manager) sees only otherwise-issuable warps.
    // No per-warp bound: the provider's own nextEventCycle covers it.
    if (!tn.provider->canIssue(warp, now))
        return blocked(tn.provider->blockCause(warp, now), Home::Due);
    return Verdict{true, false, StallCause::NoWarp, Home::Due};
}

mem::LaneAddrs
Sm::laneAddrs(const Warp &warp, const ir::Instruction &insn,
              Addr base) const
{
    // Loads: address register is src 0; stores: src 1 (data is src 0).
    const RegId addr_reg =
        insn.isGlobalStore() || insn.op() == ir::Opcode::StShared
            ? insn.srcs().at(1)
            : insn.srcs().at(0);
    const ir::LaneValues &av = warp.regValue(addr_reg);
    mem::LaneAddrs addrs{};
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        addrs[lane] = base + static_cast<Addr>(av[lane]) +
                      static_cast<Addr>(insn.imm());
    }
    return addrs;
}

const std::vector<Addr> &
Sm::coalesce(const mem::LaneAddrs &addrs, LaneMask mask)
{
    std::vector<Addr> &lines = _lineScratch;
    lines.clear();
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        Addr line = mem::lineAddr(addrs[lane]);
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }
    return lines;
}

void
Sm::execAlu(Tenant &tn, Warp &warp, const ir::Instruction &insn,
            Cycle now)
{
    ir::LaneValues result{};
    if (insn.op() == ir::Opcode::Tid) {
        for (unsigned lane = 0; lane < warpSize; ++lane)
            result[lane] = warp.threadBase() + lane;
    } else if (insn.op() == ir::Opcode::CtaId) {
        result.fill(warp.blockId());
    } else {
        std::vector<ir::LaneValues> &srcs = _srcScratch;
        srcs.clear();
        for (RegId src : insn.srcs())
            srcs.push_back(warp.regValue(src));
        result = insn.evaluate(srcs);
    }
    warp.writeReg(insn.dst(), result, warp.activeMask());
    tn.scoreboard.recordWrite(warp.id(), insn, now + execLatency(insn));
    warp.stack().advance();
}

void
Sm::execGlobalLoad(Tenant &tn, Warp &warp, const ir::Instruction &insn,
                   Cycle now)
{
    LaneMask mask = warp.activeMask();
    const mem::LaneAddrs addrs = laneAddrs(warp, insn, tn.dataBase);

    ir::LaneValues result{};
    _mem.readWords(addrs, mask, result);
    warp.writeReg(insn.dst(), result, mask);

    Cycle ready = now;
    for (Addr line : coalesce(addrs, mask)) {
        Cycle t = std::max(now, _mem.l1PortNextFree());
        mem::MemAccessResult res =
            _mem.access(line, /*is_write=*/false, mem::MemSpace::Data, t);
        ready = std::max(ready, res.readyCycle);
    }
    tn.scoreboard.recordWrite(warp.id(), insn, ready);
    warp.stack().advance();
}

void
Sm::execGlobalStore(Tenant &tn, Warp &warp, const ir::Instruction &insn,
                    Cycle now)
{
    LaneMask mask = warp.activeMask();
    const mem::LaneAddrs addrs = laneAddrs(warp, insn, tn.dataBase);
    _mem.writeWords(addrs, mask, warp.regValue(insn.srcs().at(0)));
    for (Addr line : coalesce(addrs, mask)) {
        Cycle t = std::max(now, _mem.l1PortNextFree());
        _mem.access(line, /*is_write=*/true, mem::MemSpace::Data, t);
    }
    warp.stack().advance();
}

void
Sm::execShared(Tenant &tn, Warp &warp, const ir::Instruction &insn,
               Cycle now)
{
    LaneMask mask = warp.activeMask();
    const Addr seg =
        tn.sharedBase + (static_cast<Addr>(warp.blockId()) << 20);
    const mem::LaneAddrs addrs = laneAddrs(warp, insn, seg);
    if (insn.op() == ir::Opcode::LdShared) {
        ir::LaneValues result{};
        _mem.readWords(addrs, mask, result);
        warp.writeReg(insn.dst(), result, mask);
        tn.scoreboard.recordWrite(warp.id(), insn, now + kSharedMemLatency);
    } else {
        _mem.writeWords(addrs, mask, warp.regValue(insn.srcs().at(0)));
    }
    warp.stack().advance();
}

void
Sm::execBranch(Tenant &tn, Warp &warp, const ir::Instruction &insn,
               Cycle now)
{
    (void)now;
    LaneMask mask = warp.activeMask();
    const ir::LaneValues &pred = warp.regValue(insn.srcs().at(0));
    LaneMask taken = 0;
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if ((mask & (1u << lane)) && pred[lane] != 0)
            taken |= 1u << lane;
    }
    Pc rpc = reconvergePcFor(tn, tn.kernel->blockOf(warp.pc()));
    if (warp.stack().branch(taken, insn.target(), rpc))
        ++_stats.divergentBranches;
}

void
Sm::checkBarrier(Tenant &tn, unsigned block_id)
{
    // Block ids are tenant-local: only this tenant's warps take part
    // in the barrier, never a co-resident kernel's.
    bool all_arrived = true;
    for (WarpId w = tn.warpBase; w < tn.warpBase + tn.warpCount; ++w) {
        const Warp &wp = _warps[w];
        if (wp.blockId() != block_id)
            continue;
        if (wp.status() == WarpStatus::Running) {
            all_arrived = false;
            break;
        }
    }
    if (!all_arrived)
        return;
    for (WarpId w = tn.warpBase; w < tn.warpBase + tn.warpCount; ++w) {
        Warp &wp = _warps[w];
        if (wp.blockId() == block_id &&
            wp.status() == WarpStatus::AtBarrier) {
            wp.setStatus(WarpStatus::Running);
            wake(w);
        }
    }
}

void
Sm::execBarrier(Tenant &tn, Warp &warp, Cycle now)
{
    (void)now;
    warp.stack().advance();
    warp.setStatus(WarpStatus::AtBarrier);
    checkBarrier(tn, warp.blockId());
}

void
Sm::execExit(Tenant &tn, Warp &warp, Cycle now)
{
    warp.stack().exitLanes();
    if (warp.stack().allExited()) {
        warp.setStatus(WarpStatus::Finished);
        ++_finishedWarps;
        tn.provider->onWarpFinished(warp, now);
        checkBarrier(tn, warp.blockId());
        if (!tn.finished) {
            bool all = true;
            for (WarpId w = tn.warpBase;
                 w < tn.warpBase + tn.warpCount; ++w) {
                all &= _warps[w].finished();
            }
            if (all) {
                tn.finished = true;
                tn.finishCycle = now;
            }
        }
        // If the whole block finished, its residency slots free up.
        if (_cfg.maxResidentWarps != 0) {
            const unsigned wpb = tn.kernel->warpsPerBlock();
            bool block_done = true;
            for (WarpId w = tn.warpBase + warp.blockId() * wpb;
                 w < tn.warpBase + (warp.blockId() + 1) * wpb; ++w) {
                block_done &= _warps[w].finished();
            }
            if (block_done) {
                tn.residentWarps -= wpb;
                admitBlocks(tn);
            }
        }
    }
}

void
Sm::issue(Tenant &tn, Warp &warp, Cycle now)
{
    // Issuing moves the PC and writes scoreboard rows: the warp's
    // replayed verdict no longer holds. Only an eligible warp issues,
    // so its verdict is already due.
    _stallMemo[warp.id()].until = 0;
    const Pc pc = warp.pc();
    const ir::Instruction &insn = tn.kernel->insn(pc);
    if (_issueHook)
        _issueHook(warp, pc, insn, now);
    Cycle delay = tn.provider->operandDelay(warp, insn, now);
    Cycle t = now + delay;

    switch (insn.fuClass()) {
      case ir::FuClass::Alu:
      case ir::FuClass::Sfu:
        execAlu(tn, warp, insn, t);
        break;
      case ir::FuClass::Mem:
        if (insn.isGlobalLoad())
            execGlobalLoad(tn, warp, insn, t);
        else if (insn.isGlobalStore())
            execGlobalStore(tn, warp, insn, t);
        else
            execShared(tn, warp, insn, t);
        break;
      case ir::FuClass::Control:
        if (insn.isBranch())
            execBranch(tn, warp, insn, t);
        else if (insn.isJump())
            warp.stack().jump(insn.target());
        else if (insn.isBarrier())
            execBarrier(tn, warp, t);
        else
            execExit(tn, warp, t);
        break;
    }

    warp.countInsn();
    ++tn.insns;
    Cycle writeback = insn.writesReg()
                          ? tn.scoreboard.readyAt(warp.id(), insn.dst())
                          : t;
    tn.provider->onIssue(warp, pc, insn, now, writeback);
}

void
Sm::step()
{
    stepImpl(nullptr);
}

void
Sm::wake(WarpId warp)
{
    const WarpScan &ws = _scan[warp];
    GroupScan &gs = _groups[ws.group];
    gs.due.add(ws.pos);
    if (gs.memo.has(ws.pos)) {
        // The skip probe reads the memo set's minimum nextReady, so
        // the bound must drop the warp leaving it.
        gs.memo.remove(ws.pos);
        refreshMemos(gs, _schedulers[ws.group]->warps());
    }
}

void
Sm::refreshMemos(GroupScan &gs, const std::vector<WarpId> &group)
{
    gs.memoUntil = kNever;
    gs.memoNextReady = kNever;
    gs.memo.forEach([&](unsigned i) {
        const StallMemo &memo = _stallMemo[group[i]];
        if (_now >= memo.until) {
            gs.memo.remove(i);
            gs.due.add(i);
        } else {
            gs.memoUntil = std::min(gs.memoUntil, memo.until);
            gs.memoNextReady = std::min(gs.memoNextReady, memo.nextReady);
        }
    });
}

void
Sm::record(GroupScan &gs, unsigned i, WarpId w, const Verdict &v)
{
    WarpScan &ws = _scan[w];
    if (!gs.can[i])
        --gs.blocked[static_cast<std::size_t>(ws.cause)];
    if (!v.can)
        ++gs.blocked[static_cast<std::size_t>(v.cause)];
    gs.can[i] = v.can;
    ws.cause = v.cause;
    ws.longStall = v.longStall;

    // Per-warp stall detail (feeds the trace and the deadlock report)
    // counts the cycles a Running warp spends blocked. A run adds its
    // length once, when the verdict changes; every cycle in between,
    // stepped or skipped, repeats the same verdict.
    const bool charged =
        !v.can && _warps[w].status() == WarpStatus::Running;
    if (charged != ws.runCharged || (charged && v.cause != ws.runCause)) {
        if (ws.runCharged) {
            _warpStalls[w][static_cast<std::size_t>(ws.runCause)] +=
                _now - ws.runStart;
        }
        ws.runCause = v.cause;
        ws.runCharged = charged;
        ws.runStart = _now;
    }

    if (v.home == Home::Due)
        return;
    gs.due.remove(i);
    if (v.home == Home::Memo) {
        gs.memo.add(i);
        const StallMemo &memo = _stallMemo[w];
        gs.memoUntil = std::min(gs.memoUntil, memo.until);
        gs.memoNextReady = std::min(gs.memoNextReady, memo.nextReady);
    }
}

void
Sm::stepImpl(SkipProbe *probe)
{
    for (auto &tn : _tenants)
        tn->provider->tick(_now);
    if (_anySuspendPending)
        pollSuspends(_now);

    for (std::size_t g = 0; g < _schedulers.size(); ++g) {
        Tenant &tn = *_tenants[_groupTenant[g]];
        auto &sched = _schedulers[g];
        const auto &group = sched->warps();
        GroupScan &gs = _groups[g];
        if (_now >= gs.memoUntil)
            refreshMemos(gs, group);
        // Only due warps can change their verdict this cycle; the
        // rest replay the cached one (DESIGN.md §12).
        bool any = false;
        gs.due.forEach([&](unsigned i) {
            const Verdict v = eligible(tn, _warps[group[i]], _now,
                                       probe ? &probe->nextEvent : nullptr);
            any |= v.can;
            record(gs, i, group[i], v);
        });
        if (probe)
            probe->nextEvent = std::min(probe->nextEvent, gs.memoNextReady);
        if (gs.notices) {
            // Warps blocked indefinitely (finished, at a barrier) must
            // vacate a two-level scheduler's active pool, or pending
            // warps never get promoted and the SM deadlocks.
            for (WarpId w : group) {
                if (_scan[w].longStall ||
                    _warps[w].status() != WarpStatus::Running) {
                    sched->notifyLongStall(w);
                }
            }
        }
        const int picked = any ? sched->pick(gs.can) : -1;
        if (picked >= 0) {
            ++tn.slotIssued;
        } else if (any) {
            // An eligible warp existed but the policy declined the
            // slot (e.g. two-level promotion delay): no warp was
            // available *to the selector*.
            ++tn.stallSlots[static_cast<std::size_t>(
                StallCause::NoWarp)];
        } else {
            // Charge the slot to the blocked warp closest to issuing.
            StallCause charge = StallCause::NoWarp;
            for (std::size_t c = 0; c < kNumStallCauses; ++c) {
                const auto cause = static_cast<StallCause>(c);
                if (gs.blocked[c] != 0 &&
                    stallPrecedence(cause) < stallPrecedence(charge)) {
                    charge = cause;
                }
            }
            ++tn.stallSlots[static_cast<std::size_t>(charge)];
            gs.charge = charge;
        }
        if (probe) {
            probe->anyIssue |= picked >= 0;
            probe->anyEligible |= any;
        }
        if (_traceHook) {
            for (std::size_t i = 0; i < group.size(); ++i) {
                const char *label =
                    static_cast<int>(i) == picked ? "issue"
                    : gs.can[i]                   ? "ready"
                    : stallCauseName(_scan[group[i]].cause);
                updateTraceLabel(group[i], label);
            }
        }
        if (picked < 0)
            continue;
        Warp &warp = _warps[group[picked]];
        issue(tn, warp, _now);
        // Dual issue: a second independent instruction from the same
        // warp, re-checked against the updated scoreboard. The extra
        // issue shares the slot already counted above.
        for (unsigned extra = 1; extra < kIssueWidth; ++extra) {
            if (warp.status() != WarpStatus::Running ||
                !eligible(tn, warp, _now).can) {
                break;
            }
            issue(tn, warp, _now);
        }
    }

    ++_now;
}

void
Sm::stepSkipping(Cycle limit)
{
    SkipProbe probe;
    stepImpl(&probe);
    // Collapse only provably dead windows: nothing issued, nothing was
    // even eligible (so no scheduler pick() was consulted), every
    // scheduler is stall-quiescent, no suspend handoff is in flight
    // (its boundary poll is per-cycle work), and the SM is not
    // finished.
    if (probe.anyIssue || probe.anyEligible || !_schedulersQuiescent ||
        _anySuspendPending || done()) {
        return;
    }
    // Next event is the min over every tenant's provider: a window is
    // only dead if no co-resident kernel has background work either.
    Cycle target = probe.nextEvent;
    for (const auto &tn : _tenants)
        target = std::min(target, tn->provider->nextEventCycle(_now));
    target = std::min(target, limit);
    if (target <= _now)
        return;
    const Cycle n = target - _now;
    // Bulk charging: state is constant across the window, so each
    // skipped cycle would have charged exactly the slot causes the
    // probe cycle did, one per scheduler group. This preserves the
    // closed-account invariant issued + stalls == schedulers * cycles,
    // per tenant and in total. Per-warp stall runs simply stay open
    // across the window.
    for (std::size_t g = 0; g < _groups.size(); ++g) {
        const auto charge = static_cast<std::size_t>(_groups[g].charge);
        _tenants[_groupTenant[g]]->stallSlots[charge] += n;
    }
    for (auto &tn : _tenants)
        tn->provider->onCyclesSkipped(_now, n);
    _stats.skippedCycles += n;
    ++_stats.skipEvents;
    _now = target;
}

void
Sm::setStallTraceHook(StallTraceHook hook)
{
    _traceHook = std::move(hook);
    _traceLabel.assign(_cfg.numWarps, nullptr);
    _traceStart.assign(_cfg.numWarps, 0);
}

void
Sm::updateTraceLabel(WarpId warp, const char *label)
{
    // Labels are interned string literals (stallCauseName or the
    // "issue"/"ready" constants in step), so pointer comparison is a
    // run-length check.
    if (_traceLabel[warp] == label)
        return;
    if (_traceLabel[warp] && _now > _traceStart[warp])
        _traceHook(warp, _traceLabel[warp], _traceStart[warp], _now);
    _traceLabel[warp] = label;
    _traceStart[warp] = _now;
}

void
Sm::flushStallTrace()
{
    if (!_traceHook)
        return;
    for (WarpId w = 0; w < _traceLabel.size(); ++w) {
        if (_traceLabel[w] && _now > _traceStart[w])
            _traceHook(w, _traceLabel[w], _traceStart[w], _now);
        _traceLabel[w] = nullptr;
    }
}

std::array<std::uint64_t, kNumStallCauses>
Sm::warpStalls(WarpId warp) const
{
    std::array<std::uint64_t, kNumStallCauses> stalls =
        _warpStalls.at(warp);
    const WarpScan &ws = _scan[warp];
    if (ws.runCharged)
        stalls[static_cast<std::size_t>(ws.runCause)] += _now - ws.runStart;
    return stalls;
}

std::uint64_t
Sm::totalInsns() const
{
    std::uint64_t insns = 0;
    for (const auto &tn : _tenants)
        insns += tn->insns;
    return insns;
}

StallSnapshot
Sm::slotSnapshot() const
{
    StallSnapshot snap;
    for (const auto &tn : _tenants) {
        snap.issuedSlots += tn->slotIssued;
        for (std::size_t c = 0; c < kNumStallCauses; ++c)
            snap.stallSlots[c] += tn->stallSlots[c];
    }
    return snap;
}

Cycle
Sm::run()
{
    while (!done()) {
        step();
        if (_now >= _cfg.maxCycles) {
            fatal("kernel '", _tenants.front()->kernel->name(),
                  "' exceeded ", _cfg.maxCycles,
                  " cycles; likely deadlock");
        }
    }
    return _now;
}

} // namespace regless::arch
