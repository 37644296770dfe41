#include "compiler/staging_checker.hh"

#include <algorithm>
#include <deque>
#include <iterator>
#include <set>
#include <sstream>
#include <tuple>

#include "compiler/region_builder.hh"
#include "compiler/value_range.hh"
#include "compiler/verifier.hh"

namespace regless::compiler
{

namespace
{

using ir::StageLoc;
using ir::StageSet;

/** Abstract per-register state per region entry. */
using State = std::vector<StageSet>;

/** Within-region tracking of one register's concrete staging status. */
struct LocalReg
{
    bool touched = false; ///< preloaded, written, erased, or evicted
    bool staged = false;  ///< currently holds an owned OSU line
    bool dirty = false;   ///< staged copy newer than the backing copy
    bool backingValid = false; ///< backing store holds the value
    bool erased = false;
    bool evicted = false;
    bool survives = false; ///< value recoverable after its eviction
};

/**
 * The interpreter. One instance per check() call: builds the
 * inter-region graph, iterates the transfer function to a fixpoint
 * (findings suppressed), then replays each reachable region once with
 * its final entry state to collect deduplicated findings.
 */
class StagingChecker
{
  public:
    explicit StagingChecker(const CompiledKernel &ck)
        : _ck(ck),
          _kernel(ck.kernel()),
          _cfg(ck.analyses().cfg),
          _live(ck.analyses().live)
    {
    }

    std::vector<Finding>
    run()
    {
        if (_kernel.numInsns() == 0 || _kernel.numRegs() == 0 ||
            _ck.regions().empty()) {
            return {};
        }
        buildGraph();
        solve();
        report();
        return std::move(_findings);
    }

  private:
    /** @return true when @a region has usable bounds for the walk. */
    bool
    wellFormed(const Region &region) const
    {
        return region.startPc <= region.endPc &&
               region.endPc < _kernel.numInsns();
    }

    void
    buildGraph()
    {
        const std::size_t n = _ck.regions().size();
        _succs.assign(n, {});
        _entry.assign(n, State(_kernel.numRegs()));
        for (std::size_t i = 0; i < n; ++i) {
            const Region &region = _ck.regions()[i];
            if (!wellFormed(region))
                continue;
            const ir::BasicBlock &block =
                _kernel.block(_kernel.blockOf(region.endPc));
            if (region.endPc == block.lastPc()) {
                for (ir::BlockId succ : block.successors()) {
                    _succs[i].push_back(
                        _ck.regionAt(_kernel.block(succ).firstPc()));
                }
            } else {
                _succs[i].push_back(_ck.regionAt(region.endPc + 1));
            }
        }
        _entryRegion = _ck.regionAt(0);
        for (StageSet &s : _entry[_entryRegion])
            s = StageSet::of(StageLoc::Undef);
    }

    void
    solve()
    {
        std::deque<RegionId> worklist{_entryRegion};
        std::vector<bool> queued(_ck.regions().size(), false);
        queued[_entryRegion] = true;
        while (!worklist.empty()) {
            RegionId rid = worklist.front();
            worklist.pop_front();
            queued[rid] = false;
            State exit = transfer(rid, _entry[rid], /*report=*/false);
            for (RegionId succ : _succs[rid]) {
                bool changed = false;
                State &dst = _entry[succ];
                for (std::size_t r = 0; r < dst.size(); ++r)
                    changed |= dst[r].join(exit[r]);
                if (changed && !queued[succ]) {
                    queued[succ] = true;
                    worklist.push_back(succ);
                }
            }
        }
    }

    void
    report()
    {
        for (std::size_t i = 0; i < _ck.regions().size(); ++i) {
            const Region &region = _ck.regions()[i];
            if (!wellFormed(region))
                continue;
            // Capacity claims are checked even off the fixpoint: an
            // under-claim starves the region regardless of path.
            checkCapacity(region);
            if (!reached(_entry[i]))
                continue; // unreachable from the kernel entry
            transfer(static_cast<RegionId>(i), _entry[i],
                     /*report=*/true);
        }
    }

    static bool
    reached(const State &entry)
    {
        for (const StageSet &s : entry) {
            if (!s.empty())
                return true;
        }
        return false;
    }

    /**
     * Interpret one region from @a entry. Returns the exit state; when
     * @a report is set, also records findings (deduplicated, so the
     * reporting replay emits each problem once).
     */
    State
    transfer(RegionId rid, const State &entry, bool report)
    {
        const Region &region = _ck.regions()[rid];
        State state = entry;
        std::vector<LocalReg> local(_kernel.numRegs());

        // Activation step 1: §4.4 cache invalidations clear the
        // backing copy of values control flow killed.
        for (RegId r : region.cacheInvalidations) {
            if (r >= state.size())
                continue;
            if (report && _live.liveBefore(region.startPc, r)) {
                add(codes::invalidateLive, rid, region.startPc, r,
                    "cache invalidation of r", r,
                    " which is live entering the region");
            }
            state[r] = StageSet::of(StageLoc::Invalidated);
        }

        // Activation step 2: preloads stage every input. A preload is
        // only sound when no path delivers an erased, invalidated, or
        // never-defined value here.
        for (const Preload &p : region.preloads) {
            if (p.reg >= state.size())
                continue;
            const StageSet in = state[p.reg];
            if (report && !in.empty()) {
                if (in.contains(StageLoc::Invalidated)) {
                    add(codes::preloadInvalidated, rid, region.startPc,
                        p.reg, "preload of r", p.reg,
                        " whose value was invalidated on some path "
                        "(entry state ",
                        in.toString(), ")");
                }
                if (in.contains(StageLoc::Dead)) {
                    add(codes::preloadErased, rid, region.startPc,
                        p.reg, "preload of r", p.reg,
                        " whose value was erased on some path "
                        "(entry state ",
                        in.toString(), ")");
                }
                if (in.contains(StageLoc::Undef)) {
                    add(codes::preloadUndef, rid, region.startPc,
                        p.reg, "preload of r", p.reg,
                        " which is not defined on some path to this "
                        "region");
                }
            }
            if (report && p.invalidate &&
                _live.liveAfter(region.endPc, p.reg)) {
                add(codes::invalidateLive, rid, region.startPc, p.reg,
                    "invalidating preload of r", p.reg,
                    " but the value is still live after the region");
            }
            if (report && p.invalidate &&
                ir::divergentSiblingMayRead(_kernel, _cfg, _live,
                                            region.block, p.reg)) {
                add(codes::invalidateLive, rid, region.startPc, p.reg,
                    "invalidating preload of r", p.reg,
                    " but a divergent sibling path still reads the "
                    "value");
            }
            LocalReg &lr = local[p.reg];
            lr.touched = true;
            lr.staged = true;
            lr.dirty = false;
            // An invalidating read (§4.3) consumes the backing copy
            // as it stages the value: the OSU line becomes the only
            // copy, and it is clean.
            lr.backingValid = !p.invalidate;
        }

        // Sequential walk: regions contain no control flow, so the
        // program order within [startPc, endPc] is the only path.
        for (Pc pc = region.startPc; pc <= region.endPc; ++pc) {
            const ir::Instruction &insn = _kernel.insn(pc);

            std::vector<RegId> reads = ir::Liveness::usedRegs(insn);
            // A soft definition merges lanes into the old value, so
            // the destination must be staged like any other operand
            // (Algorithm 2).
            if (insn.writesReg() && _live.isSoftDef(pc))
                reads.push_back(insn.dst());
            std::sort(reads.begin(), reads.end());
            reads.erase(std::unique(reads.begin(), reads.end()),
                        reads.end());
            for (RegId r : reads) {
                if (r >= local.size())
                    continue;
                LocalReg &lr = local[r];
                if (lr.staged)
                    continue;
                if (report)
                    reportBadRead(rid, pc, r, lr, state[r]);
                // Recover so one missing preload reports once, not at
                // every use.
                lr.touched = true;
                lr.staged = true;
            }

            if (insn.writesReg()) {
                LocalReg &lr = local[insn.dst()];
                lr.touched = true;
                lr.staged = true;
                lr.dirty = true;
                lr.erased = false;
                lr.evicted = false;
            }

            // Annotations fire after the instruction's own accesses,
            // mirroring CapacityManager::onIssue.
            auto erase_it = region.erases.find(pc);
            if (erase_it != region.erases.end()) {
                for (RegId r : erase_it->second)
                    applyErase(rid, pc, r, local, report);
            }
            auto evict_it = region.evicts.find(pc);
            if (evict_it != region.evicts.end()) {
                for (RegId r : evict_it->second)
                    applyEvict(rid, pc, r, local, report);
            }
        }

        // Exit state.
        for (std::size_t r = 0; r < state.size(); ++r) {
            const LocalReg &lr = local[r];
            if (!lr.touched)
                continue; // pass the (post-invalidation) entry state
            if (lr.erased) {
                state[r] = StageSet::of(StageLoc::Dead);
            } else if (lr.evicted) {
                StageSet out = StageSet::of(StageLoc::Staged);
                out.add(lr.survives ? StageLoc::Backing
                                    : StageLoc::Invalidated);
                state[r] = out;
            } else {
                // Still owned at the region boundary: the line can
                // never be reclaimed and leaks for the warp's
                // lifetime.
                if (report) {
                    add(codes::leakedLine, rid, region.endPc,
                        static_cast<RegId>(r), "r", r,
                        " is still staged at the region end (no erase "
                        "or evict annotation reached)");
                }
                state[r] = StageSet::of(StageLoc::Staged);
            }
        }
        return state;
    }

    void
    reportBadRead(RegionId rid, Pc pc, RegId r, const LocalReg &lr,
                  const StageSet &entry)
    {
        if (lr.erased) {
            add(codes::readAfterErase, rid, pc, r, "read of r", r,
                " after its erase annotation in the same region");
            return;
        }
        if (lr.evicted) {
            add(codes::readUnstaged, rid, pc, r, "read of r", r,
                " after its evict annotation in the same region");
            return;
        }
        if (entry.contains(StageLoc::Dead)) {
            add(codes::readAfterErase, rid, pc, r, "read of r", r,
                " whose value was erased on some path (entry state ",
                entry.toString(), ")");
            return;
        }
        if (entry.contains(StageLoc::Invalidated)) {
            add(codes::readAfterInvalidate, rid, pc, r, "read of r", r,
                " whose value was invalidated on some path (entry "
                "state ",
                entry.toString(), ")");
            return;
        }
        add(codes::readUnstaged, rid, pc, r, "read of r", r,
            " which is not staged at this point (entry state ",
            entry.toString(), "; preload missing?)");
    }

    void
    applyErase(RegionId rid, Pc pc, RegId r,
               std::vector<LocalReg> &local, bool report)
    {
        if (r >= local.size())
            return;
        LocalReg &lr = local[r];
        if (report) {
            if (!lr.staged) {
                add(codes::eraseUnstaged, rid, pc, r, "erase of r", r,
                    " which is not staged at this point");
            }
            if (_live.liveAfter(pc, r)) {
                if (_live.hasSoftDef(r)) {
                    add(codes::eraseSoftDef, rid, pc, r, "erase of r",
                        r,
                        " which a later soft definition must merge "
                        "with (Algorithm 2): the value is live after "
                        "pc ",
                        pc);
                } else {
                    add(codes::eraseLive, rid, pc, r, "erase of r", r,
                        " which is still live after pc ", pc,
                        " (re-read on a later path or loop "
                        "iteration)");
                }
            }
        }
        lr.touched = true;
        lr.staged = false;
        lr.erased = true;
        lr.evicted = false;
    }

    void
    applyEvict(RegionId rid, Pc pc, RegId r,
               std::vector<LocalReg> &local, bool report)
    {
        if (r >= local.size())
            return;
        LocalReg &lr = local[r];
        if (report && !lr.staged) {
            add(codes::evictUnstaged, rid, pc, r, "evict of r", r,
                " which is not staged at this point");
        }
        lr.survives = lr.dirty || lr.backingValid;
        lr.touched = true;
        lr.staged = false;
        lr.evicted = true;
        lr.erased = false;
    }

    void
    checkCapacity(const Region &region)
    {
        Occupancy occ = computeOccupancy(_kernel, _live,
                                         region.startPc, region.endPc);
        if (region.maxLive < occ.maxLive) {
            add(codes::capacityUnderclaim, region.id, invalidPc,
                invalidReg, "region claims maxLive ", region.maxLive,
                " but the worst-case concurrent set is ", occ.maxLive);
        }
        for (unsigned b = 0; b < numOsuBanks; ++b) {
            if (region.bankUsage[b] <
                static_cast<unsigned>(occ.bankUsage[b])) {
                add(codes::capacityUnderclaim, region.id, invalidPc,
                    invalidReg, "region claims ",
                    static_cast<unsigned>(region.bankUsage[b]),
                    " lines in bank ", b,
                    " but the worst case needs ",
                    static_cast<unsigned>(occ.bankUsage[b]));
            }
        }
    }

    template <typename... Args>
    void
    add(const char *code, RegionId region, Pc pc, RegId reg,
        Args &&...args)
    {
        if (!_reported
                 .emplace(std::string(code), region, pc, reg)
                 .second) {
            return;
        }
        std::ostringstream oss;
        (oss << ... << args);
        _findings.push_back(Finding{code, Severity::Error, region, pc,
                                    reg, oss.str()});
    }

    const CompiledKernel &_ck;
    const ir::Kernel &_kernel;
    const ir::CfgAnalysis &_cfg;
    const ir::Liveness &_live;

    std::vector<std::vector<RegionId>> _succs;
    std::vector<State> _entry;
    RegionId _entryRegion = invalidRegion;

    std::set<std::tuple<std::string, RegionId, Pc, RegId>> _reported;
    std::vector<Finding> _findings;
};

} // namespace

std::vector<Finding>
checkStagingStates(const CompiledKernel &ck)
{
    return StagingChecker(ck).run();
}

std::vector<Finding>
checkValueRanges(const CompiledKernel &ck, bool advisory)
{
    const ir::Kernel &kernel = ck.kernel();
    if (kernel.numInsns() == 0 || kernel.numRegs() == 0 ||
        ck.regions().empty()) {
        return {};
    }
    const ValueRangeAnalysis &vra = ck.analyses().vra;

    std::vector<Finding> findings;
    auto add = [&](const char *code, Severity severity, RegionId rid,
                   Pc pc, RegId reg, std::string message) {
        findings.push_back(Finding{code, severity, rid, pc, reg,
                                   std::move(message)});
    };

    for (const Region &region : ck.regions()) {
        if (region.startPc > region.endPc ||
            region.endPc >= kernel.numInsns()) {
            continue; // structural verifier's problem
        }

        // Each boundary register's unique evict point in this region.
        std::map<RegId, Pc> evict_pc;
        for (const auto &[pc, regs] : region.evicts) {
            for (RegId r : regs)
                evict_pc.emplace(r, pc);
        }

        for (const auto &[reg, enc] : region.encodings) {
            auto it = evict_pc.find(reg);
            if (it == evict_pc.end()) {
                std::ostringstream oss;
                oss << "region records encoding "
                    << staticEncodingName(enc) << " for r" << reg
                    << " which it never evicts";
                add(codes::encodingUnsound, Severity::Error, region.id,
                    invalidPc, reg, oss.str());
                continue;
            }
            const ValueFacts facts = vra.after(it->second, reg);
            if (!encodingImplied(enc, facts)) {
                std::ostringstream oss;
                oss << "recorded encoding " << staticEncodingName(enc)
                    << " for r" << reg
                    << " is not implied by the value facts "
                    << facts.toString() << " at its evict point";
                add(codes::encodingUnsound, Severity::Error, region.id,
                    it->second, reg, oss.str());
            }
        }

        if (!advisory)
            continue;

        // Advisory: a staged register with a proven narrow encoding
        // still occupies (and writes back) a full 128-byte line.
        for (const auto &[reg, enc] : region.encodings) {
            const unsigned bytes = encodingBytes(enc);
            if (bytes >= regBytes)
                continue;
            std::ostringstream oss;
            oss << "r" << reg << " claims a full " << regBytes
                << "-byte line but provably needs " << bytes
                << " bytes (" << staticEncodingName(enc) << ")";
            add(codes::bankOverclaim, Severity::Warning, region.id,
                evict_pc.count(reg) ? evict_pc[reg] : invalidPc, reg,
                oss.str());
        }

        // Advisory: a preload of a provably constant value stages a
        // line the hardware could rematerialize from the immediate.
        for (const Preload &p : region.preloads) {
            const ValueFacts facts = vra.before(region.startPc, p.reg);
            if (!facts.isConstant())
                continue;
            std::ostringstream oss;
            oss << "preload of r" << p.reg
                << " whose value is provably the constant " << facts.lo
                << "; the staged line is statically dead weight";
            add(codes::deadStagedLine, Severity::Warning, region.id,
                region.startPc, p.reg, oss.str());
        }
    }
    return findings;
}

std::vector<Finding>
lintCompiledKernel(const CompiledKernel &ck, const LintOptions &options)
{
    std::vector<Finding> findings =
        verifyStructure(ck, options.checkLoadUse);
    std::vector<Finding> staging = checkStagingStates(ck);
    findings.insert(findings.end(),
                    std::make_move_iterator(staging.begin()),
                    std::make_move_iterator(staging.end()));
    std::vector<Finding> ranges =
        checkValueRanges(ck, options.advisory);
    findings.insert(findings.end(),
                    std::make_move_iterator(ranges.begin()),
                    std::make_move_iterator(ranges.end()));
    return findings;
}

} // namespace regless::compiler
