#include "regless/shadow_checker.hh"

#include <algorithm>

namespace regless::staging
{

ShadowChecker::ShadowChecker(const compiler::CompiledKernel &ck)
    : _live(ck.analyses().live)
{
}

void
ShadowChecker::flag(const char *code, compiler::RegionId region, Pc pc,
                    RegId reg, std::string message)
{
    if (!_seen.emplace(code, region, pc, reg).second)
        return;
    compiler::Finding f;
    f.code = code;
    f.severity = compiler::Severity::Error;
    f.region = region;
    f.pc = pc;
    f.reg = reg;
    f.message = std::move(message);
    _violations.push_back(std::move(f));
}

void
ShadowChecker::onErase(WarpId warp, RegId reg)
{
    _lost[key(warp, reg)] = Loss::Erased;
}

void
ShadowChecker::onWrite(WarpId warp, RegId reg)
{
    _lost.erase(key(warp, reg));
    // The new value lives only in the staged line now.
    _backingFresh.erase(key(warp, reg));
}

void
ShadowChecker::onCleanReclaim(WarpId warp, RegId reg, bool in_backing)
{
    // A clean victim needs no write-back only because a backing copy
    // is assumed valid; if neither the CM nor the pristine original
    // still holds the value, the reclaim just destroyed its last copy.
    if (!in_backing && !_backingFresh.count(key(warp, reg)))
        _lost.emplace(key(warp, reg), Loss::Invalidated);
}

void
ShadowChecker::onBackingInvalidate(WarpId warp, RegId reg, bool resident)
{
    _backingFresh.erase(key(warp, reg));
    if (!resident)
        _lost.emplace(key(warp, reg), Loss::Invalidated);
}

void
ShadowChecker::onPreloadFetch(WarpId warp, RegId reg,
                              compiler::RegionId region)
{
    auto it = _lost.find(key(warp, reg));
    // The fetched line now mirrors the backing copy.
    _backingFresh.insert(key(warp, reg));
    if (it == _lost.end())
        return;
    const char *how =
        it->second == Loss::Erased ? "erased" : "invalidated";
    flag(compiler::codes::rtPreloadLost, region, invalidPc, reg,
         "warp " + std::to_string(warp) + " preloads r" +
             std::to_string(reg) + " whose value was " + how +
             " with no surviving copy");
    // The fetch re-stages *something*; recover so one lost value does
    // not cascade into a report at every later use.
    _lost.erase(it);
}

void
ShadowChecker::onIssue(WarpId warp, Pc pc, const ir::Instruction &insn,
                       const OperandStagingUnit &osu,
                       compiler::RegionId region)
{
    std::vector<RegId> reads = ir::Liveness::usedRegs(insn);
    if (insn.writesReg() && _live.isSoftDef(pc)) {
        // A partial-lane write merges with the old value: a read.
        reads.push_back(insn.dst());
    }
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());

    for (RegId r : reads) {
        auto it = _lost.find(key(warp, r));
        if (it != _lost.end()) {
            const char *code = it->second == Loss::Erased
                                   ? compiler::codes::rtReadAfterErase
                                   : compiler::codes::rtReadAfterInvalidate;
            const char *how =
                it->second == Loss::Erased ? "erased" : "invalidated";
            flag(code, region, pc, r,
                 "warp " + std::to_string(warp) + " reads r" +
                     std::to_string(r) + " after its value was " + how);
        } else if (!osu.present(warp, r)) {
            flag(compiler::codes::rtReadUnstaged, region, pc, r,
                 "warp " + std::to_string(warp) + " reads r" +
                     std::to_string(r) +
                     " with no staged line (preload missing?)");
        }
    }

    if (insn.writesReg())
        onWrite(warp, insn.dst());
}

void
ShadowChecker::onDrainEnd(WarpId warp, const OperandStagingUnit &osu,
                          compiler::RegionId region, Pc end_pc)
{
    for (unsigned b = 0; b < osuBanks; ++b) {
        for (const OperandStagingUnit::EntryInfo &e :
             osu.bankEntries(b)) {
            if (e.warp != warp || e.state != LineState::Owned)
                continue;
            if (!_leakReported.insert(key(warp, e.reg)).second)
                continue;
            flag(compiler::codes::rtLeakedLine, region, end_pc, e.reg,
                 "warp " + std::to_string(warp) + " still owns r" +
                     std::to_string(e.reg) +
                     " after its region drained (missing erase/evict)");
        }
    }
}

void
ShadowChecker::onEncodingUnsound(WarpId warp, RegId reg)
{
    flag(compiler::codes::rtEncodingUnsound, compiler::invalidRegion,
         invalidPc, reg,
         "warp " + std::to_string(warp) + " evicts r" +
             std::to_string(reg) +
             " with a value outside its statically proven encoding");
}

void
ShadowChecker::onWarpDropped(WarpId warp)
{
    for (auto it = _lost.begin(); it != _lost.end();) {
        if ((it->first >> 16) == warp)
            it = _lost.erase(it);
        else
            ++it;
    }
    for (auto it = _backingFresh.begin(); it != _backingFresh.end();) {
        if ((*it >> 16) == warp)
            it = _backingFresh.erase(it);
        else
            ++it;
    }
}

} // namespace regless::staging
