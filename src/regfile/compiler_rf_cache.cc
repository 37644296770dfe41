#include "regfile/compiler_rf_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace regless::regfile
{

namespace
{

/** Extra issue latency when a marked source missed. */
constexpr Cycle kMissPenalty = 3;

} // namespace

CompilerRfCache::CompilerRfCache(const compiler::CompiledKernel &ck,
                                 const Params &params)
    : _params(params),
      _perWarp(1, 0)
{
    compiler::RfCacheHintParams hints;
    hints.maxDefUseDistance = params.maxDefUseDistance;
    _cacheable = compiler::rfCacheableRegs(ck.analyses(), hints);
}

void
CompilerRfCache::tick(Cycle now)
{
    // The cache itself has no background work; the tick only polls
    // the injected provider-crash fault (DESIGN.md §9).
    if (_faults && _faults->fire(FaultPlan::Kind::ProviderThrow, now))
        panic("injected provider fault at cycle ", now);
}

Cycle
CompilerRfCache::nextEventCycle(Cycle from) const
{
    // State only changes at issue, so the skip engine may collapse any
    // stalled window — except past a pending ProviderThrow trigger,
    // which tick() must poll at exactly its cycle.
    if (_faults && !_faults->fired() &&
        _faults->plan().kind == FaultPlan::Kind::ProviderThrow) {
        return std::max(from, _faults->plan().triggerCycle);
    }
    return kNoProviderEvent;
}

bool
CompilerRfCache::canIssue(const arch::Warp &, Cycle)
{
    // The backing file always has the value; a miss costs latency
    // (operandDelay), never issue eligibility.
    return true;
}

bool
CompilerRfCache::lookup(std::uint32_t k)
{
    auto it = _resident.find(k);
    if (it == _resident.end())
        return false;
    it->second = ++_lruCounter;
    return true;
}

void
CompilerRfCache::insert(WarpId warp, std::uint32_t k)
{
    if (_resident.count(k)) {
        _resident[k] = ++_lruCounter;
        return;
    }
    if (warp >= _perWarp.size())
        _perWarp.resize(warp + 1, 0);
    if (_perWarp[warp] >= _params.cacheEntriesPerWarp) {
        // Evict this warp's least-recently-used entry; the victim was
        // written to the cache only, so it retires to the MRF now.
        auto victim = _resident.end();
        for (auto it = _resident.begin(); it != _resident.end(); ++it) {
            if (static_cast<WarpId>(it->first >> 16) != warp)
                continue;
            if (victim == _resident.end() ||
                it->second < victim->second)
                victim = it;
        }
        _resident.erase(victim);
        --_perWarp[warp];
        ++_stats.evictions;
        ++_stats.mrfWrites;
    }
    _resident.emplace(k, ++_lruCounter);
    ++_perWarp[warp];
}

Cycle
CompilerRfCache::operandDelay(const arch::Warp &warp,
                              const ir::Instruction &insn, Cycle now)
{
    (void)now;
    // Pure read of pre-issue residency; onIssue does the bookkeeping
    // against the same state.
    Cycle delay = 0;
    for (RegId src : insn.srcs()) {
        if (_cacheable[src] && !_resident.count(key(warp.id(), src)))
            delay += kMissPenalty;
    }
    return delay;
}

void
CompilerRfCache::onIssue(const arch::Warp &warp, Pc,
                         const ir::Instruction &insn, Cycle, Cycle)
{
    for (RegId src : insn.srcs()) {
        std::uint32_t k = key(warp.id(), src);
        if (_cacheable[src] && lookup(k)) {
            ++_stats.cacheHits;
            continue;
        }
        ++_stats.mrfReads;
        if (_cacheable[src]) {
            // Evicted before reuse: refill alongside the MRF read.
            ++_stats.cacheMisses;
            insert(warp.id(), k);
        }
    }
    if (insn.writesReg()) {
        const RegId dst = insn.dst();
        if (_cacheable[dst])
            insert(warp.id(), key(warp.id(), dst));
        else
            ++_stats.mrfWrites;
    }
}

void
CompilerRfCache::onWarpFinished(const arch::Warp &warp, Cycle)
{
    for (auto it = _resident.begin(); it != _resident.end();) {
        if (static_cast<WarpId>(it->first >> 16) == warp.id())
            it = _resident.erase(it);
        else
            ++it;
    }
    if (warp.id() < _perWarp.size())
        _perWarp[warp.id()] = 0;
}

} // namespace regless::regfile
