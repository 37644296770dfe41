#include "regfile/rf_virtualization.hh"

#include <algorithm>

namespace regless::regfile
{

RfVirtualization::RfVirtualization(const compiler::CompiledKernel &ck,
                                   unsigned physical_entries,
                                   Cycle spill_penalty)
    : _live(ck.analyses().live),
      _physEntries(physical_entries),
      _spillPenalty(spill_penalty)
{
}

bool
RfVirtualization::canIssue(const arch::Warp &, Cycle)
{
    return true;
}

void
RfVirtualization::mapRegister(std::uint32_t k)
{
    auto it = _mapped.find(k);
    if (it != _mapped.end()) {
        it->second = ++_lruCounter;
        return;
    }
    if (_mapped.size() >= _physEntries) {
        // Spill the least-recently-used mapped value.
        auto victim = _mapped.begin();
        for (auto mit = _mapped.begin(); mit != _mapped.end(); ++mit) {
            if (mit->second < victim->second)
                victim = mit;
        }
        _spilled.insert(victim->first);
        _mapped.erase(victim);
        ++_stats.spillStores;
    }
    _mapped.emplace(k, ++_lruCounter);
}

Cycle
RfVirtualization::operandDelay(const arch::Warp &warp,
                               const ir::Instruction &insn, Cycle now)
{
    (void)now;
    Cycle delay = 0;
    for (RegId src : insn.srcs()) {
        if (_spilled.count(key(warp.id(), src)))
            delay += _spillPenalty;
    }
    return delay;
}

void
RfVirtualization::onIssue(const arch::Warp &warp, Pc pc,
                          const ir::Instruction &insn, Cycle now,
                          Cycle writeback)
{
    (void)now;
    (void)writeback;
    ++_stats.renameLookups;
    for (RegId src : insn.srcs()) {
        ++_stats.reads;
        std::uint32_t k = key(warp.id(), src);
        // A spilled source refills into the physical file first.
        if (_spilled.erase(k))
            mapRegister(k);
        if (_live.isLastUse(pc, src)) {
            if (_mapped.erase(k))
                ++_stats.releases;
            _spilled.erase(k);
        }
    }
    if (insn.writesReg()) {
        ++_stats.writes;
        std::uint32_t k = key(warp.id(), insn.dst());
        _spilled.erase(k); // a fresh definition supersedes any spill
        mapRegister(k);
    }
}

void
RfVirtualization::onWarpFinished(const arch::Warp &warp, Cycle now)
{
    (void)now;
    for (auto it = _mapped.begin(); it != _mapped.end();) {
        if (static_cast<WarpId>(it->first >> 16) == warp.id())
            it = _mapped.erase(it);
        else
            ++it;
    }
    for (auto it = _spilled.begin(); it != _spilled.end();) {
        if (static_cast<WarpId>(*it >> 16) == warp.id())
            it = _spilled.erase(it);
        else
            ++it;
    }
}

} // namespace regless::regfile
