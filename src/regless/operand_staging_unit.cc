#include "regless/operand_staging_unit.hh"

#include "common/logging.hh"

namespace regless::staging
{

OperandStagingUnit::OperandStagingUnit(unsigned total_lines,
                                       VictimOrder order)
    : _order(order)
{
    if (total_lines % osuBanks != 0)
        fatal("OSU lines (", total_lines, ") must divide into ", osuBanks,
              " banks");
    _linesPerBank = total_lines / osuBanks;
    if (_linesPerBank == 0)
        fatal("OSU too small: zero lines per bank");
    for (auto &counts : _counts)
        counts.free = _linesPerBank;
}

bool
OperandStagingUnit::present(WarpId warp, RegId reg) const
{
    const auto &bank = _banks[bankOf(warp, reg)];
    return bank.find(key(warp, reg)) != bank.end();
}

bool
OperandStagingUnit::presentEvictable(WarpId warp, RegId reg) const
{
    const auto &bank = _banks[bankOf(warp, reg)];
    auto it = bank.find(key(warp, reg));
    return it != bank.end() && it->second.state != LineState::Owned;
}

bool
OperandStagingUnit::isDirty(WarpId warp, RegId reg) const
{
    const auto &bank = _banks[bankOf(warp, reg)];
    auto it = bank.find(key(warp, reg));
    return it != bank.end() && it->second.dirty;
}

void
OperandStagingUnit::claimEntry(unsigned b, Entry &entry)
{
    if (entry.state == LineState::EvictClean)
        --_counts[b].clean;
    else
        --_counts[b].dirty;
    entry.state = LineState::Owned;
    entry.lruStamp = ++_lruCounter;
    ++_counts[b].owned;
}

void
OperandStagingUnit::claim(WarpId warp, RegId reg)
{
    unsigned b = bankOf(warp, reg);
    auto it = _banks[b].find(key(warp, reg));
    if (it == _banks[b].end())
        panic("OSU claim of absent entry w", warp, " r", reg);
    if (it->second.state != LineState::Owned)
        claimEntry(b, it->second);
}

OperandStagingUnit::Reclaim
OperandStagingUnit::allocate(WarpId warp, RegId reg, bool dirty)
{
    unsigned b = bankOf(warp, reg);
    auto &bank = _banks[b];
    if (bank.find(key(warp, reg)) != bank.end())
        panic("OSU double allocation of w", warp, " r", reg);

    Reclaim reclaim;
    if (_counts[b].free == 0) {
        reclaim.needed = true;
        // Choose a victim state by policy, then LRU within it.
        LineState prefer = LineState::EvictClean;
        LineState fallback = LineState::EvictDirty;
        if (_order == VictimOrder::DirtyFirst ||
            (_counts[b].clean == 0)) {
            prefer = LineState::EvictDirty;
            fallback = LineState::EvictClean;
        }
        if (_order == VictimOrder::DirtyFirst && _counts[b].dirty == 0) {
            prefer = LineState::EvictClean;
            fallback = LineState::EvictDirty;
        }
        auto pick = [&](LineState state) {
            auto best = bank.end();
            for (auto it = bank.begin(); it != bank.end(); ++it) {
                if (it->second.state != state)
                    continue;
                if (best == bank.end() ||
                    it->second.lruStamp < best->second.lruStamp) {
                    best = it;
                }
            }
            return best;
        };
        auto victim = pick(prefer);
        if (victim == bank.end())
            victim = pick(fallback);
        if (victim == bank.end())
            panic("OSU bank ", b, " full of owned lines; the capacity "
                  "manager over-committed");
        reclaim.victimWarp =
            static_cast<WarpId>(victim->first >> 16);
        reclaim.victimReg = static_cast<RegId>(victim->first & 0xffff);
        if (victim->second.state == LineState::EvictDirty) {
            reclaim.writeback = true;
            --_counts[b].dirty;
        } else {
            --_counts[b].clean;
        }
        bank.erase(victim);
        --_occupied;
    } else {
        --_counts[b].free;
    }

    Entry entry;
    entry.state = LineState::Owned;
    entry.dirty = dirty;
    entry.lruStamp = ++_lruCounter;
    bank.emplace(key(warp, reg), entry);
    ++_counts[b].owned;
    ++_occupied;
    if (reclaim.needed) {
        // The freed line was consumed by this allocation; the free
        // count is unchanged (victim out, new entry in).
    }
    return reclaim;
}

void
OperandStagingUnit::erase(WarpId warp, RegId reg)
{
    unsigned b = bankOf(warp, reg);
    auto it = _banks[b].find(key(warp, reg));
    if (it == _banks[b].end())
        panic("OSU erase of absent entry w", warp, " r", reg);
    switch (it->second.state) {
      case LineState::Owned:
        --_counts[b].owned;
        break;
      case LineState::EvictClean:
        --_counts[b].clean;
        break;
      case LineState::EvictDirty:
        --_counts[b].dirty;
        break;
    }
    ++_counts[b].free;
    _banks[b].erase(it);
    --_occupied;
}

void
OperandStagingUnit::markEvictable(WarpId warp, RegId reg)
{
    unsigned b = bankOf(warp, reg);
    auto it = _banks[b].find(key(warp, reg));
    if (it == _banks[b].end())
        panic("OSU evict-mark of absent entry w", warp, " r", reg);
    Entry &entry = it->second;
    if (entry.state != LineState::Owned)
        return;
    --_counts[b].owned;
    if (entry.dirty) {
        entry.state = LineState::EvictDirty;
        ++_counts[b].dirty;
    } else {
        entry.state = LineState::EvictClean;
        ++_counts[b].clean;
    }
    entry.lruStamp = ++_lruCounter;
}

Residency
OperandStagingUnit::write(WarpId warp, RegId reg)
{
    unsigned b = bankOf(warp, reg);
    auto it = _banks[b].find(key(warp, reg));
    if (it == _banks[b].end())
        return Residency::Absent;
    Entry &entry = it->second;
    Residency found = Residency::Owned;
    if (entry.state != LineState::Owned) {
        claimEntry(b, entry);
        found = Residency::Evictable;
    }
    entry.dirty = true;
    entry.lruStamp = ++_lruCounter;
    return found;
}

std::vector<OperandStagingUnit::EntryInfo>
OperandStagingUnit::bankEntries(unsigned bank) const
{
    std::vector<EntryInfo> out;
    for (const auto &[k, entry] : _banks.at(bank)) {
        out.push_back(EntryInfo{static_cast<WarpId>(k >> 16),
                                static_cast<RegId>(k & 0xffff),
                                entry.state});
    }
    return out;
}

void
OperandStagingUnit::dropWarp(WarpId warp)
{
    for (unsigned b = 0; b < osuBanks; ++b) {
        auto &bank = _banks[b];
        for (auto it = bank.begin(); it != bank.end();) {
            if (static_cast<WarpId>(it->first >> 16) == warp) {
                switch (it->second.state) {
                  case LineState::Owned:
                    --_counts[b].owned;
                    break;
                  case LineState::EvictClean:
                    --_counts[b].clean;
                    break;
                  case LineState::EvictDirty:
                    --_counts[b].dirty;
                    break;
                }
                ++_counts[b].free;
                it = bank.erase(it);
                --_occupied;
            } else {
                ++it;
            }
        }
    }
}

} // namespace regless::staging
