#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace regless::mem
{

Cache::Cache(const CacheConfig &config)
    : _ways(config.ways),
      _numMshrs(config.mshrs),
      _writeAllocate(config.writeAllocate)
{
    if (config.sizeBytes % (lineBytes * _ways) != 0)
        fatal("cache size ", config.sizeBytes,
              " not divisible by way size");
    _numSets = config.sizeBytes / (lineBytes * _ways);
    _sets.assign(_numSets, std::vector<Line>(_ways));
    _mshrs.reserve(_numMshrs);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr / lineBytes) % _numSets);
}

Cache::Line *
Cache::findLine(Addr addr)
{
    Addr tag = lineAddr(addr);
    for (Line &line : _sets[setIndex(addr)]) {
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    Addr tag = lineAddr(addr);
    for (const Line &line : _sets[setIndex(addr)]) {
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const Cache::Mshr *
Cache::findMshr(Addr addr) const
{
    const Addr line = lineAddr(addr);
    for (const Mshr &m : _mshrs) {
        if (m.line == line)
            return &m;
    }
    return nullptr;
}

void
Cache::expireMshrs(Cycle now)
{
    if (now < _mshrMinReady)
        return;
    // Compact the survivors to the front in one pass.
    _mshrMinReady = std::numeric_limits<Cycle>::max();
    auto kept = _mshrs.begin();
    for (const Mshr &m : _mshrs) {
        if (m.ready > now) {
            _mshrMinReady = std::min(_mshrMinReady, m.ready);
            *kept++ = m;
        }
    }
    _mshrs.erase(kept, _mshrs.end());
}

std::size_t
Cache::mshrsInUse(Cycle now) const
{
    return static_cast<std::size_t>(
        std::count_if(_mshrs.begin(), _mshrs.end(),
                      [now](const Mshr &m) { return m.ready > now; }));
}

CacheResult
Cache::access(Addr addr, bool is_write, bool write_back_line, Cycle now)
{
    expireMshrs(now);
    CacheResult result;
    Addr line_addr = lineAddr(addr);

    if (Line *line = findLine(addr)) {
        result.hit = true;
        ++_stats.hits;
        line->lruStamp = ++_lruCounter;
        if (is_write) {
            if (write_back_line) {
                line->dirty = true;
            }
            // Write-through lines propagate downstream; the caller
            // charges that traffic.
        }
        // If the line is still being filled, report the merge so the
        // caller can charge the fill latency instead of a hit.
        result.mshrMerged = missOutstanding(addr, now);
        return result;
    }

    ++_stats.misses;
    // Write-back register lines are written whole (the preload rule
    // guarantees it), so a write miss allocates without a fill and
    // needs no MSHR.
    const bool needs_fill = !(is_write && write_back_line);
    if (needs_fill && _mshrs.size() >= _numMshrs) {
        ++_stats.mshrRejects;
        result.rejected = true;
        return result;
    }

    const bool allocate = !is_write || _writeAllocate || write_back_line;
    if (!allocate) {
        // Write-no-allocate miss: pass straight downstream.
        return result;
    }

    // Choose a victim: invalid first, else LRU.
    std::vector<Line> &set = _sets[setIndex(addr)];
    Line *victim = nullptr;
    for (Line &line : set) {
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (victim == nullptr || line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (victim->valid) {
        ++_stats.evictions;
        if (victim->dirty) {
            result.writeback = true;
            result.writebackAddr = victim->tag;
        }
    }
    victim->valid = true;
    victim->dirty = is_write && write_back_line;
    victim->tag = line_addr;
    victim->lruStamp = ++_lruCounter;
    return result;
}

void
Cache::fillComplete(Addr addr, Cycle ready)
{
    // A refill of an outstanding line moves its ready cycle; the line
    // keeps its one MSHR.
    const Addr line = lineAddr(addr);
    auto it = std::find_if(_mshrs.begin(), _mshrs.end(),
                           [line](const Mshr &m) { return m.line == line; });
    if (it != _mshrs.end())
        it->ready = ready;
    else
        _mshrs.push_back(Mshr{line, ready});
    _mshrMinReady = std::min(_mshrMinReady, ready);
}

bool
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->valid = false;
        line->dirty = false;
        return true;
    }
    return false;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

bool
Cache::missOutstanding(Addr addr, Cycle now) const
{
    const Mshr *m = findMshr(addr);
    return m != nullptr && m->ready > now;
}

Cycle
Cache::outstandingReady(Addr addr) const
{
    const Mshr *m = findMshr(addr);
    return m == nullptr ? 0 : m->ready;
}

} // namespace regless::mem
