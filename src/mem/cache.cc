#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace regless::mem
{

Cache::Cache(std::string name, const CacheConfig &config)
    : _ways(config.ways),
      _numMshrs(config.mshrs),
      _writeAllocate(config.writeAllocate),
      _stats(std::move(name)),
      _hits(_stats.counter("hits")),
      _misses(_stats.counter("misses")),
      _evictions(_stats.counter("evictions")),
      _writebacks(_stats.counter("writebacks")),
      _mshrMerges(_stats.counter("mshr_merges")),
      _mshrRejects(_stats.counter("mshr_rejects"))
{
    if (config.sizeBytes % (lineBytes * _ways) != 0)
        fatal("cache size ", config.sizeBytes,
              " not divisible by way size");
    _numSets = config.sizeBytes / (lineBytes * _ways);
    _sets.assign(_numSets, std::vector<Line>(_ways));
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

void
Cache::expireMshrs(Cycle now)
{
    if (now < _mshrMinReady)
        return;
    _mshrMinReady = std::numeric_limits<Cycle>::max();
    for (auto it = _mshrMap.begin(); it != _mshrMap.end();) {
        if (it->second <= now) {
            it = _mshrMap.erase(it);
        } else {
            _mshrMinReady = std::min(_mshrMinReady, it->second);
            ++it;
        }
    }
}

std::size_t
Cache::mshrsInUse(Cycle now) const
{
    return static_cast<std::size_t>(
        std::count_if(_mshrMap.begin(), _mshrMap.end(),
                      [now](const auto &m) { return m.second > now; }));
}

CacheResult
Cache::access(Addr addr, bool is_write, bool write_back_line, Cycle now)
{
    expireMshrs(now);
    CacheResult result;
    Addr line_addr = lineAddr(addr);

    if (Line *line = findLine(addr)) {
        result.hit = true;
        ++_hits;
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
        auto it = _mshrMap.find(line_addr);
        if (it != _mshrMap.end() && it->second > now)
            result.mshrMerged = true;
        return result;
    }

    ++_misses;
    // Write-back register lines are written whole (the preload rule
    // guarantees it), so a write miss allocates without a fill and
    // needs no MSHR.
    const bool needs_fill = !(is_write && write_back_line);
    if (needs_fill && _mshrMap.size() >= _numMshrs) {
        ++_mshrRejects;
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
        ++_evictions;
        if (victim->dirty) {
            ++_writebacks;
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
    _mshrMap[lineAddr(addr)] = ready;
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
    auto it = _mshrMap.find(lineAddr(addr));
    return it != _mshrMap.end() && it->second > now;
}

Cycle
Cache::outstandingReady(Addr addr) const
{
    auto it = _mshrMap.find(lineAddr(addr));
    return it == _mshrMap.end() ? 0 : it->second;
}

} // namespace regless::mem
