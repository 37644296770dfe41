#include "regless/compressor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compiler/value_range.hh"

namespace regless::staging
{

namespace
{

/** Check lanes [lo, hi) for value[i] = value[lo] + (i - lo) * stride. */
bool
isStriding(const ir::LaneValues &v, unsigned lo, unsigned hi,
           std::uint32_t stride)
{
    for (unsigned i = lo + 1; i < hi; ++i) {
        if (v[i] != v[lo] + (i - lo) * stride)
            return false;
    }
    return true;
}

} // namespace

Compressor::Compressor(const CompressorConfig &config,
                       mem::MemorySystem &mem, Addr compressed_base,
                       unsigned num_warps)
    : _cfg(config),
      _mem(mem),
      _compressedBase(compressed_base),
      _numWarps(num_warps)
{
}

Pattern
Compressor::matchPattern(const ir::LaneValues &value)
{
    if (isStriding(value, 0, warpSize, 0))
        return Pattern::Constant;
    if (isStriding(value, 0, warpSize, 1))
        return Pattern::Stride1;
    if (isStriding(value, 0, warpSize, 4))
        return Pattern::Stride4;
    constexpr unsigned half = warpSize / 2;
    if (isStriding(value, 0, half, 1) &&
        isStriding(value, half, warpSize, 1)) {
        return Pattern::HalfStride1;
    }
    if (isStriding(value, 0, half, 4) &&
        isStriding(value, half, warpSize, 4)) {
        return Pattern::HalfStride4;
    }
    return Pattern::None;
}

void
Compressor::installLine(std::uint32_t line, bool dirty)
{
    auto it = _cache.find(line);
    if (it != _cache.end()) {
        it->second.dirty |= dirty;
        it->second.lruStamp = ++_lruCounter;
        return;
    }
    if (_cache.size() >= _cfg.cacheLines) {
        // Evict LRU; dirty victims queue for a lazy flush.
        auto victim = _cache.begin();
        for (auto cit = _cache.begin(); cit != _cache.end(); ++cit) {
            if (cit->second.lruStamp < victim->second.lruStamp)
                victim = cit;
        }
        if (victim->second.dirty)
            _flushQueue.push_back(victim->first);
        _cache.erase(victim);
    }
    CacheEntry entry;
    entry.dirty = dirty;
    entry.lruStamp = ++_lruCounter;
    _cache.emplace(line, entry);
}

Compressor::EvictResult
Compressor::compressEvict(WarpId warp, RegId reg,
                          const ir::LaneValues &value, Cycle now)
{
    (void)now;
    EvictResult result;

    // Static/hybrid: consult the compile-time proven encoding before
    // (or instead of) the runtime matcher. The guard against the
    // actual lanes makes an unsound proof cost compression only.
    if (_mode != CompressionMode::Dynamic) {
        compiler::StaticEncoding enc = compiler::StaticEncoding::None;
        if (_encodings && reg < _encodings->size())
            enc = (*_encodings)[reg];
        if (enc != compiler::StaticEncoding::None) {
            if (compiler::encodingHolds(enc, value)) {
                ++_stats.staticHits;
                ++_stats.matches;
                _bitVector.insert(regIndex(warp, reg));
                installLine(lineOf(warp, reg), /*dirty=*/true);
                result.compressed = true;
                result.staticHit = true;
                return result;
            }
            // The value escaped its proven range.
            ++_stats.staticUnsound;
            result.unsound = true;
            if (_mode == CompressionMode::Static) {
                ++_stats.incompressible;
                _bitVector.erase(regIndex(warp, reg));
                return result;
            }
            // Hybrid falls through to the matcher.
        } else if (_mode == CompressionMode::Static) {
            // Nothing proven and no matcher in static mode.
            ++_stats.incompressible;
            _bitVector.erase(regIndex(warp, reg));
            return result;
        }
    }

    Pattern pattern = matchPattern(value);
    if (pattern != Pattern::None &&
        !((_cfg.patternMask >> static_cast<unsigned>(pattern)) & 1u)) {
        pattern = Pattern::None; // class disabled by configuration
    }
    if (pattern == Pattern::None) {
        ++_stats.incompressible;
        _bitVector.erase(regIndex(warp, reg));
        return result;
    }
    ++_stats.matches;
    _bitVector.insert(regIndex(warp, reg));
    installLine(lineOf(warp, reg), /*dirty=*/true);
    result.compressed = true;
    return result;
}

Compressor::PreloadResult
Compressor::preload(WarpId warp, RegId reg, Cycle now)
{
    PreloadResult result;
    if (!isCompressed(warp, reg)) {
        result.wasCompressed = false;
        result.ready = now + _cfg.checkLatency;
        return result;
    }
    result.wasCompressed = true;
    std::uint32_t line = lineOf(warp, reg);
    auto it = _cache.find(line);
    if (it != _cache.end()) {
        ++_stats.cacheHits;
        it->second.lruStamp = ++_lruCounter;
        result.cacheHit = true;
        result.ready = now + _cfg.checkLatency + kCompressorHitLatency;
        return result;
    }
    // Fetch the compressed line from the memory system.
    ++_stats.cacheMisses;
    if (!_mem.l1PortFree(now)) {
        result.accepted = false;
        return result;
    }
    mem::MemAccessResult mr = _mem.access(
        lineAddr(line), /*is_write=*/false, mem::MemSpace::Register, now);
    if (!mr.accepted) {
        result.accepted = false;
        return result;
    }
    installLine(line, /*dirty=*/false);
    // The bit-vector check precedes the fetch, so a miss pays
    // checkLatency just like the hit and not-compressed paths (it was
    // formerly dropped here, modelling misses as cheaper than hits).
    result.ready = mr.readyCycle + _cfg.checkLatency + kCompressorHitLatency;
    result.source = mr.source;
    return result;
}

void
Compressor::invalidate(WarpId warp, RegId reg)
{
    _bitVector.erase(regIndex(warp, reg));
    // The line may hold other registers; it stays cached.
}

bool
Compressor::isCompressed(WarpId warp, RegId reg) const
{
    return _bitVector.count(regIndex(warp, reg)) > 0;
}

void
Compressor::tick(Cycle now)
{
    if (_flushQueue.empty() || !_mem.l1PortFree(now))
        return;
    std::uint32_t line = _flushQueue.front();
    mem::MemAccessResult mr = _mem.access(
        lineAddr(line), /*is_write=*/true, mem::MemSpace::Register, now);
    if (!mr.accepted)
        return;
    ++_stats.lineFlushes;
    _flushQueue.pop_front();
}

} // namespace regless::staging
