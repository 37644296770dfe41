/**
 * @file
 * Eviction compressor (paper §5.3).
 *
 * Registers evicted from the OSU are matched against six patterns
 * (uncompressed, constant, stride-1, stride-4, and half-warp variants
 * of the strides). Compressed representations pack 15 registers per
 * 128-byte backing line, so compressed traffic both saves L1 capacity
 * and batches many registers into one L1 request. A per-register bit
 * vector records compression state so preloads of uncompressed
 * registers never touch compressed lines; a small internal cache holds
 * recently used compressed lines.
 */

#ifndef REGLESS_REGLESS_COMPRESSOR_HH
#define REGLESS_REGLESS_COMPRESSOR_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "common/types.hh"
#include "compiler/region.hh"
#include "ir/instruction.hh"
#include "mem/memory_system.hh"
#include "regless/regless_config.hh"

namespace regless::staging
{

/** Value patterns the compressor recognises. */
enum class Pattern : std::uint8_t
{
    None,        ///< incompressible
    Constant,    ///< all lanes equal
    Stride1,     ///< lane i = base + i
    Stride4,     ///< lane i = base + 4 i
    HalfStride1, ///< independent stride-1 per half warp
    HalfStride4, ///< independent stride-4 per half warp
};

/** Compressed registers per 128-byte backing line. */
inline constexpr unsigned kCompressedRegsPerLine = 15;
/** Extra preload latency when the value decompresses from cache. */
inline constexpr Cycle kCompressorHitLatency = 2;

/** One shard's compressor. */
class Compressor
{
  public:
    /** Outcome of routing a preload through the compressor. */
    struct PreloadResult
    {
        /** False when the L1 port was busy; retry next cycle. */
        bool accepted = true;
        /** True when the register was stored compressed. */
        bool wasCompressed = false;
        /** True when it decompressed from the internal cache. */
        bool cacheHit = false;
        Cycle ready = 0;
        mem::MemSource source = mem::MemSource::L1;
    };

    /** Compression outcomes and internal-cache traffic. */
    struct Stats
    {
        /** Dirty evictions stored compressed. */
        std::uint64_t matches = 0;
        /** Dirty evictions left to the caller as full lines. */
        std::uint64_t incompressible = 0;
        /** Matches won by a compile-time proven encoding. */
        std::uint64_t staticHits = 0;
        /** Values that escaped their proven encoding. */
        std::uint64_t staticUnsound = 0;
        std::uint64_t cacheHits = 0;
        std::uint64_t cacheMisses = 0;
        /** Dirty compressed lines written to L1. */
        std::uint64_t lineFlushes = 0;
    };

    /**
     * @param config Compressor parameters.
     * @param mem Shared memory hierarchy (for line fetch/flush).
     * @param compressed_base Base address of the compressed space.
     * @param num_warps Warps per SM (for the register index layout).
     */
    Compressor(const CompressorConfig &config, mem::MemorySystem &mem,
               Addr compressed_base, unsigned num_warps);

    /** Classify @a value (pure; exposed for tests and benches). */
    static Pattern matchPattern(const ir::LaneValues &value);

    /** Outcome of offering a dirty eviction to the compressor. */
    struct EvictResult
    {
        /**
         * The value compressed (stored internally, flushed lazily);
         * when false the caller must write the full line to L1.
         */
        bool compressed = false;
        /** A compile-time proven encoding was applied. */
        bool staticHit = false;
        /**
         * The value escaped its compile-time proven range: the static
         * analysis (or a mutated annotation) is unsound for it.
         */
        bool unsound = false;
    };

    /**
     * Enable static/hybrid compression against the compiled kernel's
     * proven-encoding table (indexed by RegId; may be null or short —
     * missing entries behave as StaticEncoding::None). The table must
     * outlive the compressor.
     */
    void setStaticEncodings(
        CompressionMode mode,
        const std::vector<compiler::StaticEncoding> *encodings)
    {
        _mode = mode;
        _encodings = encodings;
    }

    /** Try to absorb a dirty eviction. */
    EvictResult compressEvict(WarpId warp, RegId reg,
                              const ir::LaneValues &value, Cycle now);

    /**
     * Route a preload. Checks the bit vector; for compressed registers
     * serves from the internal cache or fetches the compressed line.
     * For uncompressed registers returns wasCompressed = false and the
     * caller fetches the full line from L1.
     */
    PreloadResult preload(WarpId warp, RegId reg, Cycle now);

    /** Invalidating read / cache invalidation: forget the register. */
    void invalidate(WarpId warp, RegId reg);

    /** Bit-vector check (no latency accounting). */
    bool isCompressed(WarpId warp, RegId reg) const;

    /** Flush at most one dirty cached line to L1 (background work). */
    void tick(Cycle now);

    /**
     * Dirty lines still queued for write-back. While true, tick() has
     * per-cycle observable work, so the cycle-skip engine must not
     * collapse cycles over this shard.
     */
    bool flushPending() const { return !_flushQueue.empty(); }

    const Stats &stats() const { return _stats; }

  private:
    std::uint32_t
    regIndex(WarpId warp, RegId reg) const
    {
        return static_cast<std::uint32_t>(reg) * _numWarps + warp;
    }

    std::uint32_t
    lineOf(WarpId warp, RegId reg) const
    {
        return regIndex(warp, reg) / kCompressedRegsPerLine;
    }

    Addr
    lineAddr(std::uint32_t line) const
    {
        return _compressedBase + static_cast<Addr>(line) * 128;
    }

    /** Install @a line in the cache; may queue a dirty victim flush. */
    void installLine(std::uint32_t line, bool dirty);

    struct CacheEntry
    {
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    CompressorConfig _cfg;
    mem::MemorySystem &_mem;
    Addr _compressedBase;
    unsigned _numWarps;
    CompressionMode _mode = CompressionMode::Dynamic;
    /** Kernel-wide proven encodings, or null in dynamic mode. */
    const std::vector<compiler::StaticEncoding> *_encodings = nullptr;
    /** Registers currently stored compressed. */
    std::unordered_set<std::uint32_t> _bitVector;
    /** Internal compressed-line cache. */
    std::unordered_map<std::uint32_t, CacheEntry> _cache;
    /** Dirty lines waiting for an L1 port slot. */
    std::list<std::uint32_t> _flushQueue;
    std::uint64_t _lruCounter = 0;
    Stats _stats;
};

} // namespace regless::staging

#endif // REGLESS_REGLESS_COMPRESSOR_HH
