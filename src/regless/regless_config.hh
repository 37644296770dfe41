/**
 * @file
 * RegLess hardware configuration.
 */

#ifndef REGLESS_REGLESS_REGLESS_CONFIG_HH
#define REGLESS_REGLESS_REGLESS_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace regless::staging
{

/** Victim preference when the OSU must reclaim a line (§5.2). */
enum class VictimOrder
{
    FreeCleanDirty, ///< paper order: free, then clean, then dirty
    DirtyFirst,     ///< ablation: prefer dirty victims
};

/**
 * How the eviction compressor picks a representation (DESIGN.md §14).
 * Static and hybrid consult the compile-time proven encoding table
 * from the value-range analysis; every static decision is still
 * guarded against the actual lanes, so an unsound proof can only cost
 * compression, never correctness.
 */
enum class CompressionMode : std::uint8_t
{
    Dynamic = 0, ///< runtime pattern matcher only (paper §5.3)
    Static,      ///< compile-time proven encodings only, no matcher
    Hybrid,      ///< proven encoding first, matcher as fallback
};

/**
 * OSU shards per SM, each with its own capacity manager and
 * compressor. Warp w goes to shard w % kNumShards whatever the
 * scheduler count: a half-SM run with 2 schedulers still spreads its
 * warps over all 4 shards.
 */
inline constexpr unsigned kNumShards = 4;

/** Compressor parameters (§5.3). */
struct CompressorConfig
{
    /** Internal compressed-line cache entries per shard. */
    unsigned cacheLines = 12;
    /** Bit-vector check latency on every non-compressed preload. */
    Cycle checkLatency = 1;

    /**
     * Enabled pattern classes, as a bit per Pattern enum value
     * (bit 1 = Constant .. bit 5 = HalfStride4). Default: all six
     * paper patterns. Used by the compressor ablation study.
     */
    unsigned patternMask = 0x3e;
};

/** Whole-RegLess parameters. */
struct ReglessConfig
{
    /** OSU entries (128B registers) across the whole SM. */
    unsigned osuEntriesPerSm = 512;
    /** Enable the eviction compressor. */
    bool compressorEnabled = true;
    CompressorConfig compressor;
    /** Compressed-representation selection policy. */
    CompressionMode compressionMode = CompressionMode::Dynamic;
    /**
     * Power-gate OSU banks that hold no lines and have no outstanding
     * reservation: the static per-region footprint bound proves such a
     * bank stays empty until the next activation can touch it, so its
     * leakage is discounted in the energy model (DESIGN.md §14).
     */
    bool bankGating = true;
    /** Activation order: LIFO warp stack (paper) vs FIFO (ablation). */
    bool fifoActivation = false;
    VictimOrder victimOrder = VictimOrder::FreeCleanDirty;
    /**
     * Enable the dynamic staging-state shadow checker (DESIGN.md §8).
     * Off by default: it is a verification aid, not modelled hardware.
     */
    bool runtimeCheck = false;
};

} // namespace regless::staging

#endif // REGLESS_REGLESS_REGLESS_CONFIG_HH
