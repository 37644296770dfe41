/**
 * @file
 * Register-lifetime annotation (paper §4.3, §4.4).
 *
 * Classifies each region's registers as inputs / outputs / interiors,
 * then places the four annotation kinds the hardware consumes:
 *   - preload (with invalidating-read flag) on region entry,
 *   - erase at an interior register's last use,
 *   - evict at an input/output register's last use in the region,
 *   - cache invalidation where control flow kills a register, placed at
 *     a postdominator of all definitions and death points.
 */

#ifndef REGLESS_COMPILER_LIFETIME_ANNOTATOR_HH
#define REGLESS_COMPILER_LIFETIME_ANNOTATOR_HH

#include <vector>

#include "compiler/kernel_analyses.hh"
#include "compiler/region.hh"

namespace regless::compiler
{

/** Fills every annotation field of a region partition. */
class LifetimeAnnotator
{
  public:
    /** Aggregate facts about lifetime placement, for the evaluation. */
    struct Stats
    {
        /** Registers live across at least one region boundary. */
        unsigned crossRegionRegs = 0;

        /** Registers that die on a control-flow edge somewhere. */
        unsigned edgeDeathRegs = 0;

        /**
         * Cross-region registers whose invalidation could not be placed
         * (no reachable postdominator where the value is dead). These
         * linger in the memory system — the paper's "conservative
         * liveness" cost visible in hybridsort and heartwall.
         */
        unsigned unplacedInvalidations = 0;

        /** Registers with at least one soft definition. */
        unsigned softDefRegs = 0;
    };

    /** Annotates regions of @a facts' kernel, reading its analyses. */
    explicit LifetimeAnnotator(const KernelAnalyses &facts);

    /**
     * Fill inputs/outputs/interiors, preloads, erases, evicts,
     * cache invalidations, maxLive, and bankUsage of every region.
     * Regions must be sorted by startPc and cover the kernel.
     */
    void annotate(std::vector<Region> &regions);

    const Stats &stats() const { return _stats; }

  private:
    void classifyRegisters(Region &region) const;
    void placeEraseEvict(Region &region) const;
    void placePreloads(Region &region) const;

    /**
     * Record the compression encoding the value-range analysis proves
     * for each boundary register at its evict point (DESIGN.md §14).
     */
    void recordEncodings(Region &region) const;
    void placeCacheInvalidations(std::vector<Region> &regions);
    void computeCapacity(Region &region) const;

    /** Last PC in [start, end] that reads or writes @a reg. */
    Pc lastTouch(Pc start, Pc end, RegId reg) const;

    const ir::Kernel &_kernel;
    const ir::CfgAnalysis &_cfg;
    const ir::Liveness &_live;
    const ValueRangeAnalysis &_vra;
    Stats _stats;
};

} // namespace regless::compiler

#endif // REGLESS_COMPILER_LIFETIME_ANNOTATOR_HH
