/**
 * @file
 * Region creation: paper Algorithm 1.
 *
 * Starting from basic blocks, repeatedly split any region that violates
 * a constraint. Splits are placed in the window between the point that
 * best separates global loads from their first uses (lower bound) and
 * the last point at which the region prefix is still valid (upper
 * bound), choosing the PC that minimises input + output registers of
 * the two halves — the paper's "fewest live registers" seams (Fig. 5).
 */

#ifndef REGLESS_COMPILER_REGION_BUILDER_HH
#define REGLESS_COMPILER_REGION_BUILDER_HH

#include <vector>

#include "compiler/config.hh"
#include "compiler/region.hh"
#include "ir/kernel.hh"
#include "ir/liveness.hh"

namespace regless::compiler
{

/** Peak OSU line demand of a PC range. */
struct Occupancy
{
    unsigned maxLive = 0;
    std::array<std::uint8_t, numOsuBanks> bankUsage{};
};

/**
 * Compute the staging-unit line demand of range [start, end].
 *
 * A register's line is occupied from the region start (inputs and
 * soft-defined registers, which are preloaded) or its first definition
 * until its last touch (erase/evict point) or the region end (outputs
 * and live-through values). This interval model — not plain liveness —
 * is what the hardware reserves: a register redefined after a dead gap
 * still holds its line across the gap.
 */
Occupancy computeOccupancy(const ir::Kernel &kernel,
                           const ir::Liveness &liveness, Pc start,
                           Pc end);

/** Builds the region partition of one kernel. */
class RegionBuilder
{
  public:
    RegionBuilder(const ir::Kernel &kernel, const ir::Liveness &liveness,
                  const CompilerConfig &config);

    /**
     * Run Algorithm 1.
     * @return regions sorted by start PC, covering every instruction
     * exactly once, each contained in a single basic block.
     */
    std::vector<Region> build() const;

    /** @name Constraint checks (public for unit testing). */
    /// @{
    bool isValid(Pc start, Pc end) const;
    Pc findSplitPoint(Pc start, Pc end) const;
    bool containsLoadAndUse(Pc start, Pc end) const;
    unsigned inputOutputCount(Pc start, Pc end) const;
    /// @}

  private:
    /** Count of (global load, first use) pairs wholly inside a half. */
    unsigned loadUsePairsWithin(Pc start, Pc end, Pc split) const;

    /** Upward-exposed (preload-requiring) registers of [start, end]. */
    unsigned inputCount(Pc start, Pc end) const;

    /** Registers defined in [start, end] and live past @a end. */
    unsigned outputCount(Pc start, Pc end) const;

    const ir::Kernel &_kernel;
    const ir::Liveness &_live;
    const CompilerConfig &_cfg;
};

} // namespace regless::compiler

#endif // REGLESS_COMPILER_REGION_BUILDER_HH
