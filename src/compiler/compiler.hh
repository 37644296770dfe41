/**
 * @file
 * The RegLess compiler driver: the public entry point that turns a
 * kernel into regions plus annotations (paper §4).
 */

#ifndef REGLESS_COMPILER_COMPILER_HH
#define REGLESS_COMPILER_COMPILER_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/config.hh"
#include "compiler/kernel_analyses.hh"
#include "compiler/lifetime_annotator.hh"
#include "compiler/region.hh"
#include "ir/kernel.hh"

namespace regless::compiler
{

/**
 * A kernel compiled for RegLess: the (possibly renumbered) instruction
 * stream plus the region partition and all hardware annotations. Its
 * kernel and that kernel's analyses sit in one immutable bundle that
 * every copy shares, so a copy or a move never rebuilds an analysis
 * nor leaves one pointing at a moved-from kernel.
 */
class CompiledKernel
{
  public:
    /**
     * Wrap @a kernel with annotated @a regions, building the kernel's
     * analyses from @a kernel itself. The tests and the mutation
     * checks build deliberately corrupted kernels this way.
     */
    CompiledKernel(ir::Kernel kernel, std::vector<Region> regions,
                   LifetimeAnnotator::Stats lifetime_stats,
                   unsigned metadata_insns);

    const ir::Kernel &kernel() const { return _facts->kernel; }

    /**
     * CFG, liveness and value ranges of kernel(), built once from its
     * own instructions; every consumer reads these instead of building
     * its own.
     */
    const KernelAnalyses &analyses() const { return *_facts; }
    const std::vector<Region> &regions() const { return _regions; }
    const Region &region(RegionId id) const { return _regions.at(id); }

    /** Region containing @a pc. */
    RegionId regionAt(Pc pc) const { return _pcToRegion.at(pc); }

    /** Region starting exactly at @a pc, or invalidRegion. */
    RegionId regionStartingAt(Pc pc) const;

    const LifetimeAnnotator::Stats &
    lifetimeStats() const
    {
        return _lifetimeStats;
    }

    /** Total metadata instructions inserted in the stream. */
    unsigned metadataInsns() const { return _metadataInsns; }

    /**
     * Kernel-wide static compression encoding per register, indexed
     * by RegId: the per-region encodings merged across all regions
     * (regions that disagree demote the register to None). This is
     * the table the eviction compressor consults in static/hybrid
     * mode — it has no region context at reclaim time.
     */
    const std::vector<StaticEncoding> &staticEncodings() const
    {
        return _staticEncodings;
    }

    /** Static mean of per-region preload counts. */
    double meanPreloadsPerRegion() const;

    /** Static mean of per-region max concurrent live registers. */
    double meanMaxLivePerRegion() const;

    /** Static mean of per-region instruction counts. */
    double meanInsnsPerRegion() const;

    /** Multi-line region dump for the examples and debugging. */
    std::string describeRegions() const;

  private:
    friend CompiledKernel compile(const ir::Kernel &kernel,
                                  const CompilerConfig &config);

    /** Wrap regions annotated over @a facts' kernel. */
    CompiledKernel(std::shared_ptr<const KernelAnalyses> facts,
                   std::vector<Region> regions,
                   LifetimeAnnotator::Stats lifetime_stats,
                   unsigned metadata_insns);

    std::shared_ptr<const KernelAnalyses> _facts;
    std::vector<Region> _regions;
    std::vector<RegionId> _pcToRegion;
    std::vector<StaticEncoding> _staticEncodings;
    LifetimeAnnotator::Stats _lifetimeStats;
    unsigned _metadataInsns;
};

/**
 * Run the full pass pipeline: (optional) bank-aware renumbering,
 * region creation, lifetime annotation, metadata encoding. The
 * analyses of the renumbered kernel are built once and travel with the
 * result.
 */
CompiledKernel compile(const ir::Kernel &kernel,
                       const CompilerConfig &config = CompilerConfig());

} // namespace regless::compiler

#endif // REGLESS_COMPILER_COMPILER_HH
