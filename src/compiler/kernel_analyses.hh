/**
 * @file
 * One kernel together with the per-kernel facts its consumers read:
 * the CFG analysis, the divergence-corrected liveness and the value
 * ranges (DESIGN.md §3). A CompiledKernel owns one of these behind a
 * shared pointer, so the compiler passes, the lint, the SM and the
 * providers all read the same facts, built once, from the compiled
 * kernel's own instruction stream.
 */

#ifndef REGLESS_COMPILER_KERNEL_ANALYSES_HH
#define REGLESS_COMPILER_KERNEL_ANALYSES_HH

#include <utility>

#include "compiler/value_range.hh"
#include "ir/cfg_analysis.hh"
#include "ir/kernel.hh"
#include "ir/liveness.hh"

namespace regless::compiler
{

/**
 * A kernel and its analyses, immutable once built. The analyses hold
 * references to the kernel member, so the bundle is neither copied nor
 * moved: share it instead.
 */
struct KernelAnalyses
{
    explicit KernelAnalyses(ir::Kernel k)
        : kernel(std::move(k)),
          cfg(kernel),
          live(kernel, cfg),
          vra(kernel, cfg, live)
    {
    }

    KernelAnalyses(const KernelAnalyses &) = delete;
    KernelAnalyses &operator=(const KernelAnalyses &) = delete;

    const ir::Kernel kernel;
    const ir::CfgAnalysis cfg;
    const ir::Liveness live;
    const ValueRangeAnalysis vra;
};

} // namespace regless::compiler

#endif // REGLESS_COMPILER_KERNEL_ANALYSES_HH
