/**
 * @file
 * Compiler support for the compiler-assisted register-file cache
 * (Shoushtary et al., arXiv 2310.17501; DESIGN.md §13.2): a static
 * pass that marks which instruction results are worth caching in the
 * small RF cache. The hardware then only allocates cache entries for
 * marked registers, so the cache is never polluted by long-lived
 * values that would be evicted before reuse.
 *
 * The pass reads the divergence-corrected liveness the lifetime
 * annotator is built on (the compiled kernel's own analyses): a
 * register is cacheable when every definition's value is consumed
 * soon (short def-to-last-use distance), entirely within the defining
 * basic block, and never written by a soft definition (partial lane
 * masks force a merge with the backing file's copy).
 */

#ifndef REGLESS_COMPILER_RF_CACHE_HINTS_HH
#define REGLESS_COMPILER_RF_CACHE_HINTS_HH

#include <vector>

#include "compiler/kernel_analyses.hh"

namespace regless::compiler
{

/** Knobs of the cacheability pass. */
struct RfCacheHintParams
{
    /** Max def-to-last-use distance (instructions) to cache a value. */
    unsigned maxDefUseDistance = 12;
};

/**
 * Per-register cacheability verdicts for @a facts' kernel, indexed by
 * RegId. Pure function of the kernel and @a params.
 */
std::vector<bool> rfCacheableRegs(const KernelAnalyses &facts,
                                  const RfCacheHintParams &params);

} // namespace regless::compiler

#endif // REGLESS_COMPILER_RF_CACHE_HINTS_HH
