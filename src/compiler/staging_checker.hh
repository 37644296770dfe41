/**
 * @file
 * Path-sensitive staging-state checker (abstract interpreter).
 *
 * The structural verifier proves each region is well-formed in
 * isolation; this checker proves the annotations compose across
 * control flow. For every register it propagates a StageSet — the set
 * of abstract locations {undef, staged, backing, invalidated, dead}
 * the register's value may occupy — over the inter-region graph
 * (regions in program order within a block, CFG edges between blocks,
 * loop back-edges) to a fixpoint, then replays each reachable region
 * once to report, as structured Findings:
 *
 *  - reads of a register that is not staged (a preload missing on
 *    some path, or a read past the register's erase/evict point),
 *  - preloads of a value some path has erased or invalidated (the
 *    paper's §4.3 invalidating-read and §4.4 placement bugs),
 *  - erases of a register that is still live — including values a
 *    loop back-edge re-reads or a later soft definition must merge
 *    with (Algorithm 2),
 *  - invalidating annotations on live values,
 *  - regions that end with a staged line neither erased nor evicted
 *    (a staging-unit leak), and
 *  - per-region capacity claims below the worst-case concurrent
 *    interior+input set.
 *
 * See DESIGN.md §8 for the abstract domain and transfer functions.
 */

#ifndef REGLESS_COMPILER_STAGING_CHECKER_HH
#define REGLESS_COMPILER_STAGING_CHECKER_HH

#include <vector>

#include "compiler/compiler.hh"
#include "compiler/finding.hh"
#include "ir/staging_lattice.hh"

namespace regless::compiler
{

/**
 * Run the staging-state abstract interpretation over @a ck.
 *
 * @return one Finding per violated staging invariant; empty when the
 *         annotations are path-sensitively sound.
 */
std::vector<Finding> checkStagingStates(const CompiledKernel &ck);

/**
 * Cross-check every recorded StaticEncoding annotation against the
 * value-range analysis (compiler/value_range.hh) that @a ck built from
 * its own instruction stream: an encoding those facts do not imply, or
 * recorded for a register the region never evicts, is an
 * encoding-unsound Error (a compressor trusting it would mis-decode
 * without the runtime guard). The facts are read, not recomputed, yet
 * this stays a check: a caller supplies regions and annotations but
 * never the facts. With @a advisory set, also emit Warnings for provable waste:
 * bank-overclaim (a staged register with a proven narrow encoding
 * still claims a full 128-byte line) and dead-staged-line (a preload
 * of a provably compile-time-constant value).
 */
std::vector<Finding> checkValueRanges(const CompiledKernel &ck,
                                      bool advisory = false);

/** Knobs for the combined lint entry point. */
struct LintOptions
{
    /**
     * Enforce the load/use split (disable when the kernel was
     * compiled with splitLoadUse off).
     */
    bool checkLoadUse = true;

    /**
     * Emit the advisory value-range Warnings (bank-overclaim,
     * dead-staged-line) in addition to the always-on soundness check.
     */
    bool advisory = false;
};

/**
 * Full lint: structural verification (compiler/verifier.hh) followed
 * by the staging-state abstract interpretation, as one finding list.
 */
std::vector<Finding> lintCompiledKernel(const CompiledKernel &ck,
                                        const LintOptions &options = {});

} // namespace regless::compiler

#endif // REGLESS_COMPILER_STAGING_CHECKER_HH
