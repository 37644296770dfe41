/**
 * @file
 * Static verifier for compiled kernels.
 *
 * Checks every structural invariant the RegLess hardware relies on —
 * region coverage, block containment, the load/use split, annotation
 * placement, capacity consistency — and returns structured Findings
 * instead of asserting. Useful both as a test oracle and as a safety
 * net for anyone modifying the compiler passes. The path-sensitive
 * staging-state checks live in compiler/staging_checker.hh; the
 * combined entry point is lintCompiledKernel() there.
 */

#ifndef REGLESS_COMPILER_VERIFIER_HH
#define REGLESS_COMPILER_VERIFIER_HH

#include <vector>

#include "compiler/compiler.hh"
#include "compiler/finding.hh"

namespace regless::compiler
{

/**
 * Verify @a ck against the hardware's structural assumptions.
 *
 * @param check_load_use Also require that no global load shares a
 *        region with its first use (disable when the kernel was
 *        compiled with splitLoadUse off).
 * @return one Finding per violated invariant; empty when sound.
 */
std::vector<Finding> verifyStructure(const CompiledKernel &ck,
                                     bool check_load_use = true);

} // namespace regless::compiler

#endif // REGLESS_COMPILER_VERIFIER_HH
