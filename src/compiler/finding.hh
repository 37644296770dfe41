/**
 * @file
 * Structured verification findings.
 *
 * The structural verifier, the staging-state abstract interpreter, and
 * the runtime shadow checker all report problems as Findings: a stable
 * machine-readable code, a severity, the location (region / pc /
 * register, each optional), and a human-readable message. Tools render
 * them as text or JSON; tests match on the code.
 */

#ifndef REGLESS_COMPILER_FINDING_HH
#define REGLESS_COMPILER_FINDING_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "compiler/region.hh"

namespace regless::compiler
{

/** How bad a finding is. Errors make a kernel unsound to simulate. */
enum class Severity : std::uint8_t
{
    Warning,
    Error,
};

/** "warning" / "error". */
const char *severityName(Severity severity);

/**
 * Stable finding codes. Structural codes come from the verifier;
 * staging codes from the abstract interpreter; runtime codes from the
 * dynamic shadow checker. Tests and tools key on these strings, so
 * they are part of the lint output format.
 */
namespace codes
{

// Structural (compiler/verifier.cc).
inline constexpr const char *regionBounds = "region-bounds";
inline constexpr const char *regionSpansBlock = "region-spans-block";
inline constexpr const char *regionIdMap = "region-id-map";
inline constexpr const char *coverage = "coverage";
inline constexpr const char *classification = "classification";
inline constexpr const char *preloadSet = "preload-set";
inline constexpr const char *erasePlacement = "erase-placement";
inline constexpr const char *evictPlacement = "evict-placement";
inline constexpr const char *capacityMismatch = "capacity-mismatch";
inline constexpr const char *loadUseSplit = "load-use-split";
inline constexpr const char *metadataMissing = "metadata-missing";

// Staging-state (compiler/staging_checker.cc).
inline constexpr const char *readUnstaged = "read-unstaged";
inline constexpr const char *readAfterErase = "read-after-erase";
inline constexpr const char *readAfterInvalidate = "read-after-invalidate";
inline constexpr const char *preloadInvalidated = "preload-invalidated";
inline constexpr const char *preloadErased = "preload-erased";
inline constexpr const char *preloadUndef = "preload-undef";
inline constexpr const char *eraseLive = "erase-live";
inline constexpr const char *eraseSoftDef = "erase-soft-def";
inline constexpr const char *eraseUnstaged = "erase-unstaged";
inline constexpr const char *evictUnstaged = "evict-unstaged";
inline constexpr const char *invalidateLive = "invalidate-live";
inline constexpr const char *leakedLine = "leaked-line";
inline constexpr const char *capacityUnderclaim = "capacity-underclaim";

// Value-range (compiler/staging_checker.cc, DESIGN.md §14).
inline constexpr const char *encodingUnsound = "encoding-unsound";
inline constexpr const char *bankOverclaim = "bank-overclaim";
inline constexpr const char *deadStagedLine = "dead-staged-line";

// Runtime (regless/shadow_checker.cc).
inline constexpr const char *rtReadUnstaged = "rt-read-unstaged";
inline constexpr const char *rtReadAfterErase = "rt-read-after-erase";
inline constexpr const char *rtReadAfterInvalidate =
    "rt-read-after-invalidate";
inline constexpr const char *rtPreloadLost = "rt-preload-lost";
inline constexpr const char *rtLeakedLine = "rt-leaked-line";
inline constexpr const char *rtEncodingUnsound = "rt-encoding-unsound";

} // namespace codes

/** One verification problem, locatable and machine-matchable. */
struct Finding
{
    /** Stable code from compiler::codes. */
    std::string code;

    Severity severity = Severity::Error;

    /** Region the finding is about; invalidRegion when kernel-wide. */
    RegionId region = invalidRegion;

    /** Instruction the finding anchors to; invalidPc when region-wide. */
    Pc pc = invalidPc;

    /** Register involved; invalidReg when not register-specific. */
    RegId reg = invalidReg;

    std::string message;

    /** "error[read-unstaged] region 3 pc 17 r5: ..." */
    std::string toString() const;

    /** One JSON object (all fields; absent locations become null). */
    std::string toJson() const;
};

/** @return true when any finding has Severity::Error. */
bool hasErrors(const std::vector<Finding> &findings);

/** Render findings one per line (toString), for CLI output and logs. */
std::string formatFindings(const std::vector<Finding> &findings);

} // namespace regless::compiler

#endif // REGLESS_COMPILER_FINDING_HH
