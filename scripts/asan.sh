#!/usr/bin/env bash
# Build with AddressSanitizer and run the verification-heavy suites:
# the staging checker walks compiler data structures that mutation
# tests deliberately corrupt, so this is where out-of-bounds reads
# would hide (see README "Sanitizers").
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}

cmake -B "$BUILD_DIR" -S . -DREGLESS_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$(nproc)" --target regless_tests

# Static checker + mutants, runtime shadow checker, lint surface, and
# the OSU/CM data structures the shadow hooks into. Each pattern must
# select a test (scripts/gtest_filtered.sh).
scripts/gtest_filtered.sh "$BUILD_DIR"/tests/regless_tests \
    'StagingCheckerTest.*:ShadowCheckerTest.*:MutationHarness.*:*RodiniaLint*:*LintClean*:VerifierTest.*:CmStateTest.*:CmInvariantTest.*:ExperimentEngine.*'
echo "asan: verification suites passed with -fsanitize=address"
