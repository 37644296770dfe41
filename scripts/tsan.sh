#!/usr/bin/env bash
# Build with ThreadSanitizer and run the multi-SM determinism tests —
# the parallel executor's data-race check (see README "Sanitizers").
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}

cmake -B "$BUILD_DIR" -S . -DREGLESS_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)" --target regless_tests

# The parallel executor and thread-pool suites; MultiSmTest covers the
# shared-DRAM path at its default thread count, and the engine tests
# drive the experiment engine's pool (lint gate, cache reads and
# simulations). Each pattern must select a test
# (scripts/gtest_filtered.sh).
scripts/gtest_filtered.sh "$BUILD_DIR"/tests/regless_tests \
    '*ThreadCountInvariance*:*ParallelStress*:MultiSmParallel.*:ThreadPoolTest.*:MultiSmTest.*:ExperimentEngine.ResultsAreWorkerCountInvariant:ExperimentEngine.WarmFlushIsWorkerCountInvariant:ExperimentEngine.LintGateStaysShutAfterARejection:ExperimentEngine.LintGateRaisesTheFirstFailureInSubmissionOrder'
echo "tsan: multi-SM and engine pool tests passed with -fsanitize=thread"
