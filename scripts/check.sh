#!/usr/bin/env bash
# One-stop verification gate for the cycle-skip engine (DESIGN.md §12):
#   1. the tier-1 suite (ctest), which runs with the skip engine
#      enabled by default, built with -DREGLESS_WERROR=ON so a new
#      compiler warning fails the gate, plus every target built again
#      as Release with -DREGLESS_WERROR=ON, so a warning that only -O3
#      analysis prints (such as -Wrestrict) fails it too;
#   2. the cycle-skip differential oracle (ctest label "oracle"):
#      skip-on vs skip-off byte-identity across the Rodinia set, every
#      registered provider, multi-SM thread counts, traces, and fault
#      plans;
#   3. the provider-registry contract suite (ctest label "providers"):
#      every registered provider end-to-end under the closed stall
#      account and memory-image invariants (DESIGN.md §13);
#   4. the cache suite (ctest label "cache"): chaos injection under
#      every CacheFaultPlan and forked multi-process stress over one
#      directory (DESIGN.md §15);
#   5. the multi-tenant suite (ctest label "tenants"): single-tenant
#      byte parity, per-tenant closed accounts, the preemption chaos
#      test, starved-tenant reporting, and QoS (DESIGN.md §16);
#   6. the benchmark's own tests (perfbench/test_perfbench.py): the
#      metric names match BENCHMARK.json, and the figure text and
#      result digests match perfbench/reference.json byte for byte;
#   7. ASan and TSan passes over the skip-enabled determinism subset
#      (the stall-verdict memo, the per-group cause counts, the
#      per-warp stall runs and the trace labels index hot per-warp and
#      per-group arrays, so the slot-invariant, stall-trace and
#      deadlock-breakdown tests run under ASan too, as do the pinned
#      digests; the cache, memory-system and OSU unit tests drive the
#      MSHR array, the functional word pages and their written bitsets,
#      and the OSU's write(), so they run under ASan as well, as do the
#      config-fingerprint tests, whose canonical text writer formats
#      numbers into a fixed char buffer, and the compiled-kernel
#      analysis tests, which copy and move compiled kernels that share
#      one analysis bundle; the multi-SM epoch loop skips under worker
#      threads, the worker threads of a multi-SM co-run read the
#      compiled kernels all SMs share, and the experiment engine's
#      workers lint kernels and read cache entries; the seeded record
#      mutants and the cache unit tests, whose store, janitor, survey
#      and gc code walk files and parse hostile records, run under
#      ASan as well).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

# Registry guard (DESIGN.md §13): the provider seam is cast-free.
# Consumers reach a provider through RegisterProvider virtuals or the
# registry's typed hooks, never through dynamic_cast probes — a probe
# is a provider the registry doesn't fully describe.
if grep -rn "dynamic_cast<[^>]*Provider" src tests bench examples tools; then
    echo "check: dynamic_cast on the provider seam; use a" \
         "RegisterProvider virtual or a registry hook instead" >&2
    exit 1
fi

# Number-parsing guard: strtoul and its kin read a prefix ("512abc"
# is 512), stop at an exponent ("1e6" is 1) and wrap negatives ("-1"
# is 4294967295), so a mistyped flag runs the wrong job instead of
# failing. CLI numbers go through flagNumber() in common/flags.hh.
if grep -rnE '\b(strto[a-z]*|sto(i|l|ll|ul|ull|f|d|ld)|ato(i|l|ll|f))\s*\(' \
        tools bench examples; then
    echo "check: lax number parsing; use flagNumber() from" \
         "common/flags.hh" >&2
    exit 1
fi

# Finding-code guard: every compiler::Finding code declared in
# finding.hh must be exercised by at least one test, so a code can't
# silently decay into dead diagnostics nothing would catch regressing.
missing=0
for code in $(grep -o 'inline constexpr const char \*[A-Za-z]*' \
                   src/compiler/finding.hh |
                  sed 's/.*\*//' | sort -u); do
    if ! grep -rq "codes::$code" tests; then
        echo "check: finding code codes::$code has no test" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    exit 1
fi

# Static-analysis companion (scripts/tidy.sh): skips cleanly when
# clang-tidy is absent. REGLESS_TIDY=0 opts out, e.g. when iterating
# on a slow machine.
if [ "${REGLESS_TIDY:-1}" != "0" ]; then
    scripts/tidy.sh
fi

# Every build passes an explicit job count: a bare -j starts every
# ready compile at once on the Makefile generator.
cmake -B "$BUILD_DIR" -S . -DREGLESS_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# -O3 runs analyses the tier-1 build does not, and perfbench builds
# src/ as Release: its warnings fail the gate as well.
RELEASE_DIR=${RELEASE_BUILD_DIR:-build-release}
cmake -B "$RELEASE_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DREGLESS_WERROR=ON
cmake --build "$RELEASE_DIR" -j "$(nproc)"

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L oracle -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L providers -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L cache -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L tenants -j "$(nproc)")

# perfbench is the only tool that measures host time, and its digests
# are the report's byte-parity oracle. It builds its own Release tree
# under .bench_build/.
python3 perfbench/test_perfbench.py

# Skip-enabled determinism subset under AddressSanitizer: the oracle
# sweep, the property fuzzer (random kernels + fault plans), the
# stall-accounting tests, the unit tests of the flat cache, memory
# and OSU structures, the config-fingerprint tests, the compiled
# kernel's shared analyses (copied and moved compiled kernels, and the
# pinned lint that reads them), the hostile and seeded-mutant cache
# records, and the experiment cache's unit tests (store, janitor,
# survey and gc). Each filter pattern must select a test
# (scripts/gtest_filtered.sh).
ASAN_DIR=${ASAN_BUILD_DIR:-build-asan}
cmake -B "$ASAN_DIR" -S . -DREGLESS_SANITIZE=address
cmake --build "$ASAN_DIR" -j "$(nproc)" --target regless_tests \
    --target regless_oracle_tests --target regless_cache_tests
scripts/gtest_filtered.sh "$ASAN_DIR"/tests/regless_oracle_tests \
    '*CycleSkipOracle*:CycleSkip*'
scripts/gtest_filtered.sh "$ASAN_DIR"/tests/regless_tests \
    '*CycleSkipFuzz*:SlotInvariant.*:StallTrace.*:DeadlockBreakdown.*:CacheTest.*:MemorySystemTest.*:OsuTest.*:ConfigFingerprint.*:CompiledKernelAnalyses.*:LintPinned.*:StatsIoHostile.*'
scripts/gtest_filtered.sh "$ASAN_DIR"/tests/regless_cache_tests \
    'ShardLayout.*:JobCacheLoad.*:JobCacheStore.*:CacheSurveyTest.*:CacheGc.*'

# Same subset's parallel face under ThreadSanitizer: epoch-clamped
# skipping on worker threads must stay race-free, and so must the
# worker threads' reads of the compiled kernels every SM shares (the
# nn+hotspot co-run at 8 threads). The experiment engine's pool runs
# the lint gate, the cache reads and the simulations of each flush,
# so the pool's own tests and the engine's worker-count and lint-gate
# tests run under TSan too.
TSAN_DIR=${TSAN_BUILD_DIR:-build-tsan}
cmake -B "$TSAN_DIR" -S . -DREGLESS_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)" --target regless_oracle_tests \
    --target regless_tests
scripts/gtest_filtered.sh "$TSAN_DIR"/tests/regless_oracle_tests \
    '*MultiSmCycleSkipOracle*:MultiTenantMultiSm.*'
scripts/gtest_filtered.sh "$TSAN_DIR"/tests/regless_tests \
    'ThreadPoolTest.*:ExperimentEngine.ResultsAreWorkerCountInvariant:ExperimentEngine.WarmFlushIsWorkerCountInvariant:ExperimentEngine.LintGateStaysShutAfterARejection:ExperimentEngine.LintGateRaisesTheFirstFailureInSubmissionOrder'

echo "check: tier-1, release, oracle, perfbench, asan, and tsan subsets all passed"
