#!/usr/bin/env bash
# One-stop verification gate for the cycle-skip engine (DESIGN.md §12):
#   1. the tier-1 suite (plain build, ctest), which now runs with the
#      skip engine enabled by default;
#   2. the cycle-skip differential oracle (ctest label "oracle"):
#      skip-on vs skip-off byte-identity across the Rodinia set, every
#      registered provider, multi-SM thread counts, traces, and fault
#      plans;
#   3. the provider-registry contract suite (ctest label "providers"):
#      every registered provider end-to-end under the closed stall
#      account and memory-image invariants (DESIGN.md §13);
#   4. the fleet-safe cache suite (ctest label "cache"): chaos
#      injection under every CacheFaultPlan, forked multi-process
#      stress over one shared directory, and the --shard partition
#      parity oracle (DESIGN.md §15);
#   5. the multi-tenant suite (ctest label "tenants"): single-tenant
#      byte parity, per-tenant closed accounts, the preemption chaos
#      test, starved-tenant reporting, and QoS (DESIGN.md §16);
#   6. ASan and TSan passes over the skip-enabled determinism subset
#      (the SoA warp state and bulk stall-charging touch hot arrays;
#      the multi-SM epoch loop skips under worker threads).
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

# Counter-read guard: StatGroup::counter() creates the name it is
# given, so `.counter("x").value()` reads a misspelled counter as a
# silent zero. Reads go through StatGroup::value(), which panics on
# an unregistered name. -z lets the pattern span a line break.
if grep -rlzP '\.counter\([^()]*\)\s*\.value\(\)' \
        src tests bench examples tools; then
    echo "check: counter read through counter(); use" \
         "StatGroup::value() so a typo is an error" >&2
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

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L oracle -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L providers -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L cache -j "$(nproc)")
(cd "$BUILD_DIR" && ctest --output-on-failure -L tenants -j "$(nproc)")

# Skip-enabled determinism subset under AddressSanitizer: the oracle
# sweep plus the property fuzzer (random kernels + fault plans).
ASAN_DIR=${ASAN_BUILD_DIR:-build-asan}
cmake -B "$ASAN_DIR" -S . -DREGLESS_SANITIZE=address
cmake --build "$ASAN_DIR" -j --target regless_tests \
    --target regless_oracle_tests
"$ASAN_DIR"/tests/regless_oracle_tests \
    --gtest_filter='*CycleSkipOracle*:CycleSkip*'
"$ASAN_DIR"/tests/regless_tests --gtest_filter='*CycleSkipFuzz*'

# Same subset's parallel face under ThreadSanitizer: epoch-clamped
# skipping on worker threads must stay race-free.
TSAN_DIR=${TSAN_BUILD_DIR:-build-tsan}
cmake -B "$TSAN_DIR" -S . -DREGLESS_SANITIZE=thread
cmake --build "$TSAN_DIR" -j --target regless_oracle_tests
"$TSAN_DIR"/tests/regless_oracle_tests \
    --gtest_filter='*MultiSmCycleSkipOracle*'

echo "check: tier-1, oracle, asan, and tsan subsets all passed"
