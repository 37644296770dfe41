#!/usr/bin/env sh
# Build and run the full paper report through the evaluation engine.
# Extra arguments go to regless_report, e.g.:
#   ./scripts/report.sh --filter fig16 --jobs 8
#   ./scripts/report.sh --no-cache --json report.json
#
# ./scripts/report.sh --smoke runs the fault drill instead: the
# cheapest figure plus one injected deadlock, verifying that a report
# always completes (exit 0) and diagnoses the failure in its footer;
# the stall-breakdown figure, verifying the issue-slot attribution
# surfaces in a report; and the cache drill — a cold run of one
# figure into a scratch cache directory, a warm run that must
# simulate nothing, and a `regless_cache verify` audit of the
# directory left behind (DESIGN.md §15).
set -eu
cd "$(dirname "$0")/.."

# The generator is CMake's default, as in the tier-1 build and
# scripts/check.sh, so all three can share build/.
cmake -B build -S .
cmake --build build -j "$(nproc)" --target regless_report \
    --target regless_cache

if [ "${1:-}" = "--smoke" ]; then
    shift
    out=$(./build/bench/regless_report --filter fig03_backing_store \
        --no-cache --inject-deadlock "$@")
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q ' 1 deadlocked'
    printf '%s\n' "$out" | grep -q '^# deadlocked: '
    echo "smoke: report survived an injected deadlock"
    out=$(./build/bench/regless_report --filter stall_breakdown \
        --no-cache "$@")
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q 'Issue-slot stall attribution'
    printf '%s\n' "$out" | grep -q 'exactly one column'
    echo "smoke: stall-breakdown figure rendered"

    # Cache drill: a cold run fills a scratch cache directory, then a
    # warm run must be served entirely from it.
    cachedir=$(mktemp -d "${TMPDIR:-/tmp}/regless-smoke-cache.XXXXXX")
    trap 'rm -rf "$cachedir"' EXIT
    ./build/bench/regless_report --filter fig03_backing_store \
        --cache-dir "$cachedir" "$@" > /dev/null
    out=$(./build/bench/regless_report --filter fig03_backing_store \
        --cache-dir "$cachedir" "$@")
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q ' 0 simulated,'
    printf '%s\n' "$out" | grep -q '^# cache: read-write'
    ./build/tools/regless_cache verify --strict --dir "$cachedir"
    ./build/tools/regless_cache gc --dry-run --dir "$cachedir"
    echo "smoke: a cold run warmed the cache and verify is clean"
    exit 0
fi

./build/bench/regless_report "$@"
