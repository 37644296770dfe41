#!/usr/bin/env sh
# Build, test, and regenerate every paper artifact.
set -eu
cd "$(dirname "$0")/.."

# CMake's default generator, as in the tier-1 build and
# scripts/check.sh, so all three can share build/.
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build 2>&1 | tee test_output.txt
# One engine run for every figure: shared simulation points are
# deduplicated and cached in .regless-cache/ (DESIGN.md section 7).
./build/bench/regless_report 2>&1 | tee bench_output.txt
./build/bench/micro_components 2>&1 | tee -a bench_output.txt
# results.md is served from the same cache: after the report above,
# generate_report simulates nothing.
./build/examples/generate_report results.md
echo "done: test_output.txt, bench_output.txt, results.md"
