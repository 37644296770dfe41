#!/usr/bin/env bash
# Run a GoogleTest binary under a --gtest_filter, after checking that
# each colon-separated pattern of the filter selects at least one
# test: a pattern that matches nothing (a renamed suite, a typo)
# would otherwise drop its tests from the run without a word.
#   scripts/gtest_filtered.sh BINARY FILTER
set -euo pipefail

binary=$1
filter=$2
IFS=: read -ra patterns <<< "$filter"
for pattern in "${patterns[@]}"; do
    listed=$("$binary" --gtest_list_tests --gtest_filter="$pattern")
    if ! grep -q '^  ' <<< "$listed"; then
        echo "gtest filter: '$pattern' selects no test in $binary" >&2
        exit 1
    fi
done
"$binary" --gtest_filter="$filter"
