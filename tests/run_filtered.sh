#!/usr/bin/env bash
# Runs a gtest binary under a --gtest_filter and fails when the filter
# selects no test: gtest reports an empty selection as a pass, so a renamed
# suite would otherwise turn a CI step silently vacuous.
#
# Usage: tests/run_filtered.sh BINARY FILTER [more gtest flags...]
set -o pipefail
bin=$1
filter=$2
shift 2
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$bin" --gtest_filter="$filter" "$@" 2>&1 | tee "$log"
status=$?
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
if ! grep -Eq '^\[==========\] Running [1-9][0-9]* tests? from' "$log"; then
  echo "error: --gtest_filter='$filter' selected no tests in $bin" >&2
  exit 1
fi
