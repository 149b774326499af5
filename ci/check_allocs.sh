#!/usr/bin/env sh
# Perf-regression smoke: run the allocation-sensitive benchmarks with
# -benchmem and fail if allocs/op exceeds the checked-in budget in
# ci/alloc_budget.txt. Allocation counts are deterministic (unlike ns/op),
# so this catches "someone re-introduced a per-op map" without flaking on
# shared CI hardware.
set -eu

budget_file="$(dirname "$0")/alloc_budget.txt"
fail=0

grep -v '^[[:space:]]*\(#\|$\)' "$budget_file" | while read -r bench pkg budget; do
    # A fixed iteration count keeps one-time warmup allocations amortised
    # the same way on every run, so the budget is stable.
    out="$(go test -run '^$' -bench "^${bench}\$" -benchtime 100x -benchmem "$pkg")"
    line="$(printf '%s\n' "$out" | grep "^${bench}")" || {
        echo "FAIL: ${bench} did not run in ${pkg}"
        printf '%s\n' "$out"
        exit 1
    }
    # `go test -benchmem` output: ... <N> B/op <M> allocs/op, one line per
    # sub-benchmark; the largest count is held to the budget.
    allocs="$(printf '%s\n' "$line" | awk '$(NF-1) + 0 > max { max = $(NF-1) + 0 } END { print max + 0 }')"
    if [ "$allocs" -gt "$budget" ]; then
        echo "FAIL: ${bench}: ${allocs} allocs/op exceeds budget ${budget}"
        exit 1
    fi
    echo "ok: ${bench}: ${allocs} allocs/op (budget ${budget})"
done || fail=1

exit "$fail"
