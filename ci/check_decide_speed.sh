#!/usr/bin/env sh
# Decide-latency smoke, two relative checks between benchmarks run in the
# same process (stable on shared hardware where absolute ns/op thresholds
# would flake):
#
#   - the incremental observation path exists to make closing a period
#     cheaper than the batch replay, so it must stay strictly faster on
#     the reference decision shape;
#   - a boundary costs O(banks the period reached + gaps), not O(installed
#     banks), so one light period decided at 65,536 installed banks must
#     take less than twice as long as the same period at 1,024.
set -eu

out="$(go test -run '^$' \
    -bench '^BenchmarkDecide$|^BenchmarkDecideIncremental$|^BenchmarkDecideLight1K$|^BenchmarkDecideLight64K$' \
    -benchtime 100x ./internal/core/)"
printf '%s\n' "$out"

nsop() {
    printf '%s\n' "$out" | awk -v name="$1" '$1 ~ "^" name "(-[0-9]+)?$" {print $3}'
}
batch="$(nsop BenchmarkDecide)"
incr="$(nsop BenchmarkDecideIncremental)"
light1k="$(nsop BenchmarkDecideLight1K)"
light64k="$(nsop BenchmarkDecideLight64K)"

if [ -z "$batch" ] || [ -z "$incr" ] || [ -z "$light1k" ] || [ -z "$light64k" ]; then
    echo "FAIL: benchmarks did not all run"
    exit 1
fi
if [ "$incr" -ge "$batch" ]; then
    echo "FAIL: incremental Decide (${incr} ns/op) is not faster than batch (${batch} ns/op)"
    exit 1
fi
echo "ok: incremental ${incr} ns/op vs batch ${batch} ns/op"
if [ "$light64k" -ge $((2 * light1k)) ]; then
    echo "FAIL: light Decide at 64K banks (${light64k} ns/op) is not under 2x the 1K-bank one (${light1k} ns/op)"
    exit 1
fi
echo "ok: light Decide ${light64k} ns/op at 64K banks vs ${light1k} ns/op at 1K"
