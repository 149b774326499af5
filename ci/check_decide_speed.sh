#!/usr/bin/env sh
# Decide-latency smoke: the incremental observation path exists to make
# closing a period cheaper than the batch replay, so CI fails if it ever
# stops being strictly faster on the reference decision shape. A relative
# comparison between two benchmarks in the same process is stable on
# shared hardware where absolute ns/op thresholds would flake.
set -eu

out="$(go test -run '^$' -bench '^BenchmarkDecide$|^BenchmarkDecideIncremental$' \
    -benchtime 100x ./internal/core/)"
printf '%s\n' "$out"

batch="$(printf '%s\n' "$out" | awk '/^BenchmarkDecide(-[0-9]+)? /{print $3}')"
incr="$(printf '%s\n' "$out" | awk '/^BenchmarkDecideIncremental(-[0-9]+)? /{print $3}')"

if [ -z "$batch" ] || [ -z "$incr" ]; then
    echo "FAIL: benchmarks did not both run"
    exit 1
fi
if [ "$incr" -ge "$batch" ]; then
    echo "FAIL: incremental Decide (${incr} ns/op) is not faster than batch (${batch} ns/op)"
    exit 1
fi
echo "ok: incremental ${incr} ns/op vs batch ${batch} ns/op"
