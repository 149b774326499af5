#!/usr/bin/env sh
# Page-cache speed smoke: finding the lowest free frame must not grow
# with the installed frame count. BenchmarkPageCacheChurn evicts and
# inserts at a fixed 4096-frame capacity with 2^12 and with 2^20 frames
# installed, and the 2^20 case must take less than twice as long as the
# 2^12 one. Both cases run in one process, so the comparison is relative
# and stable on shared hardware where an absolute ns/op threshold would
# flake; each takes its fastest of three runs to damp scheduler noise.
set -eu

out="$(go test -run '^$' -bench '^BenchmarkPageCacheChurn$' \
    -benchtime 1000000x -count 3 ./internal/cache/)"
printf '%s\n' "$out"

fastest() {
    printf '%s\n' "$out" | awk -v name="BenchmarkPageCacheChurn/installed=$1" '
        $1 ~ "^" name "(-[0-9]+)?$" { if (min == "" || $3 + 0 < min) min = $3 + 0 }
        END { print min }'
}
small="$(fastest 4096)"
large="$(fastest 1048576)"

if [ -z "$small" ] || [ -z "$large" ]; then
    echo "FAIL: benchmarks did not both run"
    exit 1
fi
if awk -v l="$large" -v s="$small" 'BEGIN { exit !(l >= 2 * s) }'; then
    echo "FAIL: churn at 2^20 installed frames (${large} ns/op) is not under 2x the 2^12 one (${small} ns/op)"
    exit 1
fi
echo "ok: churn ${large} ns/op at 2^20 installed frames vs ${small} ns/op at 2^12"
