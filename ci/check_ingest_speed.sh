#!/usr/bin/env sh
# Ingest-throughput smoke: the manager queues depth runs and ingests them
# in blocks to make streaming references into the histogram cheaper per
# ref than one IngestBatch call per reference, so CI fails if blocks
# (BenchmarkIngestBatch) ever stop being strictly faster than one call
# per reference (BenchmarkIngest) on the reference observation shape. A
# relative comparison between two benchmarks in the same process is
# stable on shared hardware where absolute ns/op thresholds would flake.
set -eu

out="$(go test -run '^$' -bench '^BenchmarkIngest$|^BenchmarkIngestBatch$' \
    -benchtime 100x ./internal/core/)"
printf '%s\n' "$out"

perref="$(printf '%s\n' "$out" | awk '/^BenchmarkIngest(-[0-9]+)? /{print $3}')"
batch="$(printf '%s\n' "$out" | awk '/^BenchmarkIngestBatch(-[0-9]+)? /{print $3}')"

if [ -z "$perref" ] || [ -z "$batch" ]; then
    echo "FAIL: benchmarks did not both run"
    exit 1
fi
if [ "$batch" -ge "$perref" ]; then
    echo "FAIL: batched ingest (${batch} ns/op) is not faster than per-ref (${perref} ns/op)"
    exit 1
fi
echo "ok: batched ${batch} ns/op vs per-ref ${perref} ns/op"
