package serve

import (
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// BenchmarkShardIngestBatch is the ring drain's work at jointpmd's sizes:
// a warm incremental-mode shard (64 KB pages, 16 MB banks, 128 GB
// installed, 600 s periods) fed a zipf stream over a 16 GB data set in
// IngestBatch blocks of the ring's default size. One op is one block.
// The stream repeats with its times shifted by its duration, so the shard
// keeps closing periods; one warm pass first brings the stack, the period
// log and the manager's buffers to their steady sizes.
func BenchmarkShardIngestBatch(b *testing.B) {
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 16 * simtime.GB,
		PageSize:     64 * simtime.KB,
		Rate:         float64(50 * simtime.MB),
		Popularity:   0.1,
		Duration:     1200,
		Classes:      workload.SPECWeb99Classes(16),
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{
		Decide:       core.ModeIncremental,
		PageSize:     64 * simtime.KB,
		BankSize:     16 * simtime.MB,
		InstalledMem: 128 * simtime.GB,
		Period:       600,
		OnDecision:   func(Decision) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		b.Fatal(err)
	}
	block := make([]trace.Request, ringDefaultBlock)
	var shift simtime.Seconds
	at := 0
	next := func() []trace.Request {
		for k := range block {
			if at == len(tr.Requests) {
				at = 0
				shift += tr.Duration
			}
			block[k] = tr.Requests[at]
			block[k].Time += shift
			at++
		}
		return block
	}
	for n := 0; n < len(tr.Requests); n += len(block) {
		if err := sh.IngestBatch(next()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sh.IngestBatch(next()); err != nil {
			b.Fatal(err)
		}
	}
}
