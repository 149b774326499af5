package core_test

import (
	"os"
	"testing"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/experiments"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
	"jointpm/internal/stats"
)

// TestWriteDecideBenchSummary regenerates BENCH_decide.json: the
// machine-readable before/after record of the incremental-Decide work,
// measured on the same paper-scale decision shape as BenchmarkDecide
// (128 GB of 16 MB banks, a 256k-reference Zipf period). wall_s is the
// incremental period-boundary cost; wall_s_before is the batch oracle's
// Decide on identical input, so speedup is the hot-path win. It lives in
// an external test package because it writes through internal/experiments,
// which imports this package. Only runs when JOINTPM_BENCH_JSON names an
// output directory; from the repository root:
//
//	JOINTPM_BENCH_JSON=$PWD go test -run TestWriteDecideBenchSummary ./internal/core/
func TestWriteDecideBenchSummary(t *testing.T) {
	dir := os.Getenv(experiments.BenchJSONEnv)
	if dir == "" {
		t.Skipf("set %s to a directory to write BENCH_decide.json", experiments.BenchJSONEnv)
	}

	p := core.DefaultParams(64*simtime.KB, 16*simtime.MB, 8192, disk.Barracuda(), mem.RDRAM(16*simtime.MB))
	p.HysteresisFrac = -1 // pure optimiser: identical work every iteration

	const refs, universe = 1 << 18, 1 << 20
	rng := stats.NewRNG(42)
	z := stats.NewZipf(stats.NewRNG(43), universe, 0.9)
	sim := lrusim.NewStackSim(1 << 20)
	log := make([]lrusim.DepthRecord, 0, refs)
	runs := make([]lrusim.DepthRun, 0, refs)
	tm := 0.0
	for i := 0; i < refs; i++ {
		page := int64(z.Next())
		d := sim.Reference(page)
		log = append(log, lrusim.DepthRecord{Time: simtime.Seconds(tm), Page: page, Depth: d, Bytes: p.PageSize})
		runs = append(runs, lrusim.DepthRun{Time: simtime.Seconds(tm), Page: page, Pages: 1, Depth: int32(d)})
		tm += rng.Pareto(1.4, 0.02)
	}
	obs := core.Observation{
		CacheAccesses:  refs,
		CoalesceFactor: 1.3,
		PeriodEnd:      simtime.Seconds(tm) + 5,
	}

	const iters = 10

	batchMgr, err := core.NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	batchMgr.DecideLog(obs, log) // warm the sweep buffers
	start := time.Now()
	for i := 0; i < iters; i++ {
		batchMgr.DecideLog(obs, log)
	}
	batchPerOp := time.Since(start).Seconds() / iters

	incMgr, err := core.NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	var incTotal time.Duration
	for i := 0; i <= iters; i++ {
		incMgr.IngestBatch(runs)
		start := time.Now()
		dec := incMgr.DecideIncremental(obs)
		if i > 0 { // iteration 0 warms the buffers
			incTotal += time.Since(start)
		}
		want := batchMgr.Last()
		if dec.Banks != want.Banks || dec.Pages != want.Pages || dec.Timeout != want.Timeout {
			t.Fatalf("incremental decision %+v != batch %+v", dec, want)
		}
	}
	incPerOp := incTotal.Seconds() / iters

	path, err := experiments.WriteBenchSummary(dir, experiments.BenchSummary{
		Experiment:        "decide",
		Scale:             "reference",
		Point:             "256k zipf-0.9 refs, 8192 banks",
		WallSeconds:       incPerOp,
		WallSecondsBefore: batchPerOp,
		Iterations:        iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: incremental %.2fms vs batch %.2fms per decision",
		path, incPerOp*1e3, batchPerOp*1e3)
}
