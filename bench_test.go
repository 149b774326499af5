// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus ablation benchmarks for the design choices
// DESIGN.md calls out. The sweep benchmarks run at QuickScale so the
// whole suite completes in minutes; regenerating the paper-scale numbers
// recorded in EXPERIMENTS.md is cmd/jointpm's job (-scale paper).
//
// Beyond wall-clock time, each sweep benchmark reports the headline
// result it reproduces as custom metrics (joint method's normalised
// energy, long-latency rate), so `go test -bench .` doubles as a shape
// regression check.
package jointpm

import (
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/experiments"
	"jointpm/internal/lrusim"
	"jointpm/internal/pareto"
	"jointpm/internal/policy"
	"jointpm/internal/sim"
	"jointpm/internal/simtime"
	"jointpm/internal/stats"
)

func quickScale() experiments.Scale { return experiments.QuickScale(1800) }

// BenchmarkFig1PowerModels regenerates the Fig. 1 power-model tables.
func BenchmarkFig1PowerModels(b *testing.B) {
	s := quickScale()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig1(s, 1, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5ParetoCDF regenerates the Fig. 5 CDF/timeout tables.
func BenchmarkFig5ParetoCDF(b *testing.B) {
	s := quickScale()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig5(s, 1, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	s := quickScale()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(s, 1, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweepExperiment runs one registered sweep per iteration and
// reports the joint method's headline numbers at the last (hardest) sweep
// point as custom metrics: normalised total energy (% of always-on) and
// long-latency rate. A perf change that alters these metrics changed the
// reproduction's shape, not just its speed.
func benchSweepExperiment(b *testing.B, id string) {
	b.Helper()
	s := quickScale()
	sw, ok := experiments.Sweeps[id]
	if !ok {
		b.Fatalf("%q is not a sweep experiment", id)
	}
	var points []*experiments.Point
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = sw.Produce(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.Render(points, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	allocsPerOp := (after.Mallocs - before.Mallocs) / uint64(b.N)
	allocMBPerOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N) / (1 << 20)
	if len(points) > 0 {
		last := points[len(points)-1]
		for _, r := range last.Rows {
			if r.Method.IsJoint() {
				b.ReportMetric(r.TotalPct, "joint-energy-%")
				b.ReportMetric(r.Result.DelayedPerSecond(), "delayed/s")
				if dir := os.Getenv(experiments.BenchJSONEnv); dir != "" {
					_, err := experiments.WriteBenchSummary(dir, experiments.BenchSummary{
						Experiment:     id,
						Scale:          s.Name,
						Point:          last.Label,
						JointEnergyPct: r.TotalPct,
						DelayedPerSec:  r.Result.DelayedPerSecond(),
						WallSeconds:    b.Elapsed().Seconds() / float64(b.N),
						Iterations:     b.N,
						AllocsPerOp:    allocsPerOp,
						AllocMBPerOp:   allocMBPerOp,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkFig7DataSetSweep regenerates Fig. 7(a)–(f): 16 methods across
// five data-set sizes.
func BenchmarkFig7DataSetSweep(b *testing.B) { benchSweepExperiment(b, "fig7") }

// BenchmarkTable3AccessCounts regenerates Table III from the same sweep.
func BenchmarkTable3AccessCounts(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig8RateSweep regenerates Fig. 8(a),(b).
func BenchmarkFig8RateSweep(b *testing.B) { benchSweepExperiment(b, "fig8rate") }

// BenchmarkFig8PopularitySweep regenerates Fig. 8(c),(d).
func BenchmarkFig8PopularitySweep(b *testing.B) { benchSweepExperiment(b, "fig8pop") }

// BenchmarkTable4PeriodSensitivity regenerates Table IV.
func BenchmarkTable4PeriodSensitivity(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5BankSensitivity regenerates Table V.
func BenchmarkTable5BankSensitivity(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig9PredictionStability regenerates Fig. 9.
func BenchmarkFig9PredictionStability(b *testing.B) { benchExperiment(b, "fig9") }

// benchWorkload builds the shared trace for the joint-method ablations:
// a light 5 "MB/s" load on a 4 "GB" data set, where caching wins and the
// disk sleeps, so the timeout machinery (not just sizing) decides the
// outcome.
func benchWorkload(b *testing.B) (*Trace, experiments.Scale) {
	b.Helper()
	s := quickScale()
	tr, err := GenerateWorkload(WorkloadConfig{
		DataSetBytes: 4 * s.Unit,
		PageSize:     s.PageSize,
		Rate:         5 * s.RateUnit,
		Popularity:   0.1,
		Duration:     s.Horizon + s.Warmup,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr, s
}

// benchJoint runs the joint method with the given parameter overrides and
// reports its energy and long-latency rate as custom metrics.
func benchJoint(b *testing.B, override core.Params) {
	b.Helper()
	tr, s := benchWorkload(b)
	override.DelayCap = s.DelayCap
	var last *sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Trace:        tr,
			Method:       policy.Joint(s.InstalledMem),
			InstalledMem: s.InstalledMem,
			BankSize:     s.BankSize,
			MemSpec:      s.MemSpec,
			DiskSpec:     s.DiskSpec,
			Period:       s.Period,
			Warmup:       s.Warmup,
			Joint:        &override,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(float64(last.TotalEnergy()), "J")
		b.ReportMetric(last.DelayedPerSecond(), "delayed/s")
		b.ReportMetric(last.Utilization*100, "util%")
	}
}

// BenchmarkAblationTimeoutPareto is the full joint method: Pareto-fitted
// optimal timeout t_o = α·t_be.
func BenchmarkAblationTimeoutPareto(b *testing.B) {
	benchJoint(b, core.Params{})
}

// BenchmarkAblationTimeoutFixed replaces eq. 5 with the two-competitive
// timeout inside the joint manager.
func BenchmarkAblationTimeoutFixed(b *testing.B) {
	benchJoint(b, core.Params{FixedTimeout: true})
}

// BenchmarkAblationConstraintFloorOff drops the eq. 6 performance floor;
// compare the delayed/s metric against BenchmarkAblationTimeoutPareto.
func BenchmarkAblationConstraintFloorOff(b *testing.B) {
	benchJoint(b, core.Params{NoConstraintFloor: true})
}

// BenchmarkAblationAggregationWindowOff removes the idle-interval
// aggregation window (w = 0), letting unusably short gaps pollute the
// Pareto fit.
func BenchmarkAblationAggregationWindowOff(b *testing.B) {
	benchJoint(b, core.Params{Window: 1e-9})
}

// BenchmarkAblationStackDistanceFenwick measures the O(log n) extended
// LRU list on a skewed reference stream.
func BenchmarkAblationStackDistanceFenwick(b *testing.B) {
	s := lrusim.NewStackSim(1 << 18)
	z := stats.NewZipf(stats.NewRNG(1), 1<<16, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(int64(z.Next()))
	}
}

// BenchmarkParetoFit measures the runtime parameter estimation on a
// period-sized idle-interval sample.
func BenchmarkParetoFit(b *testing.B) {
	rng := stats.NewRNG(3)
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = rng.Pareto(1.4, 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pareto.FitMoments(sample, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdleReconstruction measures one candidate-size replay of a
// per-page period log, the test oracles' reference (lrusim
// BoundedIdleIntervals). No production path replays a log: the joint
// manager and multidisk read every size's intervals off a streamed gap
// log instead.
func BenchmarkIdleReconstruction(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	stackSim := lrusim.NewStackSim(1 << 16)
	log := make([]lrusim.DepthRecord, 0, 1<<16)
	tm := simtime.Seconds(0)
	for i := 0; i < 1<<16; i++ {
		tm += simtime.Seconds(rng.Float64() * 0.02)
		d := stackSim.Reference(int64(rng.Intn(1 << 14)))
		log = append(log, lrusim.DepthRecord{Time: tm, Depth: d, Bytes: 64 * simtime.KB})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lrusim.BoundedIdleIntervals(log, 1<<12, 0.1, 0, tm)
	}
}

// BenchmarkEngineThroughput measures raw simulator speed in page
// references per second for a fixed method (no joint bookkeeping).
func BenchmarkEngineThroughput(b *testing.B) {
	tr, s := benchWorkload(b)
	var pages int64
	for i := range tr.Requests {
		pages += int64(tr.Requests[i].Pages)
	}
	cfg := sim.Config{
		Trace:        tr,
		Method:       policy.Method{Disk: policy.DiskTwoCompetitive, Mem: policy.MemFixedNap, MemBytes: s.InstalledMem},
		InstalledMem: s.InstalledMem,
		BankSize:     s.BankSize,
		MemSpec:      s.MemSpec,
		DiskSpec:     s.DiskSpec,
		Period:       s.Period,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(pages)*float64(b.N)/b.Elapsed().Seconds(), "pagerefs/s")
}

// BenchmarkAblationServiceModelFlat / Zoned compare the DiskSim-substitute
// fidelity levels: the flat averaged service model the paper's arithmetic
// uses, versus the zoned model (per-zone media rates, seek-distance
// curve). The energy metric shows whether policy-level conclusions are
// sensitive to the mechanical fidelity.
func BenchmarkAblationServiceModelFlat(b *testing.B) {
	benchServiceModel(b, false)
}

// BenchmarkAblationServiceModelZoned is the zoned counterpart.
func BenchmarkAblationServiceModelZoned(b *testing.B) {
	benchServiceModel(b, true)
}

func benchServiceModel(b *testing.B, zoned bool) {
	b.Helper()
	tr, s := benchWorkload(b)
	cfg := sim.Config{
		Trace:        tr,
		Method:       policy.Joint(s.InstalledMem),
		InstalledMem: s.InstalledMem,
		BankSize:     s.BankSize,
		MemSpec:      s.MemSpec,
		DiskSpec:     s.DiskSpec,
		Period:       s.Period,
		Warmup:       s.Warmup,
		Joint:        &core.Params{DelayCap: s.DelayCap},
	}
	if zoned {
		z := disk.BarracudaZoned()
		z.Spec = s.DiskSpec
		cfg.Zoned = &z
	}
	var last *sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(float64(last.TotalEnergy()), "J")
		b.ReportMetric(last.Utilization*100, "util%")
	}
}
