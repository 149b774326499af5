package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"jointpm/internal/core"
	"jointpm/internal/mem"
	"jointpm/internal/policy"
	"jointpm/internal/sim"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// OmitUtilization is the sustained disk-bandwidth utilization above which
// a method's bars are omitted from the rendered figures, as the paper
// does for methods whose "disk access rates exceed the disk's bandwidth"
// (2TFM-8GB/ADFM-8GB at the 64 GB data set): utilization approaching 1
// means the queue diverges and the energy/latency numbers are
// meaningless. The strict > comparison keeps a method sitting exactly at
// the threshold on its figure.
const OmitUtilization = 0.98

// OmitBar reports whether a method's sweep-point bars should be omitted
// under the paper's rule.
func OmitBar(utilization float64) bool {
	return utilization > OmitUtilization
}

// ParallelismEnv is the environment variable that overrides the runner's
// worker count (front-end passes and policy replays executed concurrently
// per sweep point, and ExtArray's multidisk runs). A positive integer is
// taken as an absolute worker count; unset, non-numeric, or non-positive
// values fall back to the default described at runnerParallelism.
const ParallelismEnv = "JOINTPM_PAR"

// runnerParallelism resolves the worker count. memConfigs is the number
// of independent work units a sweep point fans out (memory-configuration
// groups plus fused runs); 0 means unknown.
//
// The default is min(NumCPU, max(8, memConfigs+2)). The historical hard
// cap of 8 predates the shared cache front-end, when every worker held a
// full engine (cache image + stack simulator) and memory pressure bound
// the sweep before cores did. With one cache image per memory
// configuration instead of one per method, the per-worker footprint of
// the extra workers is a replay cursor plus disk/mem power state, so the
// cap scales with the point's actual fan-out while NumCPU still bounds
// useful parallelism.
func runnerParallelism(memConfigs int) int {
	if v := os.Getenv(ParallelismEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	ceiling := 8
	if memConfigs+2 > ceiling {
		ceiling = memConfigs + 2
	}
	par := runtime.NumCPU()
	if par > ceiling {
		par = ceiling
	}
	if par < 1 {
		par = 1
	}
	return par
}

// pointUnits counts the independent work units a method set fans out at
// one sweep point: one per distinct shared memory configuration, plus
// one per method that must run on the fused engine.
func pointUnits(s Scale, methods []policy.Method) int {
	keys := map[sim.CacheKey]bool{}
	fused := 0
	for _, m := range methods {
		if key, ok := sim.SharedCacheKey(m, s.InstalledMem); ok {
			keys[key] = true
		} else {
			fused++
		}
	}
	return len(keys) + fused
}

// Row is one method's outcome at one sweep point, with energies
// normalised against the always-on baseline of the same point.
type Row struct {
	Method policy.Method
	Result *sim.Result

	TotalPct, DiskPct, MemPct float64 // % of the always-on baseline
	Omitted                   bool    // disk demand exceeded capacity (paper omits these bars)
}

// Point is one sweep point: a label (e.g. "16GB" or "100MB/s"), the
// always-on baseline, and a row per method in figure order.
type Point struct {
	Label    string
	Baseline *sim.Result
	Rows     []Row
}

// runner executes method runs against one trace with bounded parallelism.
type runner struct {
	scale Scale
	sem   chan struct{}
}

// newRunner builds a runner for the scale. When the sweep's method set
// is known up front, passing it sizes the worker pool to the point's
// actual fan-out (see runnerParallelism).
func newRunner(s Scale, methods ...policy.Method) *runner {
	units := 0
	if len(methods) > 0 {
		units = pointUnits(s, methods)
	}
	return &runner{scale: s, sem: make(chan struct{}, runnerParallelism(units))}
}

// config assembles the sim configuration for one method. warmup ≤ 0
// falls back to the scale's minimum.
func (r *runner) config(tr *trace.Trace, m policy.Method, warmup simtime.Seconds) sim.Config {
	if warmup <= 0 {
		warmup = r.scale.Warmup
	}
	return sim.Config{
		Trace:         tr,
		Method:        m,
		InstalledMem:  r.scale.InstalledMem,
		BankSize:      r.scale.BankSize,
		DiskSpec:      r.scale.DiskSpec,
		MemSpec:       r.scale.MemSpec,
		Period:        r.scale.Period,
		Warmup:        warmup,
		Joint:         &core.Params{DelayCap: r.scale.DelayCap},
		Metrics:       r.scale.Metrics,
		DecisionTrace: r.scale.DecisionTrace,
	}
}

// point runs all methods (plus the always-on baseline) over one trace and
// normalises. Methods whose sustained disk demand exceeds the disk's
// bandwidth are marked omitted, as the paper does for 2TFM-8GB/ADFM-8GB
// at the 64 GB data set.
//
// Methods are grouped by shared memory configuration (sim.SharedCacheKey):
// each group plays the trace through the cache front-end once and replays
// every member from the recorded stream, so a 15-method point costs 6
// cache passes, 7 memory passes and 15 disk passes instead of 15 full
// engine runs. The joint method (and any other non-shareable config) runs
// on the fused engine.
// Split results are bit-identical to fused ones (see sim.Replay), so the
// grouping is invisible in the output.
//
// Every run is wrapped in pprof labels ("method", "point") so a
// -cpuprofile of a sweep attributes samples per method out of the box.
func (r *runner) point(label string, tr *trace.Trace, methods []policy.Method, warmup simtime.Seconds) (*Point, error) {
	results := make([]*sim.Result, len(methods))
	errs := make([]error, len(methods))

	type group struct {
		key sim.CacheKey
		idx []int
	}
	byKey := map[sim.CacheKey]*group{}
	var groups []*group
	var fused []int
	for i, m := range methods {
		key, ok := sim.SharedCacheKey(m, r.scale.InstalledMem)
		if !ok {
			fused = append(fused, i)
			continue
		}
		g := byKey[key]
		if g == nil {
			g = &group{key: key}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	runFused := func(i int) {
		defer wg.Done()
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		pprof.Do(ctx, pprof.Labels("method", methods[i].Name(), "point", label), func(context.Context) {
			results[i], errs[i] = sim.Run(r.config(tr, methods[i], warmup))
		})
	}
	for _, i := range fused {
		wg.Add(1)
		go runFused(i)
	}
	for _, g := range groups {
		if len(g.idx) == 1 {
			// A lone method gains nothing from record+replay.
			wg.Add(1)
			go runFused(g.idx[0])
			continue
		}
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			r.sem <- struct{}{}
			var rec *sim.Recording
			var err error
			pprof.Do(ctx, pprof.Labels("method", "frontend:"+g.key.String(), "point", label), func(context.Context) {
				rec, err = sim.Record(r.config(tr, methods[g.idx[0]], warmup))
			})
			<-r.sem
			if err != nil {
				for _, i := range g.idx {
					errs[i] = err
				}
				return
			}
			defer rec.Release()
			// One goroutine per bank policy, which within a group is the
			// recording's memory-pass key: its first replay meters memory
			// and the rest read that pass, so no replay holds a worker
			// slot while it waits on another goroutine's pass.
			byPolicy := map[mem.BankPolicy][]int{}
			for _, i := range g.idx {
				p := methods[i].Mem.BankPolicy()
				byPolicy[p] = append(byPolicy[p], i)
			}
			var rwg sync.WaitGroup
			for _, idx := range byPolicy {
				rwg.Add(1)
				go func(idx []int) {
					defer rwg.Done()
					for _, i := range idx {
						r.sem <- struct{}{}
						pprof.Do(ctx, pprof.Labels("method", methods[i].Name(), "point", label), func(context.Context) {
							results[i], errs[i] = rec.Replay(methods[i])
						})
						<-r.sem
					}
				}(idx)
			}
			rwg.Wait()
		}(g)
	}
	wg.Wait()
	// Surface every failed method at this sweep point in one error, not
	// just the first: concurrent runs fail independently, and a partial
	// report ("method X failed" when Y and Z also did) sends whoever is
	// debugging a sweep through one fix-rerun cycle per method.
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("%s at %s: %w", methods[i].Name(), label, err))
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("experiments: %w", errors.Join(failed...))
	}

	var baseline *sim.Result
	for i, m := range methods {
		if m.Disk == policy.DiskAlwaysOn && m.Mem == policy.MemFixedNap && m.MemBytes == r.scale.InstalledMem {
			baseline = results[i]
		}
	}
	if baseline == nil {
		return nil, fmt.Errorf("experiments: method set lacks the always-on baseline")
	}

	p := &Point{Label: label, Baseline: baseline}
	for i, m := range methods {
		res := results[i]
		row := Row{Method: m, Result: res}
		row.TotalPct = pct(res.TotalEnergy(), baseline.TotalEnergy())
		row.DiskPct = pct(res.DiskEnergy.Total(), baseline.DiskEnergy.Total())
		row.MemPct = pct(res.MemEnergy.Total(), baseline.MemEnergy.Total())
		row.Omitted = OmitBar(res.Utilization)
		p.Rows = append(p.Rows, row)
	}
	return p, nil
}

func pct(v, base simtime.Joules) float64 {
	if base == 0 {
		return 0
	}
	return float64(v) / float64(base) * 100
}
