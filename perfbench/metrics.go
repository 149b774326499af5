package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's vocabulary; BENCHMARK.json repeats them, and the
// smoke test holds the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are printed by every untraced run, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"refs_per_s", "refs/s"},
	{"boundary_p50_ms", "ms"},
	{"boundary_p95_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer are printed by every traced run, for every workload. A layer a
// workload bypasses reads 0.
var perLayer = []metricDef{
	{"wall_s", "s"},
	{"trace.decode_ns_per_req", "ns"},
	{"serve.push_wait_s", "s"},
	{"serve.drain_idle_s", "s"},
	{"serve.ingest_ns_per_ref", "ns"},
	{"core.ingest_ns_per_ref", "ns"},
	{"serve.stack_ns_per_ref", "ns"},
	{"core.decides", "count"},
	{"core.decide_ms_p50", "ms"},
	{"core.decide_ms_p99", "ms"},
	{"core.candidates_per_decide", "count"},
	{"core.hysteresis_holds", "count"},
	{"core.budget_infeasible", "count"},
	{"serve.emit_us", "us"},
	{"serve.checkpoint_ms", "ms"},
	{"serve.checkpoints", "count"},
	{"serve.checkpoint_bytes", "B"},
	{"serve.checkpoint_useful_ratio", "ratio"},
	{"fleet.reallocations", "count"},
	{"fleet.useful_ratio", "ratio"},
	{"fleet.reallocate_ms", "ms"},
	{"serve.restore_ms", "ms"},
	{"boundary.unattributed_ms", "ms"},
	{"workload.generate_s", "s"},
	{"sim.record_s", "s"},
	{"sim.replay_s", "s"},
	{"sim.run_joint_s", "s"},
	{"multidisk.run_s", "s"},
	{"sim.frontend_share", "ratio"},
	{"sim.cache.hits", "count"},
	{"sim.cache.misses", "count"},
	{"go.alloc_bytes_per_ref", "B"},
	{"go.gc_cycles", "count"},
	{"self.trace_decode_s", "s"},
	{"self.serve_push_s", "s"},
	{"self.serve_close_s", "s"},
	{"self.serve_ingest_s", "s"},
	{"self.core_ingest_s", "s"},
	{"self.serve_finish_s", "s"},
	{"self.core_decide_s", "s"},
	{"self.serve_emit_s", "s"},
	{"self.serve_checkpoint_s", "s"},
	{"self.fleet_reallocate_s", "s"},
	{"self.workload_generate_s", "s"},
	{"self.sim_record_s", "s"},
	{"self.sim_replay_s", "s"},
	{"self.sim_run_s", "s"},
	{"self.multidisk_run_s", "s"},
	{"unattributed_s", "s"},
	{"reconcile_gap_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// selfSpans maps each span name to the self-time metric that reports it.
// Every main-lane span name a workload records must appear here, so the
// self times plus unattributed_s account for the whole traced wall time.
var selfSpans = map[string]string{
	"trace.decode":       "self.trace_decode_s",
	"serve.push":         "self.serve_push_s",
	"serve.close":        "self.serve_close_s",
	"serve.ingest_batch": "self.serve_ingest_s",
	"core.ingest":        "self.core_ingest_s",
	"serve.finish":       "self.serve_finish_s",
	"core.decide":        "self.core_decide_s",
	"serve.emit":         "self.serve_emit_s",
	"serve.checkpoint":   "self.serve_checkpoint_s",
	"fleet.reallocate":   "self.fleet_reallocate_s",
	"workload.generate":  "self.workload_generate_s",
	"sim.record":         "self.sim_record_s",
	"sim.replay":         "self.sim_replay_s",
	"sim.run":            "self.sim_run_s",
	"multidisk.run":      "self.multidisk_run_s",
}

// reconcileTolPct is the stated tolerance of the traced breakdown: spans
// that overlap their parent or siblings show up as negative self time,
// and their sum may be at most this share of the traced wall time.
const reconcileTolPct = 2.0

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, failures and output checks.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check records an output check; a false one fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result assembles the output line from the given metric list. A metric
// the workload never set reads 0; a non-finite one fails the run.
func (r *report) result(defs []metricDef) result {
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is not finite", d.name)
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	out.Correct = len(r.problems) == 0 && r.attempted > 0
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 when empty). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest quantile, at most 0.95, that leaves at
// least ten samples above it; with fewer than 200 samples it falls below
// p95, and with 20 or fewer it is the median. The tail stops at p95
// because on a shared host about one sample in a hundred absorbs a
// multi-millisecond stall of the virtual CPU, which made p99 swing
// fourfold between identical runs.
func tailQuantile(n int) float64 {
	q := 0.95
	if n > 0 {
		if t := float64(n-10) / float64(n); t < q {
			q = t
		}
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
