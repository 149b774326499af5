package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/experiments"
	"jointpm/internal/multidisk"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/policy"
	"jointpm/internal/sim"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// The sweep workload: the researcher's path. One round runs the Fig. 7
// quick-scale sweep (16 methods x 5 data-set sizes) and then extarray
// through the experiments registry, at the runner's default parallelism.
// It is the only workload that exercises the simulator's cache front end,
// its disk and memory models, multidisk and the batch Decide path.
//
// The traced run cannot hook into the registry, so it reproduces the same
// sweep from the public entry points (sim.Record, Recording.Replay,
// sim.Run, multidisk.Run), one call at a time so that the layer spans tile
// its wall time, and checks that the reproduction matches the registry's
// rows bit for bit.

// sweepHorizon is jointpm's default quick-scale horizon.
const sweepHorizon = 1800

func sweepScale() experiments.Scale { return experiments.QuickScale(sweepHorizon) }

// sweepTraces holds the traces one round simulates: the five Fig. 7 data
// sets (the base trace and its synthesized scale-ups) and the extarray
// trace, generated exactly as the registry's experiments generate them.
type sweepTraces struct {
	fig7     []*trace.Trace
	warmups  []simtime.Seconds
	extarray *trace.Trace
	refs     int64
}

// fig7Factors are the Fig. 7 sweep's data-set scale-ups of the base trace.
var fig7Factors = []int{1, 2, 4, 8, 16}

func buildSweepTraces(s experiments.Scale, set int64, tr *tracer, parent int32) (sweepTraces, error) {
	var out sweepTraces
	rate := 100 * s.RateUnit
	id := tr.begin("workload.generate", parent, 0)
	base, err := s.GenerateBase(4*s.Unit, rate, 0.1, set, s.WarmupFor(64*s.Unit, rate))
	if err != nil {
		return out, err
	}
	synth := workload.NewSynthesizer(set + 1)
	for _, f := range fig7Factors {
		t := base
		if f > 1 {
			if t, err = synth.ScaleDataSet(base, f); err != nil {
				return out, err
			}
		}
		out.fig7 = append(out.fig7, t)
		out.warmups = append(out.warmups, s.WarmupFor(t.DataSetBytes, rate))
	}
	extRate := 25 * s.RateUnit
	out.extarray, err = s.GenerateBase(16*s.Unit, extRate, 0.1, set, s.WarmupFor(16*s.Unit, extRate))
	tr.end(id)
	if err != nil {
		return out, err
	}
	for _, t := range append(append([]*trace.Trace(nil), out.fig7...), out.extarray) {
		for i := range t.Requests {
			out.refs += int64(t.Requests[i].Pages)
		}
	}
	return out, nil
}

// sweepOutput is what one round produced.
type sweepOutput struct {
	points   []*experiments.Point
	extarray string
	runs     int64 // method runs attempted
	failed   int64 // method runs that returned an error
}

// fig7Methods is the Fig. 7 method set in figure order.
func fig7Methods(s experiments.Scale) []policy.Method {
	ms := policy.Comparison(s.InstalledMem, s.FMSizes())
	policy.SortMethods(ms)
	return ms
}

// extarrayRuns is the extarray matrix size: three layouts by four
// per-spindle policies.
const extarrayRuns = 12

// registryRound runs one round through the experiments registry.
func registryRound(s experiments.Scale, set int64) (sweepOutput, error) {
	out := sweepOutput{runs: int64(5*len(fig7Methods(s)) + extarrayRuns)}
	points, err := experiments.Sweeps["fig7"].Produce(s, set)
	if err != nil {
		var joined interface{ Unwrap() []error }
		if errors.As(err, &joined) {
			out.failed = int64(len(joined.Unwrap()))
			return out, nil
		}
		return out, err
	}
	out.points = points
	ext, err := experiments.ByID("extarray")
	if err != nil {
		return out, err
	}
	var buf bytes.Buffer
	if err := ext.Run(s, set, &buf); err != nil {
		out.failed += extarrayRuns
		return out, nil
	}
	out.extarray = buf.String()
	return out, nil
}

// rowsDigest hashes every row of every point: the method, the omission
// flag, the normalised energies, and the raw result fields, as bits.
func rowsDigest(points []*experiments.Point) string {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for b := 0; b < 8; b++ {
			h = (h ^ (v >> (8 * b) & 0xff)) * prime
		}
	}
	f := func(v float64) { mix(math.Float64bits(v)) }
	for _, p := range points {
		for _, c := range p.Label {
			mix(uint64(c))
		}
		for _, r := range p.Rows {
			for _, c := range r.Method.Name() {
				mix(uint64(c))
			}
			if r.Omitted {
				mix(1)
			}
			f(r.TotalPct)
			f(r.DiskPct)
			f(r.MemPct)
			res := r.Result
			f(float64(res.Duration))
			f(float64(res.DiskEnergy.Total()))
			f(float64(res.MemEnergy.Total()))
			mix(uint64(res.ClientRequests))
			mix(uint64(res.CacheAccesses))
			mix(uint64(res.DiskAccesses))
			mix(uint64(res.DiskRequests))
			f(float64(res.TotalLatency))
			mix(uint64(res.Delayed))
			f(res.Utilization)
			f(float64(res.OracleDiskPM))
		}
	}
	return fmt.Sprintf("%016x", h)
}

func textDigest(s string) string {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return fmt.Sprintf("%016x", h)
}

func jointRow(p *experiments.Point) *experiments.Row {
	for i := range p.Rows {
		if p.Rows[i].Method.IsJoint() {
			return &p.Rows[i]
		}
	}
	return nil
}

// sweepRefOf summarises a round's output for the reference file.
func sweepRefOf(o sweepOutput) sweepRef {
	ref := sweepRef{RowsDigest: rowsDigest(o.points), ExtArrayDigest: textDigest(o.extarray)}
	for _, p := range o.points {
		pr := pointRef{Label: p.Label}
		if j := jointRow(p); j != nil {
			pr.JointTotalPct = j.TotalPct
			pr.JointDelayedPS = j.Result.DelayedPerSecond()
		}
		ref.Points = append(ref.Points, pr)
	}
	return ref
}

// checkSweep compares a round's output with the recorded reference; the
// extarray table digest only applies to the registry's rendered table.
func checkSweep(rep *report, name string, got, want sweepRef, table bool) {
	rep.check(len(got.Points) == len(want.Points), "%s: %d Fig. 7 points, recorded %d", name, len(got.Points), len(want.Points))
	for i := 0; i < len(got.Points) && i < len(want.Points); i++ {
		g, w := got.Points[i], want.Points[i]
		rep.check(g == w, "%s: point %s joint energy %v%% delayed %v/s, recorded %s %v%% %v/s",
			name, g.Label, g.JointTotalPct, g.JointDelayedPS, w.Label, w.JointTotalPct, w.JointDelayedPS)
	}
	rep.check(got.RowsDigest == want.RowsDigest, "%s: Fig. 7 rows digest %s, recorded %s", name, got.RowsDigest, want.RowsDigest)
	rep.check(!table || got.ExtArrayDigest == want.ExtArrayDigest, "%s: extarray table digest %s, recorded %s", name, got.ExtArrayDigest, want.ExtArrayDigest)
}

func sweepReference(set int64) (sweepRef, error) {
	o, err := registryRound(sweepScale(), set)
	if err != nil {
		return sweepRef{}, err
	}
	if o.failed > 0 {
		return sweepRef{}, fmt.Errorf("%d method runs failed", o.failed)
	}
	return sweepRefOf(o), nil
}

// simConfig mirrors the experiment runner's per-method configuration.
func simConfig(s experiments.Scale, tr *trace.Trace, m policy.Method, warmup simtime.Seconds, joint core.Params) sim.Config {
	joint.DelayCap = s.DelayCap
	return sim.Config{
		Trace:        tr,
		Method:       m,
		InstalledMem: s.InstalledMem,
		BankSize:     s.BankSize,
		DiskSpec:     s.DiskSpec,
		MemSpec:      s.MemSpec,
		Period:       s.Period,
		Warmup:       warmup,
		Joint:        &joint,
		Metrics:      s.Metrics,
	}
}

// jointBoundaries re-runs the JOINT method on one Fig. 7 point of a
// round with a flight recorder and returns each period's Decide wall
// time, in ms. It also checks the re-run against the registry's row.
func jointBoundaries(s experiments.Scale, in sweepTraces, p *experiments.Point, k int, rep *report) ([]float64, error) {
	joint := policy.Method{Disk: policy.DiskJoint, Mem: policy.MemJoint}
	rec := flight.New(1 << 10)
	cfg := simConfig(s, in.fig7[k], joint, in.warmups[k], core.Params{})
	cfg.Flight = rec
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	var ms []float64
	for _, r := range rec.Last(0) {
		if r.DecideNs > 0 {
			ms = append(ms, float64(r.DecideNs)/1e6)
		}
	}
	if j := jointRow(p); j != nil {
		rep.check(j.Result.TotalEnergy() == res.TotalEnergy() && j.Result.Delayed == res.Delayed,
			"point %s: JOINT re-run differs from the registry row", p.Label)
	}
	return ms, nil
}

// reproduce runs one traced pass of the sweep from the public entry
// points, grouping methods by sim.SharedCacheKey as the runner does.
type reproStats struct {
	frontEnds, methodRuns int64
	decideNs              []float64
}

func reproduce(s experiments.Scale, set int64, tr *tracer, round int32, st *reproStats) (sweepOutput, int64, error) {
	var out sweepOutput
	in, err := buildSweepTraces(s, set, tr, round)
	if err != nil {
		return out, 0, err
	}
	methods := fig7Methods(s)
	var parent int32
	hook := func(name string, ns int64) {
		if name == core.SpanDecide {
			st.decideNs = append(st.decideNs, float64(ns))
			tr.derived("core.decide", parent, tr.spanKey(parent), laneMain, ns)
		}
	}
	for k, t := range in.fig7 {
		label := s.GBLabel(t.DataSetBytes)
		warmup := in.warmups[k]
		results := make([]*sim.Result, len(methods))
		type group struct{ idx []int }
		byKey := map[sim.CacheKey]*group{}
		var order []*group
		for i, m := range methods {
			key, ok := sim.SharedCacheKey(m, s.InstalledMem)
			if !ok {
				order = append(order, &group{idx: []int{i}})
				continue
			}
			g := byKey[key]
			if g == nil {
				g = &group{}
				byKey[key] = g
				order = append(order, g)
			}
			g.idx = append(g.idx, i)
		}
		for _, g := range order {
			out.runs += int64(len(g.idx))
			st.methodRuns += int64(len(g.idx))
			st.frontEnds++
			if len(g.idx) == 1 {
				i := g.idx[0]
				parent = tr.begin("sim.run", round, int64(k))
				results[i], err = sim.Run(simConfig(s, t, methods[i], warmup, core.Params{SpanHook: hook}))
				tr.end(parent)
				if err != nil {
					out.failed++
				}
				continue
			}
			id := tr.begin("sim.record", round, int64(k))
			rec, err := sim.Record(simConfig(s, t, methods[g.idx[0]], warmup, core.Params{}))
			tr.end(id)
			if err != nil {
				out.failed += int64(len(g.idx))
				continue
			}
			for _, i := range g.idx {
				id := tr.begin("sim.replay", round, int64(k))
				results[i], err = rec.Replay(methods[i])
				tr.end(id)
				if err != nil {
					out.failed++
				}
			}
			rec.Release()
		}
		p := &experiments.Point{Label: label}
		for i, m := range methods {
			if m.Disk == policy.DiskAlwaysOn && m.Mem == policy.MemFixedNap && m.MemBytes == s.InstalledMem {
				p.Baseline = results[i]
			}
		}
		if p.Baseline == nil || out.failed > 0 {
			return out, in.refs, fmt.Errorf("point %s: %d failed runs or no baseline", label, out.failed)
		}
		pct := func(v, base simtime.Joules) float64 {
			if base == 0 {
				return 0
			}
			return float64(v) / float64(base) * 100
		}
		for i, m := range methods {
			res := results[i]
			p.Rows = append(p.Rows, experiments.Row{
				Method:   m,
				Result:   res,
				TotalPct: pct(res.TotalEnergy(), p.Baseline.TotalEnergy()),
				DiskPct:  pct(res.DiskEnergy.Total(), p.Baseline.DiskEnergy.Total()),
				MemPct:   pct(res.MemEnergy.Total(), p.Baseline.MemEnergy.Total()),
				Omitted:  experiments.OmitBar(res.Utilization),
			})
		}
		out.points = append(out.points, p)
	}
	// extarray: the layout x policy matrix on the 16 "GB" trace.
	var rows []string
	for _, layout := range []multidisk.Layout{multidisk.Striped, multidisk.Ranged, multidisk.HotCold} {
		for _, method := range []multidisk.DiskMethod{multidisk.AlwaysOn, multidisk.TwoCompetitive, multidisk.Partitioned, multidisk.Joint} {
			id := tr.begin("multidisk.run", round, 0)
			res, err := multidisk.Run(multidisk.Config{
				Trace:        in.extarray,
				Disks:        4,
				Layout:       layout,
				Method:       method,
				InstalledMem: s.InstalledMem,
				BankSize:     s.BankSize,
				DiskSpec:     s.DiskSpec,
				MemSpec:      s.MemSpec,
				Period:       s.Period,
			})
			tr.end(id)
			out.runs++
			if err != nil {
				out.failed++
				continue
			}
			rows = append(rows, strings.Join([]string{layout.String(), method.String(),
				strconv.FormatFloat(float64(res.DiskEnergy()), 'f', 0, 64),
				strconv.FormatFloat(float64(res.TotalEnergy()), 'f', 0, 64),
				fmt.Sprintf("%d/4", res.SleepingDisks()),
				strconv.FormatFloat(float64(res.MeanLatency())*1e3, 'f', 2, 64)}, " "))
		}
	}
	out.extarray = strings.Join(rows, "\n")
	return out, in.refs, nil
}

// extarrayRows extracts the data rows of the registry's extarray table in
// the reproduction's single-space form.
func extarrayRows(text string) string {
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 6 && strings.HasSuffix(f[4], "/4") {
			rows = append(rows, strings.Join(f, " "))
		}
	}
	return strings.Join(rows, "\n")
}

func runSweep(opt options, rep *report) error {
	s := sweepScale()
	off := newTracer(false)
	ins, err := newInputs(opt.seed, func(set int64) (sweepTraces, error) {
		return buildSweepTraces(s, set, off, -1)
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", ins.setup)
	in0, _, err := ins.get(0)
	if err != nil {
		return err
	}
	rep.note("Fig. 7 quick scale (%d methods x %d points, horizon %ds) + extarray: %d page refs in input 0",
		len(fig7Methods(s)), len(fig7Factors), sweepHorizon, in0.refs)
	if opt.trace {
		return traceSweep(opt, rep, s)
	}

	var rates, boundaryMs, heapMB []float64
	plan := newRounds(opt)
	for i := int64(0); ; i++ {
		ok, k, _, _ := plan.next(i)
		if !ok {
			break
		}
		in, set, err := ins.get(k)
		if err != nil {
			return err
		}
		ins.drop(k)
		ref, err := opt.refs.forSet(set)
		if err != nil {
			return err
		}
		start := time.Now()
		o, err := registryRound(s, set)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		plan.add(wall)
		rep.attempted += o.runs
		rep.failed += o.failed
		if o.failed > 0 {
			rep.check(false, "round %d (input set %d): %d method runs failed", i, set, o.failed)
			break
		}
		checkSweep(rep, fmt.Sprintf("round %d (input set %d)", i, set), sweepRefOf(o), ref.Sweep, true)
		rates = append(rates, float64(in.refs)/wall.Seconds())
		// The heap is measured after every round while that round's results
		// are reachable, and the median reported: what one round's results
		// retain varies with the input set and with which pooled recordings
		// earlier rounds grew, so a single reading is not steady.
		heapMB = append(heapMB, liveHeapMB())
		runtime.KeepAlive(o)
		// Boundary samples: after every round, outside the timed calls,
		// one point's JOINT run again, the point rotating with the round.
		// Decide's cost varies with the input set, so sampling every round
		// keeps the metric from hanging on a few sets.
		pt := int(i) % len(o.points)
		ms, err := jointBoundaries(s, in, o.points[pt], pt, rep)
		if err != nil {
			return err
		}
		boundaryMs = append(boundaryMs, ms...)
	}
	rep.set("refs_per_s", median(rates))
	rep.set("live_heap_mb", median(heapMB))
	q := tailQuantile(len(boundaryMs))
	rep.set("boundary_p50_ms", median(boundaryMs))
	rep.set("boundary_p95_ms", quantile(boundaryMs, q))
	rep.note("%d rounds, refs/s min %.4g median %.4g max %.4g; boundary = one JOINT period Decide in an untimed re-run of one Fig. 7 point per round, %d samples, tail quantile p%.1f",
		len(rates), quantile(rates, 0), median(rates), quantile(rates, 1), len(boundaryMs), 100*q)
	return nil
}

// traceSweep alternates plain and traced passes of the reproduction on
// the same inputs, then checks input 0's reproduction against the
// registry.
func traceSweep(opt options, rep *report, s experiments.Scale) error {
	tr := newTracer(true)
	reg := obs.NewRegistry()
	traced := s
	traced.Metrics = reg
	off := newTracer(false)
	var plain, tracedRates []float64
	st := &reproStats{}
	var tracedMem memDelta
	var tracedRefs int64
	var first sweepOutput
	var firstSet int64
	plan := newRounds(opt)
	for i := int64(0); ; i++ {
		ok, k, useTrace, _ := plan.next(i)
		if !ok {
			break
		}
		// reproduce generates its own traces, as the registry does.
		set := inputSet(opt.seed + k)
		ref, err := opt.refs.forSet(set)
		if err != nil {
			return err
		}
		rt, sc, stats := off, s, &reproStats{}
		if useTrace {
			rt, sc, stats = tr, traced, st
		}
		before := memNow()
		start := time.Now()
		round := rt.begin("round", -1, i)
		o, refs, err := reproduce(sc, set, rt, round, stats)
		rt.end(round)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		plan.add(wall)
		delta := memNow().since(before)
		rep.attempted += o.runs
		rep.failed += o.failed
		checkSweep(rep, fmt.Sprintf("pass %d (input set %d)", i, set), sweepRefOf(o), ref.Sweep, false)
		if i == 0 {
			first, firstSet = o, set
		}
		rate := float64(refs) / wall.Seconds()
		if !useTrace {
			plain = append(plain, rate)
			continue
		}
		tracedRates = append(tracedRates, rate)
		tracedMem.bytes += delta.bytes
		tracedMem.gcs += delta.gcs
		tracedRefs += refs
	}
	// The reproduction must match the registry bit for bit.
	reg0, err := registryRound(s, firstSet)
	if err != nil {
		return err
	}
	rep.check(reg0.failed == 0, "registry round: %d method runs failed", reg0.failed)
	rep.check(rowsDigest(first.points) == rowsDigest(reg0.points), "reproduced Fig. 7 rows differ from the registry's")
	rep.check(first.extarray == extarrayRows(reg0.extarray), "reproduced extarray rows differ from the registry's")

	passes := float64(len(tracedRates))
	rep.set("workload.generate_s", tr.total("workload.generate")/passes)
	rep.set("sim.record_s", tr.total("sim.record")/passes)
	rep.set("sim.replay_s", tr.total("sim.replay")/passes)
	rep.set("sim.run_joint_s", jointRunSeconds(tr)/passes)
	rep.set("multidisk.run_s", tr.total("multidisk.run")/passes)
	rep.set("sim.frontend_share", ratio(float64(st.frontEnds), float64(st.methodRuns)))
	rep.set("sim.cache.hits", float64(reg.CounterValue("sim.cache.hits"))/passes)
	rep.set("sim.cache.misses", float64(reg.CounterValue("sim.cache.misses"))/passes)
	setDecideMetrics(rep, st.decideNs, reg.CounterValue("core.decide.calls"), reg.CounterValue("core.decide.candidates_priced"),
		reg.CounterValue("core.decide.hysteresis_holds"), reg.CounterValue("core.decide.budget_infeasible"))
	rep.set("go.alloc_bytes_per_ref", ratio(float64(tracedMem.bytes), float64(tracedRefs)))
	rep.set("go.gc_cycles", float64(tracedMem.gcs))
	rep.set("trace_overhead_pct", 100*(median(plain)/median(tracedRates)-1))
	rep.note("%d plain and %d traced passes of the reproduction, one call at a time; times and counts are per pass", len(plain), len(tracedRates))
	return finishTraced(opt, rep, tr)
}

// jointRunSeconds sums the sim.Run spans that contain Decide spans: the
// fused runs of the joint method.
func jointRunSeconds(tr *tracer) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	joint := map[int32]bool{}
	for _, s := range tr.spans {
		if s.Name == "core.decide" && s.Parent >= 0 && tr.spans[s.Parent].Name == "sim.run" {
			joint[s.Parent] = true
		}
	}
	var ns int64
	for id := range joint {
		ns += tr.spans[id].End - tr.spans[id].Start
	}
	return float64(ns) / 1e9
}
