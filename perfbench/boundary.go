package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/mem"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/serve"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// The boundary workload: many low-rate shards of 8192 banks each in one
// server, with a four-level DRPM ladder, a global power cap below their
// uncapped demand, fleet epochs every period and, in traced rounds, a
// snapshot every five periods (jointpmd's cadences). One goroutine drives
// the shards in stream-time order: for each period, each shard gets one
// IngestBatch of its requests and then a timed FinishTo of the boundary.
// Periods are short and traffic light, so boundaries (Decide, fleet
// reallocation, emit, checkpoint) do most of the work.
const (
	boundaryShards  = 32
	boundaryPeriods = 20
	boundaryPeriod  = simtime.Seconds(60)
	boundaryBank    = 64 * simtime.KB
	boundaryBanks   = 8192
	boundaryLevels  = 4
	// boundaryBudgetW is the per-shard share of the global cap, below what
	// the uncapped shards decide, so budgets bind.
	boundaryBudgetW = 2.5
)

// boundaryInput is every shard's request stream.
type boundaryInput struct {
	reqs [][]trace.Request
	refs int64
}

func buildBoundaryInput(set int64) (boundaryInput, error) {
	var in boundaryInput
	for i := 0; i < boundaryShards; i++ {
		// Shards differ in rate and data-set size, so the fleet solve has
		// unequal demands to divide the cap between.
		tr, err := workload.Generate(workload.Config{
			DataSetBytes: simtime.Bytes(32+8*(i%8)) * simtime.MB,
			PageSize:     16 * simtime.KB,
			Rate:         float64(simtime.Bytes(400+25*i) * simtime.KB),
			Popularity:   0.1,
			Duration:     boundaryPeriods * boundaryPeriod,
			Classes:      workload.SPECWeb99Classes(4),
			Seed:         set*1000 + int64(i),
		})
		if err != nil {
			return in, err
		}
		in.reqs = append(in.reqs, tr.Requests)
		for _, r := range tr.Requests {
			in.refs += int64(r.Pages)
		}
	}
	return in, nil
}

func boundaryConfig(snapshot string, log *decisionLog, reg *obs.Registry, hook func(string, int64)) serve.Config {
	// The quick-scale memory spec: power per MB scaled up 256x so the
	// small banks keep the paper's memory-to-disk power ratio.
	spec := mem.RDRAM(boundaryBank)
	spec.NapPowerPerMB *= 256
	spec.DynamicPerMB *= 256
	cfg := serve.Config{
		Decide:         core.ModeIncremental,
		PageSize:       16 * simtime.KB,
		BankSize:       boundaryBank,
		InstalledMem:   boundaryBanks * boundaryBank,
		Period:         boundaryPeriod,
		MemSpec:        spec,
		SpeedLevels:    boundaryLevels,
		PowerCapW:      boundaryBudgetW * boundaryShards,
		FleetEpoch:     1,
		SnapshotPath:   snapshot,
		SnapshotEvery:  5,
		FlightRecorder: boundaryPeriods + 1,
		Metrics:        reg,
		Heartbeat:      -1,
		OnDecision:     log.observe,
	}
	if hook != nil {
		cfg.Joint = &core.Params{SpanHook: hook}
	}
	return cfg
}

func shardName(i int) string { return fmt.Sprintf("d%02d", i) }

// newBoundaryServer builds the server and every shard, and installs the
// first budgets before any traffic, as fleetbench does.
func newBoundaryServer(snapshot string, log *decisionLog, reg *obs.Registry, hook func(string, int64)) (*serve.Server, []*serve.Shard, error) {
	srv, err := serve.New(boundaryConfig(snapshot, log, reg, hook))
	if err != nil {
		return nil, nil, err
	}
	shards := make([]*serve.Shard, boundaryShards)
	for i := range shards {
		if shards[i], err = srv.Shard(shardName(i)); err != nil {
			return nil, nil, err
		}
	}
	srv.FleetReallocate()
	return srv, shards, nil
}

// boundaryRound is one pass of every shard over the whole stream.
type boundaryRound struct {
	busy       time.Duration // IngestBatch plus FinishTo wall time, less checkpoints
	checkpoint time.Duration // cadence checkpoints inside FinishTo
	finishMs   []float64     // per FinishTo, less its checkpoint
	log        *decisionLog
	reg        *obs.Registry
	srv        *serve.Server
	records    []flight.PeriodRecord
	violations int64
	hooks      *hookTimes
	// Traced rounds: the FinishTo spans and the fleet reallocations each
	// one ran, for the reallocation estimate added after the round.
	finishSpans []int32
	finishFleet []int64
}

// driveBoundary runs one round on a fresh server checkpointing to
// snapshot ("" for none); tr is nil for an untraced round.
func driveBoundary(in boundaryInput, snapshot string, tr *tracer, key int64) (*boundaryRound, error) {
	if snapshot != "" {
		// A fresh server must not find the previous round's snapshot; a
		// missing file is the normal case.
		_ = os.Remove(snapshot)
	}
	r := &boundaryRound{log: &decisionLog{}, reg: obs.NewRegistry()}
	var hook func(string, int64)
	if tr != nil {
		r.hooks = &hookTimes{tr: tr, lane: laneMain}
		hook = r.hooks.hook
	}
	srv, shards, err := newBoundaryServer(snapshot, r.log, r.reg, hook)
	if err != nil {
		return nil, err
	}
	epochs := r.reg.Counter("serve.fleet_epochs")
	round := int32(-1)
	if tr != nil {
		round = tr.begin("round", -1, key)
	}
	pos := make([]int, boundaryShards)
	for p := 1; p <= boundaryPeriods; p++ {
		bound := simtime.Seconds(p) * boundaryPeriod
		for i, sh := range shards {
			reqs := in.reqs[i]
			j := pos[i]
			for j < len(reqs) && reqs[j].Time < bound {
				j++
			}
			id := int64(p)*1000 + int64(i) // one id per boundary
			ing := int32(-1)
			if tr != nil {
				ing = tr.begin("serve.ingest_batch", round, id)
				r.hooks.ingestParent = ing
			}
			t0 := time.Now()
			if err := sh.IngestBatch(reqs[pos[i]:j]); err != nil {
				return nil, err
			}
			t1 := time.Now()
			pos[i] = j
			var fin int32 = -1
			var before int64
			if tr != nil {
				tr.end(ing)
				fin = tr.begin("serve.finish", round, id)
				r.hooks.parent = fin
				before = epochs.Value()
			}
			if err := sh.FinishTo(bound); err != nil {
				return nil, err
			}
			t2 := time.Now()
			// The shard's own timing of the cadence checkpoint it just
			// wrote, if any (see runBoundary for why it is set apart).
			rec := sh.Flight().Last(1)[0]
			if tr != nil {
				tr.derived("serve.emit", fin, id, laneMain, rec.EmitNs)
				tr.derived("serve.checkpoint", fin, id, laneMain, rec.CheckpointNs)
				tr.end(fin)
				r.finishSpans = append(r.finishSpans, fin)
				r.finishFleet = append(r.finishFleet, epochs.Value()-before)
			}
			ckpt := time.Duration(rec.CheckpointNs)
			r.busy += t2.Sub(t0) - ckpt
			r.checkpoint += ckpt
			r.finishMs = append(r.finishMs, float64((t2.Sub(t1)-ckpt).Nanoseconds())/1e6)
		}
	}
	if tr != nil {
		tr.end(round)
	}
	r.srv = srv
	for _, sh := range shards {
		for _, rec := range sh.Flight().Last(0) {
			r.records = append(r.records, rec)
			// fleetbench's audit rule: a trusted period (priced, not
			// degraded, not the over-budget fallback) must respect the
			// budget it was decided under.
			if rec.Warmup || rec.Fallback || rec.OverBudget || rec.PowerW <= 0 {
				continue
			}
			if rec.BudgetW > 0 && rec.PowerW > rec.BudgetW*(1+1e-9)+1e-6 {
				r.violations++
			}
		}
	}
	return r, nil
}

// snapshotDir returns a fresh directory for checkpoints under the output
// directory, inside the working tree the benchmark runs in.
func snapshotDir(out string) (string, func(), error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(out, "snap-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

func boundaryReference(set int64) (daemonRef, error) {
	in, err := buildBoundaryInput(set)
	if err != nil {
		return daemonRef{}, err
	}
	dir, done, err := snapshotDir(filepath.Join(".bench_build", "perfbench"))
	if err != nil {
		return daemonRef{}, err
	}
	defer done()
	r, err := driveBoundary(in, filepath.Join(dir, "boundary.snap"), nil, 0)
	if err != nil {
		return daemonRef{}, err
	}
	return r.log.ref(r.srv.Status().RefsIngested), nil
}

// runBoundary keeps the cadence checkpoints out of the end-to-end
// metrics. A checkpoint ends in an fsync of the disk that holds the
// checkout: its latency is set by that disk and whatever else uses it,
// it doubled between identical runs on a shared host, and the write-back
// it leaves behind slowed the boundaries after it. So untraced rounds run
// without a snapshot file, and traced rounds, which do checkpoint, leave
// the checkpoints' own wall time (as the shard's flight recorder times it
// around the write) out of their busy time. The traced run reports the
// checkpoints in full: serve.checkpoint_ms, serve.checkpoints,
// serve.checkpoint_bytes and the checkpoint self time.
func runBoundary(opt options, rep *report) error {
	dir, done, err := snapshotDir(opt.out)
	if err != nil {
		return err
	}
	defer done()
	snapshot := filepath.Join(dir, "boundary.snap")
	ins, err := newInputs(opt.seed, func(set int64) (boundaryInput, error) {
		in, err := buildBoundaryInput(set)
		if err != nil {
			return in, err
		}
		// Set-up includes building the server, its shards and their first
		// budgets.
		_, _, err = newBoundaryServer(snapshot, &decisionLog{}, obs.NewRegistry(), nil)
		return in, err
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", ins.setup)
	in0, _, err := ins.get(0)
	if err != nil {
		return err
	}
	rep.note("%d shards x %d periods of %gs (%d page refs in input 0), %d banks per shard, %d speed levels, cap %.0f W",
		boundaryShards, boundaryPeriods, float64(boundaryPeriod), in0.refs, boundaryBanks, boundaryLevels, boundaryBudgetW*boundaryShards)

	var tr *tracer
	if opt.trace {
		tr = newTracer(true)
	}
	var plain, traced []float64
	var finishMs []float64
	var kept *boundaryRound
	var tracedMem memDelta
	var tracedRefs, flightIngestNs, hookIngestNs, emitNs, ckptNs, ckptRecs, periods int64
	var decideNs []float64
	var calls, candidates, holds, infeasible, checkpoints, reallocations int64
	var finishTotal float64
	var fleetUnitMs, restores []float64
	var ckptBytes float64
	plan := newRounds(opt)
	for i := int64(0); ; i++ {
		ok, k, useTrace, lastUse := plan.next(i)
		if !ok {
			break
		}
		in, set, err := ins.get(k)
		if err != nil {
			return err
		}
		ref, err := opt.refs.forSet(set)
		if err != nil {
			return err
		}
		if lastUse {
			ins.drop(k)
		}
		var rt *tracer
		if useTrace {
			rt = tr
		}
		before := memNow()
		path := ""
		if useTrace {
			path = snapshot
		}
		r, err := driveBoundary(in, path, rt, i)
		if err != nil {
			return err
		}
		plan.add(r.busy)
		delta := memNow().since(before)
		landed := r.srv.Status().RefsIngested
		got := r.log.ref(landed)
		checkDaemonRound(rep, fmt.Sprintf("round %d (input set %d)", i, set), got, ref.Boundary, in.refs, r.log, r.reg, r.violations)
		rate := float64(landed) / r.busy.Seconds()
		if !useTrace {
			plain = append(plain, rate)
			finishMs = append(finishMs, r.finishMs...)
			if kept == nil {
				kept = r
			}
			continue
		}
		traced = append(traced, rate)
		tracedMem.bytes += delta.bytes
		tracedMem.gcs += delta.gcs
		tracedRefs += landed
		for _, rec := range r.records {
			flightIngestNs += rec.IngestNs
			emitNs += rec.EmitNs
			if rec.CheckpointNs > 0 {
				ckptNs += rec.CheckpointNs
				ckptRecs++
			}
			periods++
		}
		hookIngestNs += r.hooks.ingestNs
		decideNs = append(decideNs, r.hooks.decideNs...)
		calls += r.reg.CounterValue("core.decide.calls")
		candidates += r.reg.CounterValue("core.decide.candidates_priced")
		holds += r.reg.CounterValue("core.decide.hysteresis_holds")
		infeasible += r.reg.CounterValue("core.decide.budget_infeasible")
		checkpoints += r.reg.CounterValue("serve.checkpoints")
		reallocations += r.reg.CounterValue("serve.fleet_epochs")
		ckptBytes = r.reg.Gauge("serve.checkpoint_bytes").Value()
		for _, ms := range r.finishMs {
			finishTotal += ms
		}
		finishTotal += float64(r.checkpoint.Nanoseconds()) / 1e6

		// Unit cost of one reallocation epoch over the final fleet, timed
		// after the round, and the estimate it gives each FinishTo.
		var unit []float64
		for k := 0; k < 16; k++ {
			t0 := time.Now()
			r.srv.FleetReallocate()
			unit = append(unit, float64(time.Since(t0).Nanoseconds()))
		}
		unitNs := median(unit)
		fleetUnitMs = append(fleetUnitMs, unitNs/1e6)
		for k, fin := range r.finishSpans {
			if n := r.finishFleet[k]; n > 0 {
				tr.within("fleet.reallocate", fin, laneMain, int64(float64(n)*unitNs))
			}
		}

		// Restart cost: restore the round's last snapshot into a fresh
		// server.
		fresh, err := serve.New(boundaryConfig(snapshot, &decisionLog{}, nil, nil))
		if err != nil {
			return err
		}
		t0 := time.Now()
		names, err := fresh.Restore()
		restoreMs := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return err
		}
		rep.check(len(names) == boundaryShards, "restore brought back %d shards, want %d", len(names), boundaryShards)
		restores = append(restores, restoreMs)
	}
	if !opt.trace {
		rep.set("refs_per_s", median(plain))
		q := tailQuantile(len(finishMs))
		rep.set("boundary_p50_ms", median(finishMs))
		rep.set("boundary_p95_ms", quantile(finishMs, q))
		rep.note("%d rounds, refs/s min %.4g median %.4g max %.4g; boundary = one Shard.FinishTo, %d samples, tail quantile p%.1f",
			len(plain), quantile(plain, 0), median(plain), quantile(plain, 1), len(finishMs), 100*q)
		rep.note("FinishTo beyond the reported tail: p99 %.3f ms, p99.9 %.3f ms", quantile(finishMs, 0.99), quantile(finishMs, 0.999))
		// The first round's server stays reachable: the same input for a
		// seed, however many rounds ran.
		rep.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(kept)
		return nil
	}
	nTraced := float64(len(traced))
	rep.set("serve.ingest_ns_per_ref", ratio(float64(flightIngestNs), float64(tracedRefs)))
	rep.set("core.ingest_ns_per_ref", ratio(float64(hookIngestNs), float64(tracedRefs)))
	rep.set("serve.stack_ns_per_ref", ratio(float64(flightIngestNs-hookIngestNs), float64(tracedRefs)))
	setDecideMetrics(rep, decideNs, calls, candidates, holds, infeasible)
	rep.set("serve.emit_us", ratio(float64(emitNs), float64(periods))/1e3)
	rep.set("serve.checkpoint_ms", ratio(float64(ckptNs), float64(ckptRecs))/1e6)
	rep.set("serve.checkpoints", float64(checkpoints)/nTraced)
	rep.set("serve.checkpoint_bytes", ckptBytes)
	cadenceRounds := float64(boundaryPeriods / 5)
	rep.set("serve.checkpoint_useful_ratio", ratio(cadenceRounds*nTraced, float64(checkpoints)))
	rep.set("fleet.reallocations", float64(reallocations)/nTraced)
	// One epoch round per period, plus the initial solve.
	rep.set("fleet.useful_ratio", ratio(float64(boundaryPeriods+1)*nTraced, float64(reallocations)))
	fleetMs := median(fleetUnitMs)
	rep.set("fleet.reallocate_ms", fleetMs)
	rep.set("serve.restore_ms", median(restores))
	attributed := float64(ckptNs+emitNs)/1e6 + tr.total("core.decide")*1e3 + tr.total("fleet.reallocate")*1e3
	rep.set("boundary.unattributed_ms", ratio(finishTotal-attributed, float64(periods)))
	rep.set("go.alloc_bytes_per_ref", ratio(float64(tracedMem.bytes), float64(tracedRefs)))
	rep.set("go.gc_cycles", float64(tracedMem.gcs))
	rep.set("trace_overhead_pct", 100*(median(plain)/median(traced)-1))
	rep.note("%d plain and %d traced rounds; counts are per round", len(plain), len(traced))
	return finishTraced(opt, rep, tr)
}
