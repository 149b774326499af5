package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/serve"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// The ingest workload: one disk stream through the daemon's batched
// pipeline at jointpmd's defaults (incremental Decide, flight recorder,
// 64 KB pages, 16 MB banks, 128 GB installed, 600 s periods), with no
// power cap, no speed ladder and no snapshot. Each round serves the same
// encoded trace into a fresh server, so every round publishes the same
// decisions.
const (
	ingestPeriods  = 6 // stream length in 600 s periods
	ingestDataSet  = 16 * simtime.GB
	ingestRate     = 50 * simtime.MB // offered bytes per stream second
	ingestDiskName = "disk0"
)

// ingestInput is the encoded stream a round serves.
type ingestInput struct {
	data []byte
	reqs int64
	refs int64
}

func buildIngestInput(set int64) (ingestInput, error) {
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: ingestDataSet,
		PageSize:     64 * simtime.KB,
		Rate:         float64(ingestRate),
		Popularity:   0.1,
		Duration:     ingestPeriods * 600,
		Classes:      workload.SPECWeb99Classes(16),
		Seed:         set,
	})
	if err != nil {
		return ingestInput{}, err
	}
	var enc bytes.Buffer
	if err := trace.WriteBinary(&enc, tr); err != nil {
		return ingestInput{}, err
	}
	in := ingestInput{data: enc.Bytes(), reqs: int64(len(tr.Requests))}
	for i := range tr.Requests {
		in.refs += int64(tr.Requests[i].Pages)
	}
	return in, nil
}

func ingestConfig(log *decisionLog, reg *obs.Registry, hook func(string, int64)) serve.Config {
	cfg := serve.Config{
		Decide:         core.ModeIncremental,
		PageSize:       64 * simtime.KB,
		BankSize:       16 * simtime.MB,
		InstalledMem:   128 * simtime.GB,
		Period:         600,
		SnapshotEvery:  5,
		FlightRecorder: flight.DefaultDepth,
		Metrics:        reg,
		Heartbeat:      -1,
		OnDecision:     log.observe,
	}
	if hook != nil {
		cfg.Joint = &core.Params{SpanHook: hook}
	}
	return cfg
}

// ingestRound is one served stream.
type ingestRound struct {
	wall    time.Duration
	landed  int64
	log     *decisionLog
	reg     *obs.Registry
	srv     *serve.Server // kept reachable for live_heap_mb
	records []flight.PeriodRecord
	hooks   *hookTimes
}

// hookTimes collects the core SpanHook durations. A period's ingest span
// arrives at the boundary that consumes it and is recorded as a child of
// ingestParent; a decide span is a child of parent.
type hookTimes struct {
	mu           sync.Mutex
	ingestNs     int64
	decideNs     []float64
	tr           *tracer
	parent       int32
	ingestParent int32
	lane         string
}

func (h *hookTimes) hook(name string, ns int64) {
	h.mu.Lock()
	switch name {
	case core.SpanIngest:
		h.ingestNs += ns
		h.tr.within("core.ingest", h.ingestParent, h.lane, ns)
	case core.SpanDecide:
		h.decideNs = append(h.decideNs, float64(ns))
		h.tr.derived("core.decide", h.parent, h.tr.spanKey(h.parent), h.lane, ns)
	}
	h.mu.Unlock()
}

// timedStream wraps the stream decoder so a traced round times each
// ReadBatch call (trace decode) and the pump's time between calls (ring
// pushes, including backpressure waits).
type timedStream struct {
	*trace.StreamReader
	tr      *tracer
	parent  int32
	lastEnd int64
	calls   int64
}

func (s *timedStream) ReadBatch(dst []trace.Request) (int, error) {
	start := s.tr.now()
	if s.calls > 0 {
		s.tr.interval("serve.push", s.parent, s.calls, s.lastEnd, start)
	}
	n, err := s.StreamReader.ReadBatch(dst)
	s.lastEnd = s.tr.now()
	s.tr.interval("trace.decode", s.parent, s.calls, start, s.lastEnd)
	s.calls++
	return n, err
}

// serveIngest runs one round; tr is nil for an untraced round.
func serveIngest(in ingestInput, tr *tracer, key int64) (*ingestRound, error) {
	r := &ingestRound{log: &decisionLog{}, reg: obs.NewRegistry()}
	var hook func(string, int64)
	if tr != nil {
		r.hooks = &hookTimes{tr: tr, lane: laneDrain}
		hook = r.hooks.hook
	}
	srv, err := serve.New(ingestConfig(r.log, r.reg, hook))
	if err != nil {
		return nil, err
	}
	sh, err := srv.Shard(ingestDiskName)
	if err != nil {
		return nil, err
	}
	rd, err := trace.NewStreamReader(bytes.NewReader(in.data))
	if err != nil {
		return nil, err
	}
	var st trace.Stream = rd
	var ts *timedStream
	round := int32(-1)
	if tr != nil {
		round = tr.begin("round", -1, key)
		r.hooks.parent, r.hooks.ingestParent = round, round
		ts = &timedStream{StreamReader: rd, tr: tr, parent: round}
		st = ts
	}
	start := time.Now()
	err = srv.ServeStream(sh, st, serve.StreamOptions{})
	r.wall = time.Since(start)
	if tr != nil {
		tr.interval("serve.close", round, key, ts.lastEnd, tr.now())
		tr.end(round)
	}
	if err != nil {
		return nil, err
	}
	r.srv = srv
	r.landed = srv.Status().RefsIngested
	r.records = sh.Flight().Last(0)
	return r, nil
}

// checkDaemonRound applies the output checks shared by the daemon
// workloads and counts the round's period decisions as operations: a
// decision fails on a fallback or a cap violation, and every failed
// checkpoint counts as one more failure.
func checkDaemonRound(rep *report, name string, got, want daemonRef, sent int64, log *decisionLog, reg *obs.Registry, violations int64) {
	rep.attempted += got.Decisions
	rep.failed += log.fallbacks + violations + reg.CounterValue("serve.checkpoint_errors")
	rep.check(got.Refs == sent, "%s: %d page refs landed, %d sent", name, got.Refs, sent)
	rep.check(want.Refs == sent, "%s: input has %d page refs, the recorded input %d", name, sent, want.Refs)
	rep.check(got.Decisions == want.Decisions && got.Digest == want.Digest,
		"%s: decision stream %d/%s differs from the recorded %d/%s", name, got.Decisions, got.Digest, want.Decisions, want.Digest)
	rep.check(violations == 0, "%s: %d trusted periods exceeded their power budget", name, violations)
}

func ingestReference(set int64) (daemonRef, error) {
	in, err := buildIngestInput(set)
	if err != nil {
		return daemonRef{}, err
	}
	r, err := serveIngest(in, nil, 0)
	if err != nil {
		return daemonRef{}, err
	}
	return r.log.ref(r.landed), nil
}

func runIngest(opt options, rep *report) error {
	ins, err := newInputs(opt.seed, func(set int64) (ingestInput, error) {
		in, err := buildIngestInput(set)
		if err != nil {
			return in, err
		}
		// Set-up includes building the server and its shard.
		srv, err := serve.New(ingestConfig(&decisionLog{}, obs.NewRegistry(), nil))
		if err != nil {
			return in, err
		}
		_, err = srv.Shard(ingestDiskName)
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
	rep.note("stream of input 0: %d requests, %d page refs, %d bytes encoded, %d periods of 600s",
		in0.reqs, in0.refs, len(in0.data), ingestPeriods)

	var tr *tracer
	if opt.trace {
		tr = newTracer(true)
	}
	var plain, traced []float64 // per-round refs/s
	var boundaryMs []float64
	var kept *ingestRound
	var tracedMem memDelta
	var tracedRefs int64
	var reqs int64
	var flightIngestNs, boundaryNs, hookIngestNs, emitNs, emits int64
	var decideNs []float64
	var calls, candidates, holds, infeasible int64
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
		r, err := serveIngest(in, rt, i)
		if err != nil {
			return err
		}
		delta := memNow().since(before)
		plan.add(r.wall)
		checkDaemonRound(rep, fmt.Sprintf("round %d (input set %d)", i, set), r.log.ref(r.landed), ref.Ingest, in.refs, r.log, r.reg, 0)
		rate := float64(r.landed) / r.wall.Seconds()
		if !useTrace {
			plain = append(plain, rate)
			for _, rec := range r.records {
				boundaryMs = append(boundaryMs, float64(rec.DecideNs+rec.EmitNs+rec.CheckpointNs)/1e6)
			}
			if kept == nil {
				kept = r
			}
			continue
		}
		traced = append(traced, rate)
		tracedMem.bytes += delta.bytes
		tracedMem.gcs += delta.gcs
		tracedRefs += r.landed
		for _, rec := range r.records {
			flightIngestNs += rec.IngestNs
			boundaryNs += rec.DecideNs + rec.EmitNs + rec.CheckpointNs
			emitNs += rec.EmitNs
			emits++
		}
		hookIngestNs += r.hooks.ingestNs
		decideNs = append(decideNs, r.hooks.decideNs...)
		calls += r.reg.CounterValue("core.decide.calls")
		candidates += r.reg.CounterValue("core.decide.candidates_priced")
		holds += r.reg.CounterValue("core.decide.hysteresis_holds")
		infeasible += r.reg.CounterValue("core.decide.budget_infeasible")
		reqs += in.reqs
	}
	if !opt.trace {
		rep.set("refs_per_s", median(plain))
		n := len(boundaryMs)
		q := tailQuantile(n)
		rep.set("boundary_p50_ms", median(boundaryMs))
		rep.set("boundary_p95_ms", quantile(boundaryMs, q))
		rep.note("%d rounds, refs/s min %.4g median %.4g max %.4g; boundary = flight-recorded decide+emit of each period close, %d samples, tail quantile p%.1f",
			len(plain), quantile(plain, 0), median(plain), quantile(plain, 1), n, 100*q)
		// The first round's server stays reachable: the same input for a
		// seed, however many rounds ran.
		rep.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(kept)
		return nil
	}
	wall := tr.total("round")
	rep.set("trace.decode_ns_per_req", ratio(tr.total("trace.decode")*1e9, float64(reqs)))
	rep.set("serve.push_wait_s", tr.total("serve.push"))
	rep.set("serve.drain_idle_s", wall-float64(flightIngestNs+boundaryNs)/1e9)
	rep.set("serve.ingest_ns_per_ref", ratio(float64(flightIngestNs), float64(tracedRefs)))
	rep.set("core.ingest_ns_per_ref", ratio(float64(hookIngestNs), float64(tracedRefs)))
	rep.set("serve.stack_ns_per_ref", ratio(float64(flightIngestNs-hookIngestNs), float64(tracedRefs)))
	setDecideMetrics(rep, decideNs, calls, candidates, holds, infeasible)
	rep.set("serve.emit_us", ratio(float64(emitNs), float64(emits))/1e3)
	rep.set("go.alloc_bytes_per_ref", ratio(float64(tracedMem.bytes), float64(tracedRefs)))
	rep.set("go.gc_cycles", float64(tracedMem.gcs))
	rep.set("trace_overhead_pct", 100*(median(plain)/median(traced)-1))
	rep.note("%d plain and %d traced rounds; the drain lane (shard ingest, core ingest, decide) runs beside the pump lane", len(plain), len(traced))
	return finishTraced(opt, rep, tr)
}

// setDecideMetrics reports the core Decide breakdown shared by every
// workload.
func setDecideMetrics(rep *report, decideNs []float64, calls, candidates, holds, infeasible int64) {
	rep.set("core.decides", float64(len(decideNs)))
	ms := make([]float64, len(decideNs))
	for i, ns := range decideNs {
		ms[i] = ns / 1e6
	}
	rep.set("core.decide_ms_p50", median(ms))
	rep.set("core.decide_ms_p99", quantile(ms, tailQuantile(len(ms))))
	rep.set("core.candidates_per_decide", ratio(float64(candidates), float64(calls)))
	rep.set("core.hysteresis_holds", float64(holds))
	rep.set("core.budget_infeasible", float64(infeasible))
}
