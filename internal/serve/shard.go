package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/lrusim"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// ErrCrashInjected is returned by IngestBatch/FinishTo when the fault plan
// scripts a daemon crash at the period boundary being closed. The
// crash-recovery harness treats it as the process dying mid-period:
// everything since the last checkpoint is lost.
var ErrCrashInjected = fmt.Errorf("serve: injected crash at period boundary")

// Decision is one published decision of a shard, tagged with its origin.
type Decision struct {
	Disk     string
	Period   int64 // 1-based index of the period the decision closes
	Decision core.Decision
}

// Shard is the online controller for one disk: the manager, which keeps
// the extended-LRU stack and the open period's observation and decides
// (m, t_o) at each period boundary, and the hit model's counters. One
// goroutine ingests; the server's checkpoint path locks the shard between
// requests, so a snapshot always lands on a request boundary (never
// mid-request).
type Shard struct {
	name string
	srv  *Server

	mu  sync.Mutex
	mgr *core.Manager

	period simtime.Seconds

	// Mutable stream state, all covered by the snapshot.
	periodIdx    int64 // periods closed so far
	consumed     int64 // requests ingested since stream start
	nextBoundary simtime.Seconds
	cacheAcc     int64 // page references this period
	misses       int64 // predicted misses this period
	reqRuns      int64 // coalesced disk requests this period
	refsTotal    int64 // lifetime page references served (not snapshotted)

	curBanks int
	curPages int64

	// ckptDue marks that a period boundary hit the snapshot cadence.
	// The checkpoint itself runs after sh.mu is released — Checkpoint
	// re-locks every shard, so writing it from closePeriod would
	// self-deadlock. ckptPeriod remembers which period armed it so the
	// checkpoint wall time can be amended onto that flight record.
	ckptDue    bool
	ckptPeriod int64

	// fleetDue marks that a period boundary hit the fleet-epoch cadence;
	// the reallocation runs after sh.mu is released for the same reason
	// as ckptDue (FleetReallocate locks every shard to collect
	// summaries). budgetW is the shard's current fleet budget in watts
	// (0: uncapped), mirrored into the manager and the snapshot.
	fleetDue bool
	budgetW  float64

	// Introspection state, process-local (never snapshotted — like
	// /metrics, the flight recorder describes this process's life).
	// timed is fixed at construction: with neither a recorder nor a
	// metrics registry attached the shard takes no clock readings and
	// its behaviour is identical to a build without the layer.
	rec       *flight.Recorder
	timed     bool
	ingestNs  int64 // wall time spent serving this period's requests
	fallbacks int64 // lifetime count of fallback decisions

	// ring is the shard's active stream Ingestor (nil between streams),
	// published by ServeStream so Status can report ring occupancy
	// without touching sh.mu.
	ring atomic.Pointer[Ingestor]
}

func newShard(name string, srv *Server) (*Shard, error) {
	mgr, err := core.NewManager(srv.params)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %s: %w", name, err)
	}
	sh := &Shard{
		name:         name,
		srv:          srv,
		mgr:          mgr,
		period:       srv.params.Period,
		nextBoundary: srv.params.Period,
		curBanks:     mgr.Last().Banks,
		curPages:     mgr.Last().Pages,
	}
	if srv.flightDepth > 0 {
		sh.rec = flight.New(srv.flightDepth)
	}
	sh.timed = sh.rec != nil || srv.cfg.Metrics != nil
	return sh, nil
}

// Flight returns the shard's flight recorder; nil when disabled.
func (sh *Shard) Flight() *flight.Recorder { return sh.rec }

// Name returns the disk name the shard serves.
func (sh *Shard) Name() string { return sh.name }

// Consumed returns how many requests the shard has ingested since the
// start of its stream. After a Restore, a replayed-from-start stream
// must skip this many requests to resume where the checkpoint was taken.
func (sh *Shard) Consumed() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.consumed
}

// Periods returns how many period boundaries the shard has closed.
func (sh *Shard) Periods() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.periodIdx
}

// IngestBatch feeds a time-ordered block of requests under ONE lock
// acquisition: the ring drain's entry point. Period boundaries are
// closed exactly where the request timestamps cross them — each request
// lands in the same period, and each period sees the same log, as
// one-request blocks would produce, so the decision stream is
// bit-identical (see TestServeBatchedIngestMatches). Each run of
// requests between boundaries is served in one pass (serve) and reaches
// the incremental manager through one IngestBatch.
//
// A request with a negative page count, or whose page range leaves
// [0, 2^63), is rejected with an error naming the disk and the request's
// stream index. The requests before it are served as if the block ended
// there, and it and the rest of the block have no effect: not even their
// timestamps close a period.
func (sh *Shard) IngestBatch(reqs []trace.Request) error {
	if len(reqs) == 0 {
		return nil
	}
	valid := 0
	for valid < len(reqs) && pagesValid(&reqs[valid]) {
		valid++
	}
	sh.mu.Lock()
	err := func() error {
		for i := 0; i < valid; {
			for reqs[i].Time >= sh.nextBoundary {
				if err := sh.closePeriod(); err != nil {
					return err
				}
				sh.fleetEpochLocked()
			}
			// The run of requests strictly before the next boundary.
			j := i + 1
			for j < valid && reqs[j].Time < sh.nextBoundary {
				j++
			}
			sh.serve(reqs[i:j])
			i = j
		}
		return nil
	}()
	// A closePeriod error is a crash and loses the checkpoint; a rejected
	// request does not undo the boundaries the requests before it closed.
	due, duePeriod := sh.ckptDue && err == nil, sh.ckptPeriod
	sh.ckptDue = false
	if err == nil && valid < len(reqs) {
		bad := &reqs[valid]
		if bad.Pages < 0 {
			err = fmt.Errorf("serve: disk %s: request %d: negative page count %d",
				sh.name, sh.consumed, bad.Pages)
		} else {
			err = fmt.Errorf("serve: disk %s: request %d: %d pages from page %d leave the page ids [0, 2^63)",
				sh.name, sh.consumed, bad.Pages, bad.FirstPage)
		}
	}
	sh.mu.Unlock()
	if due {
		sh.dueCheckpoint(duePeriod)
	}
	return err
}

// pagesValid reports whether the request's page count is not negative
// and every page id it touches lies in [0, 2^63), the range the stack and
// the histogram can key on.
func pagesValid(req *trace.Request) bool {
	return req.Pages >= 0 && req.FirstPage >= 0 && (req.Pages == 0 || req.FirstPage <= math.MaxInt64-int64(req.Pages-1))
}

// FinishTo closes every period boundary at or before t. The daemon
// calls it when a stream ends (with the trace's duration) or on a
// clock tick during idle stretches, so decisions keep flowing without
// traffic.
func (sh *Shard) FinishTo(t simtime.Seconds) error {
	sh.mu.Lock()
	err := func() error {
		for t >= sh.nextBoundary {
			if err := sh.closePeriod(); err != nil {
				return err
			}
			sh.fleetEpochLocked()
		}
		return nil
	}()
	due, duePeriod := sh.ckptDue, sh.ckptPeriod
	sh.ckptDue = false
	sh.mu.Unlock()
	if due && err == nil {
		sh.dueCheckpoint(duePeriod)
	}
	return err
}

// dueCheckpoint runs the cadence checkpoint outside the shard lock,
// timing it and amending the wall time onto the period record that
// armed it.
func (sh *Shard) dueCheckpoint(period int64) {
	if !sh.timed {
		sh.srv.cadenceCheckpoint()
		return
	}
	start := time.Now()
	sh.srv.cadenceCheckpoint()
	ns := time.Since(start).Nanoseconds()
	sh.srv.met.checkpointWall.Observe(float64(ns) / 1e9)
	sh.rec.AmendCheckpoint(sh.name, period, ns)
}

// serve runs one pass over a run of requests that all precede the next
// period boundary. It runs each request through the manager's stack
// (Reference), prefetching the page-table slots of the next
// lrusim.LookAhead requests first, and predicts from the depth runs it
// returns the disk traffic the request causes at the currently applied
// memory size: a page hits iff its stack depth is within the chosen
// resident capacity (Mattson's inclusion property), and consecutive
// missing pages of a request coalesce into one disk request, mirroring
// the simulator's run coalescing. It flushes the manager's ingest queue
// at the end, so the pass's ingest is done within it.
func (sh *Shard) serve(run []trace.Request) {
	var start time.Time
	if sh.timed {
		start = time.Now()
	}
	mgr := sh.mgr
	curPages := sh.curPages
	misses, reqRuns, refs := sh.misses, sh.reqRuns, int64(0)
	for g := run; len(g) > 0; g = g[min(lrusim.LookAhead, len(g)):] {
		group := g[:min(lrusim.LookAhead, len(g))]
		for k := range group {
			mgr.Prefetch(group[k].FirstPage)
		}
		for k := range group {
			req := &group[k]
			n := int(req.Pages)
			inRun := false // the previous run of this request missed
			for _, r := range mgr.Reference(req.Time, req.FirstPage, n) {
				if r.Depth != lrusim.Cold && int64(r.Depth) <= curPages {
					inRun = false
					continue
				}
				misses += int64(r.Pages)
				if !inRun {
					reqRuns++
					inRun = true
				}
			}
			refs += int64(n)
		}
	}
	sh.misses, sh.reqRuns = misses, reqRuns
	sh.refsTotal += refs
	sh.cacheAcc += refs
	sh.consumed += int64(len(run))
	mgr.Flush()
	if sh.timed {
		sh.ingestNs += time.Since(start).Nanoseconds()
	}
}

// closePeriod ends the current period: during warmup the manager drops
// the period's references and its held default is republished;
// afterwards the manager decides from them under the server's decide
// semaphore. Called with sh.mu held.
//
// With introspection enabled (sh.timed) the boundary is traced: Decide
// wall time, per-reference ingest cost, and boundary-to-emit latency
// land in the serve histograms, the decision's priced energy ledger is
// accumulated, and a PeriodRecord is cut into the flight recorder.
func (sh *Shard) closePeriod() error {
	idx := sh.periodIdx + 1
	if sh.srv.cfg.Injector.CrashAtPeriodBoundary(idx) {
		return ErrCrashInjected
	}
	var boundaryStart time.Time
	if sh.timed {
		boundaryStart = time.Now()
	}
	end := sh.nextBoundary
	start := end - sh.period
	refs := sh.cacheAcc

	warmup := idx <= int64(sh.srv.cfg.WarmupPeriods)
	var dec core.Decision
	var decideNs int64
	if warmup {
		dec = sh.mgr.Close(end, true, 0, 0)
	} else {
		coalesce := 1.0
		if sh.reqRuns > 0 {
			coalesce = float64(sh.misses) / float64(sh.reqRuns)
		}
		sh.srv.acquire()
		var decideStart time.Time
		if sh.timed {
			decideStart = time.Now()
		}
		dec = sh.mgr.Close(end, false, coalesce, sh.curBanks)
		if sh.timed {
			decideNs = time.Since(decideStart).Nanoseconds()
		}
		sh.srv.release()
		sh.curBanks = dec.Banks
		sh.curPages = dec.Pages
	}

	ingestNs := sh.ingestNs
	sh.ingestNs = 0
	sh.cacheAcc = 0
	sh.misses = 0
	sh.reqRuns = 0
	sh.periodIdx = idx
	sh.nextBoundary += sh.period

	var emitStart time.Time
	if sh.timed {
		emitStart = time.Now()
	}
	sh.srv.publish(Decision{Disk: sh.name, Period: idx, Decision: dec})
	if dec.Fallback {
		sh.fallbacks++
		sh.srv.met.fallbacks.Inc()
	}
	if sh.timed {
		emitNs := time.Since(emitStart).Nanoseconds()
		led := dec.PricedLedger(sh.srv.params)
		met := &sh.srv.met
		if !warmup {
			met.decideWall.Observe(float64(decideNs) / 1e9)
		}
		if refs > 0 {
			met.ingestPerRef.Observe(float64(ingestNs) / float64(refs))
		}
		met.boundaryToEmit.Observe(time.Since(boundaryStart).Seconds())
		met.addEnergy(led)
		if sh.rec != nil {
			rec := flight.PeriodRecord{
				Disk:     sh.name,
				Period:   idx,
				StartS:   obs.Float(start),
				EndS:     obs.Float(end),
				Refs:     refs,
				IngestNs: ingestNs,
				DecideNs: decideNs,
				EmitNs:   emitNs,
				Banks:    dec.Banks,
				TimeoutS: obs.Float(dec.Timeout),
				Fallback: dec.Fallback,
				Warmup:   warmup,
				Energy:   led,
			}
			if sh.srv.coord != nil {
				rec.PowerW = float64(dec.Chosen.TotalPower)
				rec.BudgetW = sh.budgetW
				rec.OverBudget = dec.OverBudget
			}
			sh.rec.Record(rec)
		}
	}
	if every := sh.srv.cfg.SnapshotEvery; every > 0 && sh.srv.cfg.SnapshotPath != "" && idx%every == 0 {
		sh.ckptDue = true
		sh.ckptPeriod = idx
	}
	if sh.srv.coord != nil && idx%sh.srv.cfg.FleetEpoch == 0 {
		// Keyed to the shard's own period index — which the snapshot
		// persists — so the epoch cadence survives a warm restart.
		sh.fleetDue = true
	}
	return nil
}

// state captures the shard's snapshot payload. Called with sh.mu held;
// the manager's Snapshot copies what it holds, so the payload is the
// caller's once the lock is released.
func (sh *Shard) state() shardState {
	return shardState{
		Name:         sh.name,
		PeriodIdx:    sh.periodIdx,
		Consumed:     sh.consumed,
		NextBoundary: float64(sh.nextBoundary),
		CurBanks:     int64(sh.curBanks),
		CurPages:     sh.curPages,
		CacheAcc:     sh.cacheAcc,
		Misses:       sh.misses,
		ReqRuns:      sh.reqRuns,
		RefitDrift:   sh.mgr.Params().RefitDriftFrac,
		BudgetW:      sh.budgetW,
		Core:         sh.mgr.Snapshot(),
	}
}

// restoreManager checks a snapshot payload for values a shard cannot
// hold — an empty name, negative counters or sizes, installed banks
// exceeded, a period boundary that is not positive or that adding a
// period would not move, a drift fraction or budget that is negative or
// not finite — and returns a manager restored from its core.State, which
// core.Manager.Restore checks in turn, the open period included. It
// changes no shard.
func (s *Server) restoreManager(st *shardState) (*core.Manager, error) {
	next, period := simtime.Seconds(st.NextBoundary), s.params.Period
	switch {
	case st.Name == "":
		return nil, errors.New("serve: a shard without a name")
	case st.PeriodIdx < 0 || st.Consumed < 0 || st.CacheAcc < 0 || st.Misses < 0 || st.ReqRuns < 0 ||
		st.CurBanks < 0 || st.CurBanks > int64(s.params.TotalBanks) || st.CurPages < 0:
		return nil, fmt.Errorf("serve: shard %s: negative or out-of-range counters in snapshot", st.Name)
	case !(next > 0) || !(next+period > next):
		return nil, fmt.Errorf("serve: shard %s: invalid period boundary %g", st.Name, st.NextBoundary)
	case !(st.RefitDrift >= 0 && st.RefitDrift <= math.MaxFloat64 && st.BudgetW >= 0 && st.BudgetW <= math.MaxFloat64):
		return nil, fmt.Errorf("serve: shard %s: drift fraction %g or budget %g W out of range", st.Name, st.RefitDrift, st.BudgetW)
	}
	mgr, err := core.NewManager(s.params)
	if err != nil {
		return nil, err
	}
	if err := mgr.Restore(st.Core); err != nil {
		return nil, fmt.Errorf("serve: shard %s: %w", st.Name, err)
	}
	// The checkpointed daemon's drift-hold fraction and fleet budget
	// hold, so a warm restart keeps its mode whatever the new process's
	// flags, and capped decisions before the next reallocation epoch
	// match the uninterrupted run.
	mgr.SetRefitDriftFrac(st.RefitDrift)
	mgr.SetPowerBudget(st.BudgetW)
	return mgr, nil
}

// install puts a restored manager and its stream position into the
// shard. Called before the shard starts ingesting.
func (sh *Shard) install(st *shardState, mgr *core.Manager) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.mgr = mgr
	sh.budgetW = st.BudgetW
	sh.periodIdx = st.PeriodIdx
	sh.consumed = st.Consumed
	sh.nextBoundary = simtime.Seconds(st.NextBoundary)
	sh.curBanks = int(st.CurBanks)
	sh.curPages = st.CurPages
	sh.cacheAcc = st.CacheAcc
	sh.misses = st.Misses
	sh.reqRuns = st.ReqRuns
}
