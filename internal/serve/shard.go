package serve

import (
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

// ErrCrashInjected is returned by Ingest/FinishTo when the fault plan
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

// Shard is the online controller for one disk: the extended-LRU stack,
// the current period's depth log, and the manager deciding (m, t_o) at
// each period boundary. One goroutine ingests; the server's checkpoint
// path locks the shard between requests, so a snapshot always lands on
// a request boundary (never mid-request).
type Shard struct {
	name string
	srv  *Server

	mu  sync.Mutex
	mgr *core.Manager

	stack    *lrusim.StackSim
	pageSize simtime.Bytes
	period   simtime.Seconds

	// Mutable stream state, all covered by the snapshot.
	periodIdx    int64 // periods closed so far
	consumed     int64 // requests ingested since stream start
	nextBoundary simtime.Seconds
	periodLog    []lrusim.DepthRecord
	flushed      int   // periodLog prefix already fed to mgr (incremental mode)
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
		stack:        lrusim.NewStackSim(int(srv.installedPages)),
		pageSize:     srv.params.PageSize,
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

// Ingest feeds one request, closing any period boundaries the request's
// timestamp crosses first. Requests must arrive in time order. It is
// IngestBatch with a one-request block.
func (sh *Shard) Ingest(req trace.Request) error {
	one := [1]trace.Request{req}
	return sh.IngestBatch(one[:])
}

// IngestBatch feeds a time-ordered block of requests under ONE lock
// acquisition: the ring drain's entry point. Period boundaries are
// closed exactly where the request timestamps cross them — each request
// lands in the same period, and each period sees the same log, as
// one-at-a-time Ingest would produce, so the decision stream is
// bit-identical (see TestServeBatchedIngestMatches). Each run of
// requests between boundaries is served in one pass (serve) and reaches
// the incremental manager through one IngestBatch.
//
// A request whose page range leaves [0, 2^63) is rejected with an error
// naming the disk and the request's stream index. The requests before
// it are served as if the block ended there, and it and the rest of the
// block have no effect: not even their timestamps close a period.
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
		err = fmt.Errorf("serve: disk %s: request %d: %d pages from page %d leave the page ids [0, 2^63)",
			sh.name, sh.consumed, bad.Pages, bad.FirstPage)
	}
	sh.mu.Unlock()
	if due {
		sh.dueCheckpoint(duePeriod)
	}
	return err
}

// pagesValid reports whether every page id the request touches lies in
// [0, 2^63), the range the stack and the histogram can key on.
func pagesValid(req *trace.Request) bool {
	return req.FirstPage >= 0 && (req.Pages <= 0 || req.FirstPage <= math.MaxInt64-int64(req.Pages-1))
}

// flushIngest hands the period log's unflushed suffix to the incremental
// manager in one block. Called with sh.mu held, before any boundary
// close consumes the histogram and after every served run, so the
// manager always sees exactly the period's log — just in blocks instead
// of single records. No-op in batch mode.
func (sh *Shard) flushIngest() {
	if sh.srv.cfg.Decide != core.ModeIncremental {
		return
	}
	if pend := sh.periodLog[sh.flushed:]; len(pend) > 0 {
		sh.mgr.IngestBatch(pend)
		sh.flushed = len(sh.periodLog)
	}
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
// period boundary, and hands the new records to the incremental manager
// (flushIngest). It logs every page reference of the run, references the
// logged pages through the stack in one ReferenceBatch call, and then
// predicts the disk traffic each request causes at the currently applied
// memory size: a page hits iff its stack depth is within the chosen
// resident capacity (Mattson's inclusion property), and consecutive
// missing pages of a request coalesce into one disk request, mirroring
// the simulator's run coalescing. The log is kept even in incremental
// mode: it is the snapshot's replayable form of the partial period (see
// restore).
func (sh *Shard) serve(run []trace.Request) {
	var start time.Time
	if sh.timed {
		start = time.Now()
	}
	refs := 0
	for k := range run {
		refs += max(int(run[k].Pages), 0)
	}
	log := sh.extendLog(refs)
	i := 0
	for k := range run {
		req := &run[k]
		for p := int64(0); p < int64(req.Pages); p++ {
			log[i] = lrusim.DepthRecord{Time: req.Time, Page: req.FirstPage + p, Bytes: sh.pageSize}
			i++
		}
	}
	sh.stack.ReferenceBatch(log)
	curPages := sh.curPages
	misses, reqRuns := sh.misses, sh.reqRuns
	for k := range run {
		n := max(int(run[k].Pages), 0)
		inRun := false // the previous page of this request missed
		for _, r := range log[:n] {
			if r.Depth != lrusim.Cold && int64(r.Depth) <= curPages {
				inRun = false
				continue
			}
			misses++
			if !inRun {
				reqRuns++
				inRun = true
			}
		}
		log = log[n:]
		sh.refsTotal += int64(run[k].Pages)
	}
	sh.misses, sh.reqRuns = misses, reqRuns
	sh.cacheAcc += int64(refs)
	sh.consumed += int64(len(run))
	sh.flushIngest()
	if sh.timed {
		sh.ingestNs += time.Since(start).Nanoseconds()
	}
}

// Steps of the period log's capacity ladder, in records: it doubles from
// logMinCap up to logSmoothCap and grows by a quarter per step above it.
const (
	logMinCap    = 1 << 10
	logSmoothCap = 1 << 16
)

// logCap returns the period log's capacity for n records: the first
// ladder step at or above n.
func logCap(n int) int {
	c := logMinCap
	for c < n {
		if c < logSmoothCap {
			c *= 2
		} else {
			c += c / 4
		}
	}
	return c
}

// extendLog lengthens the period log by n records and returns them. A
// full log moves to the ladder step that holds it (logCap), so its
// capacity depends only on the longest the log has been, never on how
// the ring happened to split the stream into runs: every delivery of a
// stream leaves the same footprint. Above logSmoothCap the steps are a
// quarter, not a doubling, which keeps the footprint within a quarter of
// the longest period.
func (sh *Shard) extendLog(n int) []lrusim.DepthRecord {
	base := len(sh.periodLog)
	if need := base + n; need > cap(sh.periodLog) {
		grown := make([]lrusim.DepthRecord, base, logCap(need))
		copy(grown, sh.periodLog)
		sh.periodLog = grown
	}
	sh.periodLog = sh.periodLog[:base+n]
	return sh.periodLog[base:]
}

// closePeriod ends the current period: during warmup the manager's held
// default is republished; afterwards the manager decides from the period
// log under the server's decide semaphore. Called with sh.mu held.
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
	// Every served record must reach the manager before the histogram is
	// consumed. The ingest paths flush after each run, so this is a
	// no-op unless a caller served without flushing.
	sh.flushIngest()
	var boundaryStart time.Time
	if sh.timed {
		boundaryStart = time.Now()
	}
	end := sh.nextBoundary
	start := end - sh.period
	refs := sh.cacheAcc

	incremental := sh.srv.cfg.Decide == core.ModeIncremental
	warmup := idx <= int64(sh.srv.cfg.WarmupPeriods)
	var dec core.Decision
	var decideNs int64
	if !warmup {
		coalesce := 1.0
		if sh.reqRuns > 0 {
			coalesce = float64(sh.misses) / float64(sh.reqRuns)
		}
		obs := core.Observation{
			CacheAccesses:  sh.cacheAcc,
			CoalesceFactor: coalesce,
			PeriodStart:    start,
			PeriodEnd:      end,
			CurrentBanks:   sh.curBanks,
		}
		sh.srv.acquire()
		var decideStart time.Time
		if sh.timed {
			decideStart = time.Now()
		}
		if incremental {
			dec = sh.mgr.DecideIncremental(obs)
		} else {
			obs.Log = sh.periodLog
			dec = sh.mgr.Decide(obs)
		}
		if sh.timed {
			decideNs = time.Since(decideStart).Nanoseconds()
		}
		sh.srv.release()
		sh.curBanks = dec.Banks
		sh.curPages = dec.Pages
	} else {
		if incremental {
			sh.mgr.DiscardPeriod()
		}
		dec = sh.mgr.Last()
	}

	ingestNs := sh.ingestNs
	sh.ingestNs = 0
	sh.periodLog = sh.periodLog[:0]
	sh.flushed = 0
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
				Mode:     sh.srv.cfg.Decide.String(),
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

// state captures the shard's snapshot payload. Called with sh.mu held.
// The period log leaves the critical section as one raw copy; the
// caller converts it to the snapshot's record form outside the lock
// (convertLog), so an ingesting connection is stalled for a memcpy, not
// an element-wise conversion, while a checkpoint marks the shard.
func (sh *Shard) state() (shardState, []lrusim.DepthRecord) {
	refs, colds := sh.stack.Counters()
	st := shardState{
		Name:         sh.name,
		PeriodIdx:    sh.periodIdx,
		Consumed:     sh.consumed,
		NextBoundary: float64(sh.nextBoundary),
		CurBanks:     int64(sh.curBanks),
		CurPages:     sh.curPages,
		Core:         sh.mgr.Snapshot(),
		StackPages:   sh.stack.SnapshotPages(),
		StackRefs:    refs,
		StackColds:   colds,
		CacheAcc:     sh.cacheAcc,
		Misses:       sh.misses,
		ReqRuns:      sh.reqRuns,
		RefitDrift:   sh.mgr.Params().RefitDriftFrac,
		BudgetW:      sh.budgetW,
	}
	if sh.srv.cfg.Decide == core.ModeIncremental {
		st.Mode = int64(core.ModeIncremental)
		if h := sh.mgr.Hist(); h != nil {
			st.IngestedRefs = h.Refs()
		}
	}
	return st, append([]lrusim.DepthRecord(nil), sh.periodLog...)
}

// convertLog is the outside-the-lock half of state: the element-wise
// conversion of the copied period log into the snapshot's record form.
func convertLog(log []lrusim.DepthRecord) []logRecord {
	out := make([]logRecord, len(log))
	for i, r := range log {
		out[i] = logRecord{
			Time:  float64(r.Time),
			Page:  r.Page,
			Depth: int64(r.Depth),
			Bytes: int64(r.Bytes),
		}
	}
	return out
}

// restore rehydrates the shard from a snapshot payload. Called before
// the shard starts ingesting.
func (sh *Shard) restore(st shardState) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st.PeriodIdx < 0 || st.Consumed < 0 || st.CacheAcc < 0 || st.Misses < 0 || st.ReqRuns < 0 {
		return fmt.Errorf("serve: shard %s: negative counters in snapshot", st.Name)
	}
	if !(simtime.Seconds(st.NextBoundary) > 0) {
		return fmt.Errorf("serve: shard %s: invalid period boundary %g", st.Name, st.NextBoundary)
	}
	if err := sh.mgr.Restore(st.Core); err != nil {
		return fmt.Errorf("serve: shard %s: %w", st.Name, err)
	}
	if st.RefitDrift >= 0 {
		// The snapshot records the drift-hold fraction the checkpointed
		// daemon ran with; adopt it so a warm restart keeps the mode even
		// when the new process's flags differ. Pre-v3 snapshots carry -1
		// and leave the configured value alone.
		sh.mgr.SetRefitDriftFrac(st.RefitDrift)
	}
	if st.BudgetW > 0 {
		// Resume the fleet budget the checkpointed daemon was running
		// under, so capped decisions between the restart and the next
		// reallocation epoch match the uninterrupted run bit-identically.
		// Pre-v4 snapshots decode 0 and leave the shard uncapped until the
		// first epoch.
		sh.budgetW = st.BudgetW
		sh.mgr.SetPowerBudget(st.BudgetW)
	}
	sh.stack = lrusim.RestoreStackSim(int(sh.srv.installedPages), st.StackPages, st.StackRefs, st.StackColds)
	sh.periodIdx = st.PeriodIdx
	sh.consumed = st.Consumed
	sh.nextBoundary = simtime.Seconds(st.NextBoundary)
	sh.curBanks = int(st.CurBanks)
	sh.curPages = st.CurPages
	sh.cacheAcc = st.CacheAcc
	sh.misses = st.Misses
	sh.reqRuns = st.ReqRuns
	sh.periodLog = sh.periodLog[:0]
	log := sh.extendLog(len(st.Log))
	for i, r := range st.Log {
		log[i] = lrusim.DepthRecord{
			Time:  simtime.Seconds(r.Time),
			Page:  r.Page,
			Depth: int(r.Depth),
			Bytes: simtime.Bytes(r.Bytes),
		}
	}
	if sh.srv.cfg.Decide == core.ModeIncremental {
		// Rebuild the streaming observation state by replaying the
		// partial period — ingest is deterministic (and the block entry
		// point is bit-identical to record-at-a-time), so the histogram
		// and gap log land exactly where the checkpointed run had them.
		// When the snapshot itself was cut in incremental mode, its
		// recorded reference count must agree with the replay.
		sh.mgr.IngestBatch(sh.periodLog)
		sh.flushed = len(sh.periodLog)
		if st.Mode == int64(core.ModeIncremental) {
			var got int64
			if h := sh.mgr.Hist(); h != nil {
				got = h.Refs()
			}
			if got != st.IngestedRefs {
				return fmt.Errorf("serve: shard %s: incremental state mismatch: replayed %d refs, snapshot recorded %d", st.Name, got, st.IngestedRefs)
			}
		}
	}
	return nil
}
