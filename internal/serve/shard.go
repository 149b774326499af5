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
// the extended-LRU stack and decides (m, t_o) at each period boundary,
// the current period's depth runs when the server checkpoints, and the
// hit model's counters. One goroutine ingests; the server's checkpoint
// path locks the shard between requests, so a snapshot always lands on a
// request boundary (never mid-request).
type Shard struct {
	name string
	srv  *Server

	mu  sync.Mutex
	mgr *core.Manager

	pageSize simtime.Bytes
	period   simtime.Seconds
	// keepLog: the period log's one reader is the checkpoint, so a
	// server without a snapshot path keeps no log.
	keepLog bool

	// Mutable stream state, all covered by the snapshot.
	periodIdx    int64 // periods closed so far
	consumed     int64 // requests ingested since stream start
	nextBoundary simtime.Seconds
	periodLog    []lrusim.DepthRun
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
		pageSize:     srv.params.PageSize,
		period:       srv.params.Period,
		keepLog:      srv.cfg.SnapshotPath != "",
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
// lrusim.LookAhead requests first, and logs the depth runs it returns
// if it keeps a log.
// Then it predicts the disk traffic each request causes at the currently
// applied memory size: a page hits iff its stack depth is within the
// chosen resident capacity (Mattson's inclusion property), and
// consecutive missing pages of a request coalesce into one disk request,
// mirroring the simulator's run coalescing. It flushes the manager's
// ingest queue at the end, so the pass's ingest is done within it. The
// manager keeps only its streaming state, so the log is the snapshot's
// replayable form of the partial period (see restore).
func (sh *Shard) serve(run []trace.Request) {
	var start time.Time
	if sh.timed {
		start = time.Now()
	}
	mgr, log, keep := sh.mgr, sh.periodLog, sh.keepLog
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
			if keep && len(log)+n > cap(log) {
				log = growLog(log, len(log)+n)
			}
			inRun := false // the previous run of this request missed
			for _, r := range mgr.Reference(req.Time, req.FirstPage, n) {
				if keep {
					// One append per run: requests are mostly one run and
					// the capacity is there, so this beats a copy call.
					log = append(log, r)
				}
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
	sh.periodLog = log
	sh.misses, sh.reqRuns = misses, reqRuns
	sh.refsTotal += refs
	sh.cacheAcc += refs
	sh.consumed += int64(len(run))
	mgr.Flush()
	if sh.timed {
		sh.ingestNs += time.Since(start).Nanoseconds()
	}
}

// Steps of the period log's capacity ladder, in runs: it doubles from
// logMinCap up to logSmoothCap and grows by a quarter per step above it.
const (
	logMinCap    = 1 << 10
	logSmoothCap = 1 << 16
)

// logCap returns the period log's capacity for n runs: the first ladder
// step at or above n.
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

// growLog moves the period log to the ladder step that holds need runs
// (logCap). serve asks for room for one run per page before each request,
// so the capacity depends only on the run stream, never on how the ring
// happened to split it into blocks: every delivery of a stream leaves the
// same footprint. Above logSmoothCap the steps are a quarter, not a
// doubling, which keeps the footprint within a quarter of the longest
// period plus one request.
func growLog(log []lrusim.DepthRun, need int) []lrusim.DepthRun {
	grown := make([]lrusim.DepthRun, len(log), logCap(need))
	copy(grown, log)
	return grown
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
	sh.periodLog = sh.periodLog[:0]
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

// state captures the shard's snapshot payload. Called with sh.mu held.
// The period log leaves the critical section as one raw copy of its
// runs; the caller expands it page by page into the snapshot's record
// form outside the lock (convertLog), so an ingesting connection is
// stalled for a memcpy, not an element-wise conversion, while a
// checkpoint marks the shard. Every pass flushes its ingest, so the
// manager has ingested every page of the log.
func (sh *Shard) state() (shardState, []lrusim.DepthRun) {
	st := shardState{
		Name:         sh.name,
		PeriodIdx:    sh.periodIdx,
		Consumed:     sh.consumed,
		NextBoundary: float64(sh.nextBoundary),
		CurBanks:     int64(sh.curBanks),
		CurPages:     sh.curPages,
		Core:         sh.mgr.Snapshot(),
		CacheAcc:     sh.cacheAcc,
		Misses:       sh.misses,
		ReqRuns:      sh.reqRuns,
		RefitDrift:   sh.mgr.Params().RefitDriftFrac,
		BudgetW:      sh.budgetW,
		Mode:         snapModeIncremental,
	}
	for _, r := range sh.periodLog {
		st.IngestedRefs += int64(r.Pages)
	}
	return st, append([]lrusim.DepthRun(nil), sh.periodLog...)
}

// convertLog is the outside-the-lock half of state: the copied period
// log, expanded into the snapshot's per-page record form, each record
// carrying the page size.
func convertLog(runs []lrusim.DepthRun, pageSize simtime.Bytes) []logRecord {
	n := 0
	for _, r := range runs {
		n += int(r.Pages)
	}
	out := make([]logRecord, 0, n)
	for _, r := range runs {
		for k := int64(0); k < int64(r.Pages); k++ {
			out = append(out, logRecord{
				Time:  float64(r.Time),
				Page:  r.Page + k,
				Depth: int64(r.Depth),
				Bytes: int64(pageSize),
			})
		}
	}
	return out
}

// appendRuns rebuilds depth runs from per-page log records, merging each
// record into the previous run when it continues it: the same time bits,
// the next page and the same depth. The runs may merge requests the live
// shard kept apart, which changes no page's record.
func appendRuns(dst []lrusim.DepthRun, log []logRecord) []lrusim.DepthRun {
	for _, r := range log {
		if k := len(dst); k > 0 {
			last := &dst[k-1]
			if math.Float64bits(float64(last.Time)) == math.Float64bits(r.Time) && int64(last.Depth) == r.Depth &&
				r.Page-last.Page == int64(last.Pages) && last.Pages < math.MaxInt32 {
				last.Pages++
				continue
			}
		}
		dst = append(dst, lrusim.DepthRun{Time: simtime.Seconds(r.Time), Page: r.Page, Pages: 1, Depth: int32(r.Depth)})
	}
	return dst
}

// validate checks a snapshot payload for values the shard cannot hold,
// before restore changes anything: negative counters, a non-positive
// boundary, negative log page ids, depths that are neither Cold nor in
// [1, 2^31), log records whose bytes are not the page size (the run log
// stores none of its own), and a streaming snapshot whose log does not
// hold the references it recorded as ingested. core.Manager.Restore
// checks the manager's own state, the stack included.
func (sh *Shard) validate(st *shardState) error {
	if st.PeriodIdx < 0 || st.Consumed < 0 || st.CacheAcc < 0 || st.Misses < 0 || st.ReqRuns < 0 {
		return fmt.Errorf("serve: shard %s: negative counters in snapshot", st.Name)
	}
	if !(simtime.Seconds(st.NextBoundary) > 0) {
		return fmt.Errorf("serve: shard %s: invalid period boundary %g", st.Name, st.NextBoundary)
	}
	// A snapshot cut while streaming recorded its ingested reference
	// count, which replaying the log must reproduce; one cut by a daemon
	// running the retired batch path (mode 0) recorded none.
	if st.Mode == snapModeIncremental && int64(len(st.Log)) != st.IngestedRefs {
		return fmt.Errorf("serve: shard %s: incremental state mismatch: the log replays %d refs, snapshot recorded %d", st.Name, len(st.Log), st.IngestedRefs)
	}
	for i, r := range st.Log {
		switch {
		case r.Page < 0:
			return fmt.Errorf("serve: shard %s: log record %d: negative page id %d", st.Name, i, r.Page)
		case r.Depth != lrusim.Cold && (r.Depth < 1 || r.Depth > math.MaxInt32):
			return fmt.Errorf("serve: shard %s: log record %d: depth %d out of range", st.Name, i, r.Depth)
		case r.Bytes != int64(sh.pageSize):
			return fmt.Errorf("serve: shard %s: log record %d: %d bytes, want the page size %d", st.Name, i, r.Bytes, sh.pageSize)
		}
	}
	return nil
}

// restore rehydrates the shard from a snapshot payload. Called before
// the shard starts ingesting. A payload that fails validate leaves the
// shard unchanged.
func (sh *Shard) restore(st shardState) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.validate(&st); err != nil {
		return err
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
	sh.periodIdx = st.PeriodIdx
	sh.consumed = st.Consumed
	sh.nextBoundary = simtime.Seconds(st.NextBoundary)
	sh.curBanks = int(st.CurBanks)
	sh.curPages = st.CurPages
	sh.cacheAcc = st.CacheAcc
	sh.misses = st.Misses
	sh.reqRuns = st.ReqRuns
	sh.periodLog = appendRuns(sh.periodLog[:0], st.Log)
	// Rebuild the streaming observation state by replaying the partial
	// period into the manager, whose restored stack already holds its
	// references — ingest is deterministic and independent of how the
	// runs are split, so the histogram and gap log land exactly where the
	// checkpointed run had them.
	sh.mgr.IngestBatch(sh.periodLog)
	return nil
}
