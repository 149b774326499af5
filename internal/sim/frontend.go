package sim

import (
	"fmt"

	"jointpm/internal/cache"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// Record plays cfg.Trace through the cache front-end once and returns a
// Recording that every method sharing the same memory configuration
// (SharedCacheKey) can replay against its own disk policy. cfg.Method
// supplies the memory half; its disk half is irrelevant to the stream.
//
// The front-end holds no disk or memory power state: it evolves only the
// page cache (plus, for the disable policy, a per-bank idle clock that
// mirrors the memory model's data-loss timeout) and records the exact
// event sequence the fused engine would have fed the power models.
func Record(c Config) (*Recording, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Zoned != nil {
		return nil, fmt.Errorf("sim: the shared cache front-end does not support the zoned disk model")
	}
	if cfg.DiskFaults != nil || cfg.MemFaults != nil {
		// A recording is replayed against several disk policies; injector
		// op counters would interleave across replays and break replay
		// determinism. Fault runs use the fused engine (sim.Run).
		return nil, fmt.Errorf("sim: the shared cache front-end does not support fault injection")
	}
	key, ok := SharedCacheKey(cfg.Method, cfg.InstalledMem)
	if !ok {
		return nil, fmt.Errorf("sim: method %s is not front-end shareable", cfg.Method.Name())
	}
	f := newFrontEnd(cfg, key)
	f.run()
	return f.rec, nil
}

// frontEnd is the cache half of a split run.
type frontEnd struct {
	cfg      Config
	pageSize simtime.Bytes
	cache    *cache.PageCache
	rec      *Recording

	// Disable-policy bank clock (nil for nap/power-down keys): mirrors
	// mem.Memory's lastTouch/enabled state just far enough to decide
	// when a bank's data dies. Timer state only — no energy.
	dsLastTouch []simtime.Seconds
	dsEnabled   []bool

	// Per-request touch dedup: within one request every op happens at
	// the same time t, so a second Touch of the same bank is a complete
	// no-op in the memory model (settle early-exits, no state changes)
	// and can be dropped from the stream without breaking bit-identity.
	bankEpoch []uint32
	epoch     uint32
	resident  cache.Run // a resident request's frames and banks

	period periodRec // open period's counters
}

func newFrontEnd(cfg Config, key CacheKey) *frontEnd {
	ps := cfg.Trace.PageSize
	pagesPerBank := int64(cfg.BankSize / ps)
	installedFrames := int64(cfg.InstalledMem / ps)
	totalBanks := int(cfg.InstalledMem / cfg.BankSize)

	f := &frontEnd{
		cfg:       cfg,
		pageSize:  ps,
		cache:     cache.New(installedFrames, pagesPerBank),
		rec:       recordingPool.Get().(*Recording),
		bankEpoch: make([]uint32, totalBanks),
	}
	f.rec.cfg = cfg
	f.rec.key = key
	if key.Disable {
		f.dsLastTouch = make([]simtime.Seconds, totalBanks)
		f.dsEnabled = make([]bool, totalBanks)
		for b := range f.dsEnabled {
			f.dsEnabled[b] = true
		}
	} else if key.MemBytes < cfg.InstalledMem {
		banks := int(key.MemBytes / cfg.BankSize)
		if banks < 1 {
			banks = 1
		}
		f.cache.Resize(int64(banks) * pagesPerBank)
	}
	return f
}

// run mirrors engine.run's request/period-boundary interleaving exactly.
func (f *frontEnd) run() {
	tr := f.cfg.Trace
	period := f.cfg.Period
	nextBoundary := period

	for i := range tr.Requests {
		req := &tr.Requests[i]
		for req.Time >= nextBoundary {
			f.closePeriod(nextBoundary)
			nextBoundary += period
		}
		f.serve(req)
	}
	end := tr.Duration
	if n := len(tr.Requests); n > 0 && tr.Requests[n-1].Time > end {
		end = tr.Requests[n-1].Time
	}
	for nextBoundary <= end {
		f.closePeriod(nextBoundary)
		nextBoundary += period
	}
	f.rec.tail = f.period
	f.rec.end = end
}

func (f *frontEnd) serve(req *trace.Request) {
	t := req.Time
	f.period.clientReqs++
	f.epoch++
	if f.epoch == 0 { // wrapped: invalidate all stale epochs
		clear(f.bankEpoch)
		f.epoch = 1
	}
	if f.serveResident(req) {
		return
	}

	var (
		runStart    int64 = -1
		runLen      int64
		nRuns, nOps int32
	)
	flush := func() {
		if runLen == 0 {
			return
		}
		f.rec.runs.add(missRun{start: runStart, n: int32(runLen)})
		nRuns++
		runStart, runLen = -1, 0
	}

	for k := int32(0); k < req.Pages; k++ {
		page := req.FirstPage + int64(k)
		f.period.cacheAcc++

		frame, hit := f.cache.Peek(page)
		if hit && f.dsEnabled != nil {
			bank := f.cache.BankOf(frame)
			if f.dsDead(bank, t) {
				// The bank's disable timeout expired before this access:
				// its data is gone. Invalidate, record the mark (it
				// splits the bank's settle integral, so it is part of
				// the bit-identical stream), and treat as a miss.
				f.period.invalidated += f.cache.InvalidateBank(bank)
				f.dsEnabled[bank] = false
				f.rec.ops.add(memOp(bank) | opMark)
				nOps++
				hit = false
			}
		}
		if hit {
			f.cache.Promote(frame) // LRU touch
			nOps += f.touch(f.cache.BankOf(frame), t)
			flush()
			continue
		}
		f.period.misses++
		if runLen > 0 && page == runStart+runLen {
			runLen++
		} else {
			flush()
			runStart, runLen = page, 1
		}
		frame, _ = f.cache.Insert(page)
		nOps += f.touch(f.cache.BankOf(frame), t)
	}
	flush()

	if nRuns > 0 || nOps > 0 {
		f.rec.reqs.add(reqRec{time: t, runs: nRuns, ops: nOps})
		f.period.reqs++
	}
}

// serveResident serves a request whose pages the cache holds as one LRU
// run (cache.ResidentRun): the per-page loop's touches in page order, its
// counters as whole counts, and one splice for its Promote calls. Under
// the disable policy a run with a dead bank is left to the per-page loop,
// checked before anything changes; that loop meets the same bank.
func (f *frontEnd) serveResident(req *trace.Request) bool {
	if !f.cache.ResidentRun(&f.resident, req.FirstPage, int64(req.Pages)) {
		return false
	}
	t := req.Time
	if f.dsEnabled != nil {
		for _, b := range f.resident.Banks {
			if f.dsDead(b, t) {
				return false
			}
		}
	}
	var nOps int32
	for _, b := range f.resident.Banks {
		nOps += f.touch(b, t)
	}
	f.cache.PromoteRun(&f.resident)
	f.period.cacheAcc += int64(req.Pages)
	f.rec.reqs.add(reqRec{time: t, ops: nOps}) // nOps ≥ 1: the epoch is new
	f.period.reqs++
	return true
}

// touch updates the disable clock and records the bank touch unless an
// identical touch (same bank, same request ⇒ same time) was already
// recorded for this request.
func (f *frontEnd) touch(bank int, t simtime.Seconds) int32 {
	if f.dsEnabled != nil {
		f.dsEnabled[bank] = true
		f.dsLastTouch[bank] = t
	}
	if f.bankEpoch[bank] == f.epoch {
		return 0
	}
	f.bankEpoch[bank] = f.epoch
	f.rec.ops.add(memOp(bank))
	return 1
}

// dsDead mirrors mem.Memory.IdleDisabledAt's predicate under the
// timeout-disable policy.
func (f *frontEnd) dsDead(bank int, t simtime.Seconds) bool {
	if !f.dsEnabled[bank] {
		return true
	}
	return f.dsLastTouch[bank]+f.cfg.MemSpec.DisableTimeout <= t
}

// closePeriod runs the disable-policy sweep (the back-end recomputes the
// same sweep from its own memory state, so only the invalidation count
// is recorded) and seals the period's counters.
func (f *frontEnd) closePeriod(t simtime.Seconds) {
	if f.dsEnabled != nil {
		timeout := f.cfg.MemSpec.DisableTimeout
		for b := range f.dsEnabled {
			if f.dsEnabled[b] && f.dsLastTouch[b]+timeout <= t {
				f.period.invalidated += f.cache.InvalidateBank(b)
				f.dsEnabled[b] = false
			}
		}
	}
	f.period.end = t
	f.rec.periods = append(f.rec.periods, f.period)
	f.period = periodRec{}
}
