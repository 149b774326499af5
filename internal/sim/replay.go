package sim

import (
	"fmt"
	"sync"

	"jointpm/internal/disk"
	"jointpm/internal/mem"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
)

// Replay runs the power back-end for one method over the recorded
// stream: the memory power model under the method's bank policy, the
// disk model under its spin-down policy, and the same period/warmup
// windowing as the fused engine. The method must share the recording's
// memory configuration (SharedCacheKey); the result is bit-identical
// (reflect.DeepEqual) to sim.Run of the same config.
//
// The memory model never sees the disk, so the recording meters memory
// once per bank policy and enabled-bank count (a memory pass) and keeps
// only what a result reads of it: each boundary's energy and enabled
// banks, and the final energy. Every replay sharing that pass runs only
// the disk model. A Fig. 7 point thus makes 7 memory passes for its 15
// replays.
//
// The period and warmup windows are inherited from the recording's
// config: they are reporting windows, fixed per sweep point, not part of
// the method. A recording may be replayed concurrently from multiple
// goroutines: the stream is read-only during replay, and a replay that
// needs a memory pass another replay is running waits for it.
func (rec *Recording) Replay(m policy.Method) (*Result, error) {
	cfg := rec.cfg
	cfg.Method = m
	if cfg.Method.MemBytes == 0 {
		cfg.Method.MemBytes = cfg.InstalledMem
	}
	if cfg.Method.MemBytes > cfg.InstalledMem {
		return nil, fmt.Errorf("sim: method memory %v exceeds installed %v", cfg.Method.MemBytes, cfg.InstalledMem)
	}
	key, ok := SharedCacheKey(cfg.Method, cfg.InstalledMem)
	if !ok {
		return nil, fmt.Errorf("sim: method %s cannot replay a shared recording", cfg.Method.Name())
	}
	if key != rec.key {
		return nil, fmt.Errorf("sim: method %s (memory config %+v) does not match recording %+v",
			cfg.Method.Name(), key, rec.key)
	}
	return newBackEnd(cfg, rec, rec.meter(memKeyOf(cfg))).run()
}

// memKey identifies a memory pass: the bank policy and how many banks a
// fixed-size method keeps enabled. Within one recording the banks follow
// from its CacheKey, so the policy alone tells the passes apart.
type memKey struct {
	policy mem.BankPolicy
	banks  int
}

func memKeyOf(cfg Config) memKey {
	k := memKey{policy: cfg.Method.Mem.BankPolicy(), banks: int(cfg.InstalledMem / cfg.BankSize)}
	if cfg.Method.Mem == policy.MemFixedNap && cfg.Method.MemBytes < cfg.InstalledMem {
		k.banks = max(int(cfg.Method.MemBytes/cfg.BankSize), 1)
	}
	return k
}

// memPass is one memory pass over a recording: what the disk passes read
// of the memory model, and nothing else.
type memPass struct {
	key    memKey
	once   sync.Once
	bounds []memBound // one per recorded period boundary
	final  mem.Energy // after FinishTo(end)
}

// memBound is the memory model's state at one period boundary, after
// the boundary's FinishTo.
type memBound struct {
	energy mem.Energy
	banks  int
}

// meter returns the recording's memory pass for k, running it on first
// use. Concurrent callers with one key share a single run.
func (rec *Recording) meter(k memKey) *memPass {
	rec.memMu.Lock()
	var mp *memPass
	for _, p := range rec.mems {
		if p.key == k {
			mp = p
			break
		}
	}
	if mp == nil {
		if n := len(rec.spareMems); n > 0 {
			mp = rec.spareMems[n-1]
			rec.spareMems = rec.spareMems[:n-1]
		} else {
			mp = new(memPass)
		}
		mp.key = k
		rec.mems = append(rec.mems, mp)
	}
	rec.memMu.Unlock()
	mp.once.Do(func() { mp.run(rec) })
	return mp
}

// run meters the recorded memory events. It makes the memory-model calls
// the fused engine makes, in its order: each request's bank touches and
// lazy disables; at each boundary the period's dynamic energy, the
// disable sweep and FinishTo; then the tail's touches and dynamic energy
// and FinishTo(end). The memory model accumulates static energy into one
// shared float, so that order is part of bit-identical replay.
func (mp *memPass) run(rec *Recording) {
	cfg := &rec.cfg
	m := mem.New(cfg.MemSpec, int(cfg.InstalledMem/cfg.BankSize), mp.key.policy)
	if mp.key.banks < m.Banks() {
		m.SetEnabledBanks(0, mp.key.banks)
	}
	pageSize := cfg.Trace.PageSize
	reqC := chunkCursor[reqRec]{list: &rec.reqs}
	opC := chunkCursor[memOp]{list: &rec.ops}
	replay := func(p *periodRec) {
		for r := int64(0); r < p.reqs; r++ {
			req := reqC.next()
			for j := int32(0); j < req.ops; j++ {
				op := *opC.next()
				bank := int(op &^ opMark)
				if op&opMark != 0 {
					m.MarkIdleDisabled(bank, req.time)
				} else {
					m.Touch(bank, req.time)
				}
			}
		}
		// The fused engine charges dynamic energy per access; AddDynamicN
		// returns the float of one addition per access, not n·e.
		m.AddDynamicN(pageSize, p.cacheAcc)
	}
	for pi := range rec.periods {
		p := &rec.periods[pi]
		replay(p)
		// The disable sweep (nil under the other policies): the front end
		// made the same sweep on its bank clock and recorded only the
		// cache-side invalidation count.
		for _, bank := range m.SweepIdleDisabled(p.end) {
			m.MarkIdleDisabled(bank, p.end)
		}
		m.FinishTo(p.end)
		mp.bounds = append(mp.bounds, memBound{energy: m.Energy(), banks: m.EnabledBanks()})
	}
	replay(&rec.tail)
	m.FinishTo(rec.end)
	mp.final = m.Energy()
}

// backEnd is the disk half of a split run. Its fields and accounting
// mirror engine exactly, minus the cache/stack/manager state that lives
// in the front-end and the memory model, whose values it reads from the
// memory pass; the equivalence tests in split_test.go pin the two
// implementations together.
type backEnd struct {
	cfg      Config
	rec      *Recording
	mp       *memPass
	pageSize simtime.Bytes

	disk *disk.Disk

	obsm engineMetrics

	res Result

	// period windowing
	lastDiskStats  disk.Stats
	lastDiskEnergy disk.Energy
	lastMemEnergy  mem.Energy
	periodDelayed  int64
	lastPageMisses int64

	// warmup snapshot, subtracted from the final result
	warmupTaken bool
	wDiskStats  disk.Stats
	wDiskEnergy disk.Energy
	wMemEnergy  mem.Energy
	wResult     Result
}

func newBackEnd(cfg Config, rec *Recording, mp *memPass) *backEnd {
	b := &backEnd{
		cfg:      cfg,
		rec:      rec,
		mp:       mp,
		pageSize: cfg.Trace.PageSize,
		obsm:     newEngineMetrics(cfg.Metrics),
	}
	b.disk = disk.New(cfg.DiskSpec, cfg.LongLatency)
	b.disk.SetMetrics(diskMetrics(cfg.Metrics))
	b.disk.SetIdleRecorder(func(gap simtime.Seconds) {
		b.res.OracleDiskPM += cfg.DiskSpec.OracleGapEnergy(gap)
	})

	switch cfg.Method.Disk {
	case policy.DiskAlwaysOn:
		// timeout stays +Inf
	case policy.DiskTwoCompetitive:
		b.disk.SetTimeout(0, cfg.DiskSpec.BreakEven())
	case policy.DiskAdaptive:
		policy.NewAdaptiveTimeout(b.disk)
	case policy.DiskPredictive:
		policy.NewPredictiveShutdown(b.disk)
	}
	b.res.Method = cfg.Method
	return b
}

func (b *backEnd) run() (*Result, error) {
	reqC := chunkCursor[reqRec]{list: &b.rec.reqs}
	runC := chunkCursor[missRun]{list: &b.rec.runs}

	for pi := range b.rec.periods {
		p := &b.rec.periods[pi]
		for r := int64(0); r < p.reqs; r++ {
			b.serve(reqC.next(), &runC)
		}
		b.closePeriod(p, b.mp.bounds[pi])
	}
	tail := &b.rec.tail
	for r := int64(0); r < tail.reqs; r++ {
		b.serve(reqC.next(), &runC)
	}
	b.addPeriodCounts(tail)
	b.finish(b.rec.end)
	// A copy: a pointer into b would keep the back end and the recording
	// reachable.
	res := b.res
	return &res, nil
}

// serve replays one client request's coalesced miss runs against the
// disk, where the spin-down policies diverge. Its memory ops are the
// memory pass's.
func (b *backEnd) serve(r *reqRec, runC *chunkCursor[missRun]) {
	t := r.time
	var maxFinish simtime.Seconds
	for j := int32(0); j < r.runs; j++ {
		run := runC.next()
		size := simtime.Bytes(run.n) * b.pageSize
		finish, _ := b.disk.Submit(t, size)
		if finish > maxFinish {
			maxFinish = finish
		}
		b.res.DiskRequests++
		b.res.DiskAccesses += int64(run.n)
	}
	if maxFinish > t {
		lat := maxFinish - t
		b.res.TotalLatency += lat
		if lat > b.cfg.LongLatency {
			b.res.Delayed++
			b.periodDelayed++
			b.obsm.delayed.Inc()
		}
	}
}

// addPeriodCounts folds one period's recorded access counters into the
// result and telemetry. The fused engine accumulates these per access;
// adding them in one batch at the boundary leaves every boundary-time
// value identical.
func (b *backEnd) addPeriodCounts(p *periodRec) {
	b.res.ClientRequests += p.clientReqs
	b.res.CacheAccesses += p.cacheAcc
	b.obsm.clientRequests.Add(p.clientReqs)
	b.obsm.cacheHits.Add(p.cacheAcc - p.misses)
	b.obsm.cacheMisses.Add(p.misses)
	b.obsm.hitBytes.Add((p.cacheAcc - p.misses) * int64(b.pageSize))
	b.obsm.missBytes.Add(p.misses * int64(b.pageSize))
	b.obsm.invalidated.Add(p.invalidated)
}

// closePeriod mirrors engine.closePeriod for the non-joint methods; mb is
// the memory model at the same boundary.
func (b *backEnd) closePeriod(p *periodRec, mb memBound) {
	t := p.end
	b.addPeriodCounts(p)

	b.disk.FinishTo(t)

	ds := b.disk.Stats()
	w := ds.Sub(b.lastDiskStats)
	de := b.disk.Energy()
	me := mb.energy
	b.obsm.periods.Inc()
	b.obsm.periodDiskEnergy.Set(float64(de.Total() - b.lastDiskEnergy.Total()))
	b.obsm.periodMemEnergy.Set(float64(me.Total() - b.lastMemEnergy.Total()))
	b.obsm.periodTransEnergy.Set(float64(
		(de.Transition - b.lastDiskEnergy.Transition) +
			(me.Transition - b.lastMemEnergy.Transition)))
	b.obsm.periodDelayed.Set(float64(b.periodDelayed))
	b.obsm.periodUtil.Observe(float64(w.BusyTime) / float64(b.cfg.Period))
	stat := PeriodStat{
		Start:         t - b.cfg.Period,
		End:           t,
		CacheAccesses: p.cacheAcc,
		DiskAccesses:  b.res.DiskAccesses - b.lastPageMisses,
		DiskRequests:  w.Requests,
		Utilization:   float64(w.BusyTime) / float64(b.cfg.Period),
		MeanIdle:      w.MeanIdle(),
		Delayed:       b.periodDelayed,
		Energy:        de.Total() + me.Total() - b.lastDiskEnergy.Total() - b.lastMemEnergy.Total(),
		Banks:         mb.banks,
		Timeout:       b.disk.Timeout(),
	}
	b.obsm.periodBanks.Set(float64(stat.Banks))

	if t > b.cfg.Warmup {
		b.res.Periods = append(b.res.Periods, stat)
	} else if t == b.cfg.Warmup {
		b.warmupTaken = true
		b.wDiskStats = ds
		b.wDiskEnergy = de
		b.wMemEnergy = me
		b.wResult = b.res
	}
	b.lastDiskStats = ds
	b.lastDiskEnergy = de
	b.lastMemEnergy = me
	b.lastPageMisses = b.res.DiskAccesses
	b.periodDelayed = 0
}

// finish mirrors engine.finish.
func (b *backEnd) finish(end simtime.Seconds) {
	b.disk.FinishTo(end)
	b.res.DiskEnergy = b.disk.Energy()
	b.res.MemEnergy = b.mp.final
	ds := b.disk.Stats()

	start := simtime.Seconds(0)
	if b.warmupTaken {
		start = b.cfg.Warmup
		b.res.DiskEnergy = b.res.DiskEnergy.Sub(b.wDiskEnergy)
		b.res.MemEnergy = b.res.MemEnergy.Sub(b.wMemEnergy)
		ds = ds.Sub(b.wDiskStats)
		b.res.ClientRequests -= b.wResult.ClientRequests
		b.res.CacheAccesses -= b.wResult.CacheAccesses
		b.res.DiskAccesses -= b.wResult.DiskAccesses
		b.res.DiskRequests -= b.wResult.DiskRequests
		b.res.TotalLatency -= b.wResult.TotalLatency
		b.res.Delayed -= b.wResult.Delayed
		b.res.OracleDiskPM -= b.wResult.OracleDiskPM
	}
	b.res.Duration = end - start
	if b.res.Duration > 0 {
		b.res.Utilization = float64(ds.BusyTime) / float64(b.res.Duration)
	}
}
