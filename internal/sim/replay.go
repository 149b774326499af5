package sim

import (
	"fmt"

	"jointpm/internal/disk"
	"jointpm/internal/mem"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
)

// Replay runs the power back-end for one method over the recorded
// stream: the disk model under the method's spin-down policy, the memory
// power model under the method's bank policy, and the same period/warmup
// windowing as the fused engine. The method must share the recording's
// memory configuration (SharedCacheKey); the result is bit-identical
// (reflect.DeepEqual) to sim.Run of the same config.
//
// The period and warmup windows are inherited from the recording's
// config: they are reporting windows, fixed per sweep point, not part of
// the method. A recording may be replayed concurrently from multiple
// goroutines; the stream is read-only during replay.
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
	return newBackEnd(cfg, rec).run()
}

// backEnd is the power half of a split run. Its fields and accounting
// mirror engine exactly, minus the cache/stack/manager state that lives
// in the front-end; the equivalence tests in split_test.go pin the two
// implementations together.
type backEnd struct {
	cfg      Config
	rec      *Recording
	pageSize simtime.Bytes

	disk *disk.Disk
	mem  *mem.Memory

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

func newBackEnd(cfg Config, rec *Recording) *backEnd {
	totalBanks := int(cfg.InstalledMem / cfg.BankSize)
	b := &backEnd{
		cfg:      cfg,
		rec:      rec,
		pageSize: cfg.Trace.PageSize,
		obsm:     newEngineMetrics(cfg.Metrics),
	}
	b.disk = disk.New(cfg.DiskSpec, cfg.LongLatency)
	b.mem = mem.New(cfg.MemSpec, totalBanks, cfg.Method.Mem.BankPolicy())
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

	if cfg.Method.Mem == policy.MemFixedNap && cfg.Method.MemBytes < cfg.InstalledMem {
		banks := int(cfg.Method.MemBytes / cfg.BankSize)
		if banks < 1 {
			banks = 1
		}
		b.mem.SetEnabledBanks(0, banks)
	}
	b.res.Method = cfg.Method
	return b
}

func (b *backEnd) run() (*Result, error) {
	reqC := chunkCursor[reqRec]{list: &b.rec.reqs}
	runC := chunkCursor[missRun]{list: &b.rec.runs}
	opC := chunkCursor[memOp]{list: &b.rec.ops}

	for pi := range b.rec.periods {
		p := &b.rec.periods[pi]
		for r := int64(0); r < p.reqs; r++ {
			b.serve(reqC.next(), &runC, &opC)
		}
		b.closePeriod(p)
	}
	tail := &b.rec.tail
	for r := int64(0); r < tail.reqs; r++ {
		b.serve(reqC.next(), &runC, &opC)
	}
	b.addPeriodCounts(tail)
	b.finish(b.rec.end)
	// A copy: a pointer into b would keep the back end and the recording
	// reachable.
	res := b.res
	return &res, nil
}

// serve replays one client request: the coalesced miss runs against the
// disk (where the spin-down policies diverge) and the recorded memory
// ops in order (the memory model's static-energy accumulator is shared
// across banks, so settle order is part of bit-identical replay).
func (b *backEnd) serve(r *reqRec, runC *chunkCursor[missRun], opC *chunkCursor[memOp]) {
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
	for j := int32(0); j < r.ops; j++ {
		op := *opC.next()
		bank := int(op &^ opMark)
		if op&opMark != 0 {
			b.mem.MarkIdleDisabled(bank, t)
		} else {
			b.mem.Touch(bank, t)
		}
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
// result and telemetry, and charges the period's dynamic memory energy.
// The fused engine accumulates these per access; adding them in one
// batch at the boundary leaves every boundary-time value identical.
// Dynamic energy is charged as one identical addition per access — not
// the closed form n·e, which rounds differently.
func (b *backEnd) addPeriodCounts(p *periodRec) {
	b.res.ClientRequests += p.clientReqs
	b.res.CacheAccesses += p.cacheAcc
	b.obsm.clientRequests.Add(p.clientReqs)
	b.obsm.cacheHits.Add(p.cacheAcc - p.misses)
	b.obsm.cacheMisses.Add(p.misses)
	b.obsm.hitBytes.Add((p.cacheAcc - p.misses) * int64(b.pageSize))
	b.obsm.missBytes.Add(p.misses * int64(b.pageSize))
	b.obsm.invalidated.Add(p.invalidated)
	for i := int64(0); i < p.cacheAcc; i++ {
		b.mem.AddDynamic(b.pageSize)
	}
}

// closePeriod mirrors engine.closePeriod for the non-joint methods.
func (b *backEnd) closePeriod(p *periodRec) {
	t := p.end
	b.addPeriodCounts(p)

	b.disk.FinishTo(t)

	// Disable-policy sweep: the back-end's memory state matches the
	// front-end's bank clock, so it recomputes the same sweep set; only
	// the cache-side invalidation count needed recording.
	if b.cfg.Method.Mem == policy.MemDisable {
		for _, bank := range b.mem.SweepIdleDisabled(t) {
			b.mem.MarkIdleDisabled(bank, t)
		}
	}
	b.mem.FinishTo(t)

	ds := b.disk.Stats()
	w := ds.Sub(b.lastDiskStats)
	de := b.disk.Energy()
	me := b.mem.Energy()
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
		Banks:         b.mem.EnabledBanks(),
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
	b.mem.FinishTo(end)
	b.res.DiskEnergy = b.disk.Energy()
	b.res.MemEnergy = b.mem.Energy()
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
