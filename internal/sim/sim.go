// Package sim is the discrete-event engine that plays a disk-cache access
// trace through the full stack — page cache, memory power model, disk
// model, and a power-management method — and collects the metrics the
// paper's evaluation reports: energy split by component, request latency,
// disk utilization, long-latency request rate, and access counts, both
// cumulative and per adaptation period (Fig. 6(b)).
package sim

import (
	"fmt"
	"math"

	"jointpm/internal/cache"
	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/drpm"
	"jointpm/internal/mem"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	Trace  *trace.Trace
	Method policy.Method

	InstalledMem simtime.Bytes // physical memory ceiling (paper: 128 GB)
	BankSize     simtime.Bytes // resize granularity (paper: 16 MB)
	DiskSpec     disk.Spec
	MemSpec      mem.Spec // zero value means mem.RDRAM(BankSize)

	Period      simtime.Seconds // adaptation/metrics period (paper: 600 s)
	LongLatency simtime.Seconds // "long latency" threshold (paper: 0.5 s)

	// Warmup excludes the initial cache-population phase from the
	// reported metrics: the simulation runs normally (policies adapt,
	// energy flows) but Result counters and period stats start after this
	// span. The paper's traces were collected from a running server, so a
	// cold page cache is an artifact of simulation start, not workload.
	// Rounded up to a whole number of periods.
	Warmup simtime.Seconds

	// Joint overrides selected core parameters; zero fields keep the
	// defaults derived from this config.
	Joint *core.Params

	// RefitDriftFrac, when positive, activates the joint manager's
	// steady-state refit shortcut: a period whose re-priced previous
	// decision drifts no more than this fraction in total power is held
	// without a full slate search (core.DefaultRefitDriftFrac is the
	// recommended value). Zero re-evaluates the full slate every period.
	RefitDriftFrac float64

	// SpeedLevels, when ≥ 2, gives the joint method a DRPM speed ladder:
	// drpm.DeriveLevels builds that many levels from the disk spec, the
	// slate prices every candidate at every level, and the engine applies
	// the chosen level to the disk model at each boundary. 0 or 1 keeps
	// the single-speed drive and is bit-identical to a build without the
	// speed dimension. Incompatible with Zoned (the zoned service model
	// has no per-level mechanics).
	SpeedLevels int

	// Zoned, when set, replaces the flat service model with the zoned
	// disk: media rate varies by platter zone and seek time by head
	// travel. The data set is laid out spread uniformly across the
	// platter. Power management is unaffected (the spec's power fields
	// are taken from Zoned.Spec).
	Zoned *disk.ZonedSpec

	// DiskFaults and MemFaults inject scripted failures into the disk
	// and memory models (see internal/fault); nil disables injection.
	// The engine only ever nil-checks these, so the fault-free path is
	// byte-identical with or without the fields present. Injectors keep
	// per-run op counters and must not be shared across concurrent runs.
	DiskFaults disk.FaultInjector
	MemFaults  mem.FaultInjector

	// Metrics receives run telemetry from the engine, the disk model,
	// and (for the joint method) the power manager; nil disables
	// collection. Metric names are catalogued in DESIGN.md.
	Metrics *obs.Registry

	// DecisionTrace journals the joint manager's per-period decisions
	// as JSONL; nil disables it. The engine does not close the sink —
	// the caller that opened it flushes it on exit.
	DecisionTrace *obs.DecisionSink

	// Flight, when non-nil, receives one flight.PeriodRecord per
	// adaptation period carrying the *measured* energy split from the
	// disk and memory models (the daemon's recorder carries the priced
	// split instead — comparing the two is how a model drift is
	// caught). For the joint method the record also carries the
	// manager's ingest/decide span timings. A recorder must not be
	// shared across concurrent runs.
	Flight *flight.Recorder
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Trace == nil {
		return cfg, fmt.Errorf("sim: no trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return cfg, err
	}
	if cfg.InstalledMem <= 0 {
		cfg.InstalledMem = 128 * simtime.GB
	}
	if cfg.BankSize <= 0 {
		cfg.BankSize = 16 * simtime.MB
	}
	if cfg.Zoned != nil {
		cfg.DiskSpec = cfg.Zoned.Spec
	}
	if cfg.DiskSpec == (disk.Spec{}) {
		cfg.DiskSpec = disk.Barracuda()
	}
	if cfg.MemSpec == (mem.Spec{}) {
		cfg.MemSpec = mem.RDRAM(cfg.BankSize)
	}
	if cfg.Period <= 0 {
		cfg.Period = 600
	}
	if cfg.LongLatency <= 0 {
		cfg.LongLatency = 0.5
	}
	if cfg.Warmup < 0 {
		return cfg, fmt.Errorf("sim: negative warmup %v", cfg.Warmup)
	}
	if cfg.Warmup > 0 {
		periods := math.Ceil(float64(cfg.Warmup) / float64(cfg.Period))
		cfg.Warmup = simtime.Seconds(periods) * cfg.Period
	}
	ps := cfg.Trace.PageSize
	if cfg.BankSize%ps != 0 {
		return cfg, fmt.Errorf("sim: bank size %v not a multiple of page size %v", cfg.BankSize, ps)
	}
	if cfg.InstalledMem%cfg.BankSize != 0 {
		return cfg, fmt.Errorf("sim: installed memory %v not a multiple of bank size %v", cfg.InstalledMem, cfg.BankSize)
	}
	if frames := int64(cfg.InstalledMem / ps); frames > cache.MaxFrames {
		return cfg, fmt.Errorf("sim: installed memory %v is %d pages of %v; the page cache holds at most %d (2^31-1)",
			cfg.InstalledMem, frames, ps, int64(cache.MaxFrames))
	}
	if cfg.Method.MemBytes == 0 {
		cfg.Method.MemBytes = cfg.InstalledMem
	}
	if cfg.Method.MemBytes > cfg.InstalledMem {
		return cfg, fmt.Errorf("sim: method memory %v exceeds installed %v", cfg.Method.MemBytes, cfg.InstalledMem)
	}
	if cfg.SpeedLevels > 1 && cfg.Zoned != nil {
		return cfg, fmt.Errorf("sim: speed levels unsupported with zoned disk")
	}
	return cfg, nil
}

// PeriodStat is one adaptation period's window of metrics (Fig. 9 and the
// joint manager's introspection).
type PeriodStat struct {
	Start, End    simtime.Seconds
	CacheAccesses int64 // page references into the disk cache
	DiskAccesses  int64 // page misses
	DiskRequests  int64 // coalesced requests submitted to the disk
	Utilization   float64
	MeanIdle      simtime.Seconds
	Delayed       int64 // long-latency client requests
	Energy        simtime.Joules
	Banks         int             // enabled banks at period end
	Timeout       simtime.Seconds // disk timeout at period end
	Decision      *core.Decision  // joint method only
}

// Result is the outcome of one run.
type Result struct {
	Method   policy.Method
	Duration simtime.Seconds

	DiskEnergy disk.Energy
	MemEnergy  mem.Energy

	ClientRequests int64
	CacheAccesses  int64 // N over the whole run (page references)
	DiskAccesses   int64 // page misses (Table III "disk accesses")
	DiskRequests   int64
	TotalLatency   simtime.Seconds
	Delayed        int64 // client requests with latency > LongLatency
	Utilization    float64

	// OracleDiskPM is the offline-optimal spin-down cost over the same
	// idle gaps: Σ min(p_d·gap, E_transition). It lower-bounds what any
	// timeout policy could have spent on static+transition energy (the
	// oracle of Lu et al.'s comparison, which the paper's policy choices
	// are justified against).
	OracleDiskPM simtime.Joules

	Periods []PeriodStat
}

// TotalEnergy returns disk + memory energy.
func (r *Result) TotalEnergy() simtime.Joules {
	return r.DiskEnergy.Total() + r.MemEnergy.Total()
}

// MeanLatency returns the average client-request latency.
func (r *Result) MeanLatency() simtime.Seconds {
	if r.ClientRequests == 0 {
		return 0
	}
	return r.TotalLatency / simtime.Seconds(r.ClientRequests)
}

// DelayedPerSecond returns the rate of long-latency client requests.
func (r *Result) DelayedPerSecond() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Delayed) / float64(r.Duration)
}

// Run executes the simulation.
func Run(c Config) (*Result, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// engine holds the per-run state.
type engine struct {
	cfg          Config
	pageSize     simtime.Bytes
	pagesPerBank int64

	cache    *cache.PageCache
	resident cache.Run // a resident request's frames and banks
	disk     *disk.Disk
	mem      *mem.Memory

	adaptive *policy.AdaptiveTimeout
	manager  *core.Manager
	curBanks int // banks actually enabled (≠ decision under fault injection)

	zoned    *disk.ZonedDisk
	lbaScale float64

	obsm engineMetrics

	res Result

	// period windowing
	periodIdx      int
	lastDiskStats  disk.Stats
	lastDiskEnergy disk.Energy
	lastMemEnergy  mem.Energy
	periodCacheAcc int64
	periodDelayed  int64
	lastPageMisses int64

	// flight-record inputs: latency delta for the measured ledger, and
	// the manager's span timings accumulated since the last boundary
	// (fed by the SpanHook installed when a recorder is attached).
	lastTotalLatency simtime.Seconds
	spanIngestNs     int64
	spanDecideNs     int64

	// warmup snapshot, subtracted from the final result
	warmupTaken bool
	wDiskStats  disk.Stats
	wDiskEnergy disk.Energy
	wMemEnergy  mem.Energy
	wResult     Result
}

func newEngine(cfg Config) (*engine, error) {
	ps := cfg.Trace.PageSize
	pagesPerBank := int64(cfg.BankSize / ps)
	installedFrames := int64(cfg.InstalledMem / ps)
	totalBanks := int(cfg.InstalledMem / cfg.BankSize)

	e := &engine{
		cfg:          cfg,
		pageSize:     ps,
		pagesPerBank: pagesPerBank,
		obsm:         newEngineMetrics(cfg.Metrics),
	}
	e.cache = cache.New(installedFrames, pagesPerBank)
	if cfg.Zoned != nil {
		e.zoned = disk.NewZoned(*cfg.Zoned, cfg.LongLatency)
		e.disk = e.zoned.Disk
		// LBA scale spreads the data set across the whole platter.
		if cfg.Trace.DataSetBytes > 0 {
			e.lbaScale = float64(cfg.Zoned.Capacity) / float64(cfg.Trace.DataSetBytes)
		}
	} else {
		e.disk = disk.New(cfg.DiskSpec, cfg.LongLatency)
	}
	e.mem = mem.New(cfg.MemSpec, totalBanks, cfg.Method.Mem.BankPolicy())
	if cfg.DiskFaults != nil {
		e.disk.SetFaults(cfg.DiskFaults)
	}
	if cfg.MemFaults != nil {
		e.mem.SetFaults(cfg.MemFaults)
	}
	e.disk.SetMetrics(diskMetrics(cfg.Metrics))
	e.disk.SetIdleRecorder(func(gap simtime.Seconds) {
		e.res.OracleDiskPM += cfg.DiskSpec.OracleGapEnergy(gap)
	})

	switch cfg.Method.Disk {
	case policy.DiskAlwaysOn:
		// timeout stays +Inf
	case policy.DiskTwoCompetitive:
		e.disk.SetTimeout(0, cfg.DiskSpec.BreakEven())
	case policy.DiskAdaptive:
		e.adaptive = policy.NewAdaptiveTimeout(e.disk)
	case policy.DiskPredictive:
		policy.NewPredictiveShutdown(e.disk)
	case policy.DiskJoint:
		e.disk.SetTimeout(0, cfg.DiskSpec.BreakEven())
	}

	if cfg.Method.Mem == policy.MemFixedNap && cfg.Method.MemBytes < cfg.InstalledMem {
		// Fixed-size methods start (and stay) with only MemBytes enabled.
		banks := int(cfg.Method.MemBytes / cfg.BankSize)
		if banks < 1 {
			banks = 1
		}
		// The cache sizes to whatever prefix the memory model actually
		// achieved — with fault injection a bank enable can fail, and the
		// cache must not hold pages in dead banks.
		achieved := e.mem.SetEnabledBanks(0, banks)
		e.cache.Resize(int64(achieved) * pagesPerBank)
	}

	if cfg.Method.IsJoint() {
		p := core.DefaultParams(ps, cfg.BankSize, totalBanks, cfg.DiskSpec, cfg.MemSpec)
		p.Period = cfg.Period
		p.LongLatency = cfg.LongLatency
		if cfg.SpeedLevels > 1 {
			// Speed slate: one ladder shared by the pricing (manager) and
			// the mechanics/energy (disk model).
			lad := drpm.DeriveLevels(cfg.DiskSpec, 0, cfg.SpeedLevels)
			p.SpeedLevels = lad.Levels
			p.SpeedTransitionPerRPM = lad.TransitionPerRPM
			e.disk.SetSpeedLevels(lad.Levels, lad.TransitionPerRPM)
		}
		if cfg.Joint != nil {
			p = core.MergeParams(p, *cfg.Joint)
		}
		if cfg.RefitDriftFrac > 0 {
			p.RefitDriftFrac = cfg.RefitDriftFrac
		}
		if cfg.Metrics != nil {
			p.Metrics = cfg.Metrics
		}
		if cfg.DecisionTrace != nil {
			p.DecisionTrace = cfg.DecisionTrace
		}
		if cfg.Flight.Enabled() {
			// Accumulate the manager's span timings for the period's
			// flight record; chain to any caller-installed hook. Timing
			// never feeds back into decisions, so golden traces are
			// unaffected.
			prev := p.SpanHook
			p.SpanHook = func(span string, ns int64) {
				switch span {
				case core.SpanIngest:
					e.spanIngestNs += ns
				case core.SpanDecide:
					e.spanDecideNs = ns
				}
				if prev != nil {
					prev(span, ns)
				}
			}
		}
		mgr, err := core.NewManager(p)
		if err != nil {
			return nil, err
		}
		e.manager = mgr
		e.curBanks = totalBanks
	}
	e.res.Method = cfg.Method
	return e, nil
}

func (e *engine) run() (*Result, error) {
	tr := e.cfg.Trace
	period := e.cfg.Period
	nextBoundary := period

	for i := range tr.Requests {
		req := &tr.Requests[i]
		for req.Time >= nextBoundary {
			e.closePeriod(nextBoundary)
			nextBoundary += period
		}
		e.serve(req)
	}
	end := tr.Duration
	if n := len(tr.Requests); n > 0 && tr.Requests[n-1].Time > end {
		end = tr.Requests[n-1].Time
	}
	for nextBoundary <= end {
		e.closePeriod(nextBoundary)
		nextBoundary += period
	}
	e.finish(end)
	// A copy: a pointer into e would keep the whole engine reachable.
	res := e.res
	return &res, nil
}

// serve plays one client request: page-by-page cache lookup with lazy
// disable checks, miss-run coalescing into disk requests, and latency
// accounting at the client level.
func (e *engine) serve(req *trace.Request) {
	t := req.Time
	e.res.ClientRequests++
	e.obsm.clientRequests.Inc()

	var (
		runStart  int64 = -1
		runLen    int64
		maxFinish simtime.Seconds
	)
	flush := func() {
		if runLen == 0 {
			return
		}
		size := simtime.Bytes(runLen) * e.pageSize
		var finish simtime.Seconds
		if e.zoned != nil {
			lba := simtime.Bytes(float64(runStart*int64(e.pageSize)) * e.lbaScale)
			finish, _ = e.zoned.SubmitAt(t, lba, size)
		} else {
			finish, _ = e.disk.Submit(t, size)
		}
		if finish > maxFinish {
			maxFinish = finish
		}
		e.res.DiskRequests++
		runStart, runLen = -1, 0
	}

	if e.manager != nil {
		// The manager's stack sees the request before the cache does;
		// it does not read the cache, so the order is free. The manager
		// charges its PageSize, the trace's, per page.
		e.manager.Reference(t, req.FirstPage, int(req.Pages))
	}
	if e.serveResident(req) {
		return
	}
	for k := int32(0); k < req.Pages; k++ {
		page := req.FirstPage + int64(k)
		e.res.CacheAccesses++
		e.periodCacheAcc++

		hit := e.lookup(page, t)
		if hit {
			e.obsm.cacheHits.Inc()
			e.obsm.hitBytes.Add(int64(e.pageSize))
			flush()
			continue
		}
		// Miss: fetch from disk (coalesced) and install.
		e.obsm.cacheMisses.Inc()
		e.obsm.missBytes.Add(int64(e.pageSize))
		e.res.DiskAccesses++
		if runLen > 0 && page == runStart+runLen {
			runLen++
		} else {
			flush()
			runStart, runLen = page, 1
		}
		frame, _ := e.cache.Insert(page)
		e.mem.Touch(e.cache.BankOf(frame), t)
		e.mem.AddDynamic(e.pageSize)
	}
	flush()

	if maxFinish > t {
		lat := maxFinish - t
		e.res.TotalLatency += lat
		if lat > e.cfg.LongLatency {
			e.res.Delayed++
			e.periodDelayed++
			e.obsm.delayed.Inc()
		}
	}
}

// serveResident serves a request whose pages the cache holds as one LRU
// run (cache.ResidentRun): the per-page loop's memory touches in page
// order, less its repeats of the bank just touched (at one time a repeat
// changes nothing), its dynamic energy and counters as whole counts, and
// one splice for its Promote calls. A hit needs no disk, so there is no
// latency. Under the disable policy a run with a dead bank is left to the
// per-page loop, checked before anything changes; that loop meets the
// same bank.
func (e *engine) serveResident(req *trace.Request) bool {
	if !e.cache.ResidentRun(&e.resident, req.FirstPage, int64(req.Pages)) {
		return false
	}
	t := req.Time
	if e.cfg.Method.Mem == policy.MemDisable {
		for _, b := range e.resident.Banks {
			if _, dead := e.mem.IdleDisabledAt(b, t); dead {
				return false
			}
		}
	}
	for _, b := range e.resident.Banks {
		e.mem.Touch(b, t)
	}
	e.cache.PromoteRun(&e.resident)
	n := int64(req.Pages)
	e.mem.AddDynamicN(e.pageSize, n)
	e.res.CacheAccesses += n
	e.periodCacheAcc += n
	e.obsm.cacheHits.Add(n)
	e.obsm.hitBytes.Add(n * int64(e.pageSize))
	return true
}

// lookup resolves one page against the cache, honouring lazy
// disable-policy invalidation, and meters the memory access on a hit.
func (e *engine) lookup(page int64, t simtime.Seconds) bool {
	frame, hit := e.cache.Peek(page)
	if !hit {
		return false
	}
	bank := e.cache.BankOf(frame)
	if _, dead := e.mem.IdleDisabledAt(bank, t); dead {
		// The bank's disable timeout expired before this access: its data
		// is gone. Invalidate and treat as a miss.
		e.obsm.invalidated.Add(e.cache.InvalidateBank(bank))
		e.mem.MarkIdleDisabled(bank, t)
		return false
	}
	e.cache.Promote(frame) // LRU touch
	e.mem.Touch(bank, t)
	e.mem.AddDynamic(e.pageSize)
	return true
}

// closePeriod settles accounting at a boundary, snapshots the window, and
// lets the joint manager (or the disable sweep) act.
func (e *engine) closePeriod(t simtime.Seconds) {
	e.disk.FinishTo(t)

	// Disable-policy sweep: banks whose timeout expired with no further
	// accesses this period lose their data now (lazy checks cover the
	// banks that do get accessed).
	if e.cfg.Method.Mem == policy.MemDisable {
		for _, b := range e.mem.SweepIdleDisabled(t) {
			e.obsm.invalidated.Add(e.cache.InvalidateBank(b))
			e.mem.MarkIdleDisabled(b, t)
		}
	}
	e.mem.FinishTo(t)

	ds := e.disk.Stats()
	w := ds.Sub(e.lastDiskStats)
	de := e.disk.Energy()
	me := e.mem.Energy()
	e.obsm.periods.Inc()
	e.obsm.periodDiskEnergy.Set(float64(de.Total() - e.lastDiskEnergy.Total()))
	e.obsm.periodMemEnergy.Set(float64(me.Total() - e.lastMemEnergy.Total()))
	e.obsm.periodTransEnergy.Set(float64(
		(de.Transition - e.lastDiskEnergy.Transition) +
			(me.Transition - e.lastMemEnergy.Transition)))
	e.obsm.periodDelayed.Set(float64(e.periodDelayed))
	e.obsm.periodUtil.Observe(float64(w.BusyTime) / float64(e.cfg.Period))
	stat := PeriodStat{
		Start:         t - e.cfg.Period,
		End:           t,
		CacheAccesses: e.periodCacheAcc,
		DiskAccesses:  e.res.DiskAccesses - e.lastPageMisses,
		DiskRequests:  w.Requests,
		Utilization:   float64(w.BusyTime) / float64(e.cfg.Period),
		MeanIdle:      w.MeanIdle(),
		Delayed:       e.periodDelayed,
		Energy:        de.Total() + me.Total() - e.lastDiskEnergy.Total() - e.lastMemEnergy.Total(),
		Banks:         e.mem.EnabledBanks(),
		Timeout:       e.disk.Timeout(),
	}

	// The joint manager holds its safe default through the warmup window:
	// cold-fill-dominated logs show almost no deep reuse, and deciding
	// from them shrinks the cache right before the reuse arrives, paying
	// a staircase of refill storms to climb back. The paper's system
	// manages an already-warm server. The period that ends at Warmup is
	// the first it decides from.
	warmup := t < e.cfg.Warmup
	if e.manager != nil {
		coalesce := 1.0
		if w.Requests > 0 {
			coalesce = float64(stat.DiskAccesses) / float64(w.Requests)
		}
		if dec := e.manager.Close(t, warmup, coalesce, e.curBanks); !warmup {
			stat.Decision = &dec
			// Apply the memory half first: with fault injection a bank
			// enable can fail, truncating the usable contiguous prefix, and
			// the cache must size to what the memory model actually
			// achieved.
			achieved := e.mem.SetEnabledBanks(t, dec.Banks)
			pages := dec.Pages
			if achieved != dec.Banks {
				pages = int64(achieved) * e.pagesPerBank
			}
			e.obsm.resizeEvicted.Add(e.cache.Resize(pages))
			e.disk.SetTimeout(t, dec.Timeout)
			e.disk.SetSpeedLevel(t, dec.Level) // no-op without a ladder
			e.curBanks = achieved
			stat.Banks = achieved
			stat.Timeout = dec.Timeout
		}
	}
	// Measured energy-attribution ledger for the window: component
	// deltas straight from the power models, not the manager's priced
	// estimate.
	led := flight.Ledger{
		MemActiveJ:     float64(me.Dynamic - e.lastMemEnergy.Dynamic),
		MemNapJ:        float64(me.Static - e.lastMemEnergy.Static),
		MemTransitionJ: float64(me.Transition - e.lastMemEnergy.Transition),
		DiskActiveJ:    float64(de.Dynamic + de.StaticOn - e.lastDiskEnergy.Dynamic - e.lastDiskEnergy.StaticOn),
		DiskStandbyJ:   float64(de.Floor - e.lastDiskEnergy.Floor),
		DiskSpinJ:      float64(de.Transition - e.lastDiskEnergy.Transition),
		DelayS:         float64(e.res.TotalLatency - e.lastTotalLatency),
	}
	e.obsm.setEnergySplit(led)
	if e.cfg.Flight.Enabled() {
		e.cfg.Flight.Record(flight.PeriodRecord{
			Disk:     "sim",
			Period:   int64(e.periodIdx) + 1,
			StartS:   obs.Float(stat.Start),
			EndS:     obs.Float(stat.End),
			Refs:     stat.CacheAccesses,
			IngestNs: e.spanIngestNs,
			DecideNs: e.spanDecideNs,
			Banks:    stat.Banks,
			TimeoutS: obs.Float(stat.Timeout),
			Fallback: stat.Decision != nil && stat.Decision.Fallback,
			Warmup:   warmup,
			Energy:   led,
		})
	}
	e.spanIngestNs, e.spanDecideNs = 0, 0
	e.lastTotalLatency = e.res.TotalLatency

	e.obsm.periodBanks.Set(float64(stat.Banks))

	if t > e.cfg.Warmup {
		e.res.Periods = append(e.res.Periods, stat)
	} else if t == e.cfg.Warmup {
		e.takeWarmupSnapshot(ds, de, me)
	}
	e.lastDiskStats = ds
	e.lastDiskEnergy = de
	e.lastMemEnergy = me
	e.lastPageMisses = e.res.DiskAccesses
	e.periodCacheAcc = 0
	e.periodDelayed = 0
	e.periodIdx++
}

// takeWarmupSnapshot freezes the counters accumulated during warmup so
// finish can subtract them from the reported result.
func (e *engine) takeWarmupSnapshot(ds disk.Stats, de disk.Energy, me mem.Energy) {
	e.warmupTaken = true
	e.wDiskStats = ds
	e.wDiskEnergy = de
	e.wMemEnergy = me
	e.wResult = e.res
}

// finish settles accounting through the end of the run and, when a
// warmup window was configured, windows the result to the post-warmup
// span.
func (e *engine) finish(end simtime.Seconds) {
	e.disk.FinishTo(end)
	e.mem.FinishTo(end)
	e.res.DiskEnergy = e.disk.Energy()
	e.res.MemEnergy = e.mem.Energy()
	ds := e.disk.Stats()

	start := simtime.Seconds(0)
	if e.warmupTaken {
		start = e.cfg.Warmup
		e.res.DiskEnergy = e.res.DiskEnergy.Sub(e.wDiskEnergy)
		e.res.MemEnergy = e.res.MemEnergy.Sub(e.wMemEnergy)
		ds = ds.Sub(e.wDiskStats)
		e.res.ClientRequests -= e.wResult.ClientRequests
		e.res.CacheAccesses -= e.wResult.CacheAccesses
		e.res.DiskAccesses -= e.wResult.DiskAccesses
		e.res.DiskRequests -= e.wResult.DiskRequests
		e.res.TotalLatency -= e.wResult.TotalLatency
		e.res.Delayed -= e.wResult.Delayed
		e.res.OracleDiskPM -= e.wResult.OracleDiskPM
	}
	e.res.Duration = end - start
	if e.res.Duration > 0 {
		e.res.Utilization = float64(ds.BusyTime) / float64(e.res.Duration)
	}
}
