// Package multidisk implements the paper's stated future work
// (Section VI): extending joint power management from one spindle to a
// disk array. It adds the three ingredients the paper lists — disk-cache
// management shared across multiple disks, data layout across disks, and
// workload distribution — on top of the single-disk substrates:
//
//   - one shared disk cache (the server's memory) in front of D disks;
//   - a Layout policy mapping files to disks: striped (round-robin),
//     range (contiguous partitions), or hot-cold (popular files
//     concentrated on few spindles, after Pinheiro & Bianchini's
//     popular-data-concentration argument, which the paper cites);
//   - per-disk spin-down timeouts chosen by the same Pareto analysis as
//     the single-disk joint method, from each disk's own depth histogram
//     and gap log, with one global memory-size decision.
//
// The qualitative result the example demonstrates: striping keeps every
// spindle warm and destroys idleness; concentrating popular data lets
// the cold spindles sleep almost permanently.
package multidisk

import (
	"fmt"
	"math"
	"sort"

	"jointpm/internal/cache"
	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// Layout selects how files are distributed across the array.
type Layout int

// Data layouts.
const (
	// Striped spreads files round-robin: maximal parallelism, minimal
	// per-disk idleness.
	Striped Layout = iota
	// Ranged gives each disk a contiguous file range of roughly equal
	// byte size.
	Ranged
	// HotCold ranks files by access count and packs the most popular
	// onto the lowest-numbered disks, leaving the rest cold.
	HotCold
)

func (l Layout) String() string {
	switch l {
	case Striped:
		return "striped"
	case Ranged:
		return "ranged"
	case HotCold:
		return "hot-cold"
	default:
		return "unknown"
	}
}

// DiskMethod selects the per-spindle power management.
type DiskMethod int

// Per-disk power-management methods.
const (
	// AlwaysOn keeps every spindle spinning.
	AlwaysOn DiskMethod = iota
	// TwoCompetitive gives each disk the fixed break-even timeout.
	TwoCompetitive
	// Joint sizes the shared cache and sets one timeout per disk from
	// that disk's own reconstructed idle intervals, every period.
	Joint
	// Partitioned is the PB-LRU-style comparator (see partition.go): the
	// full installed memory stays powered, but the cache is split into
	// per-disk partitions re-sized every period to minimise estimated
	// disk energy, with per-disk timeouts. It needs at least one
	// installed bank per disk.
	Partitioned
)

func (m DiskMethod) String() string {
	switch m {
	case AlwaysOn:
		return "always-on"
	case TwoCompetitive:
		return "2T"
	case Joint:
		return "joint"
	case Partitioned:
		return "partitioned"
	default:
		return "unknown"
	}
}

// Config describes a multi-disk run.
type Config struct {
	Trace  *trace.Trace
	Disks  int
	Layout Layout
	Method DiskMethod

	InstalledMem simtime.Bytes
	BankSize     simtime.Bytes
	DiskSpec     disk.Spec
	MemSpec      mem.Spec
	Period       simtime.Seconds
	LongLatency  simtime.Seconds
	Joint        core.Params // zero-value fields keep defaults
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Trace == nil {
		return cfg, fmt.Errorf("multidisk: no trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return cfg, err
	}
	if cfg.Disks < 1 {
		return cfg, fmt.Errorf("multidisk: need at least one disk, got %d", cfg.Disks)
	}
	if cfg.InstalledMem <= 0 {
		cfg.InstalledMem = 128 * simtime.GB
	}
	if cfg.BankSize <= 0 {
		cfg.BankSize = 16 * simtime.MB
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
	if cfg.BankSize%cfg.Trace.PageSize != 0 || cfg.InstalledMem%cfg.BankSize != 0 {
		return cfg, fmt.Errorf("multidisk: page/bank/memory sizes misaligned")
	}
	if frames := int64(cfg.InstalledMem / cfg.Trace.PageSize); frames > cache.MaxFrames {
		return cfg, fmt.Errorf("multidisk: installed memory %v is %d pages of %v; the page cache holds at most %d (2^31-1)",
			cfg.InstalledMem, frames, cfg.Trace.PageSize, int64(cache.MaxFrames))
	}
	if banks := int(cfg.InstalledMem / cfg.BankSize); cfg.Method == Partitioned && banks < cfg.Disks {
		return cfg, fmt.Errorf("multidisk: partitioned needs a bank per disk: %d installed banks for %d disks", banks, cfg.Disks)
	}
	return cfg, nil
}

// DiskResult is one spindle's outcome.
type DiskResult struct {
	Energy      disk.Energy
	Stats       disk.Stats
	Utilization float64
	Timeout     simtime.Seconds // final timeout
}

// Result is a multi-disk run's outcome.
type Result struct {
	Layout   Layout
	Method   DiskMethod
	Duration simtime.Seconds

	Disks     []DiskResult
	MemEnergy mem.Energy

	ClientRequests int64
	CacheAccesses  int64
	DiskAccesses   int64
	TotalLatency   simtime.Seconds
	Delayed        int64
	Banks          int   // enabled banks at end of run
	Partitions     []int // final per-disk partition sizes in banks (Partitioned only)
}

// TotalEnergy returns memory plus all spindles.
func (r *Result) TotalEnergy() simtime.Joules {
	t := r.MemEnergy.Total()
	for i := range r.Disks {
		t += r.Disks[i].Energy.Total()
	}
	return t
}

// DiskEnergy returns the array's summed disk energy.
func (r *Result) DiskEnergy() simtime.Joules {
	var t simtime.Joules
	for i := range r.Disks {
		t += r.Disks[i].Energy.Total()
	}
	return t
}

// MeanLatency returns the average client-request latency.
func (r *Result) MeanLatency() simtime.Seconds {
	if r.ClientRequests == 0 {
		return 0
	}
	return r.TotalLatency / simtime.Seconds(r.ClientRequests)
}

// SleepingDisks reports how many spindles spent more than half the run
// spun down.
func (r *Result) SleepingDisks() int {
	n := 0
	for i := range r.Disks {
		if r.Disks[i].Stats.StandbyTime > r.Duration/2 {
			n++
		}
	}
	return n
}

// buildLayout returns the file→disk assignment.
func buildLayout(cfg Config) []int {
	tr := cfg.Trace
	assign := make([]int, tr.Files)
	switch cfg.Layout {
	case Striped:
		for f := range assign {
			assign[f] = f % cfg.Disks
		}
	case Ranged:
		// Contiguous partitions of roughly equal page counts, using each
		// file's page extent from its first appearance in the trace.
		pagesOf := filePages(tr)
		var total int64
		for _, p := range pagesOf {
			total += p
		}
		per := (total + int64(cfg.Disks) - 1) / int64(cfg.Disks)
		var acc int64
		d := 0
		for f := int32(0); f < tr.Files; f++ {
			if acc >= per*int64(d+1) && d < cfg.Disks-1 {
				d++
			}
			assign[f] = d
			acc += pagesOf[f]
		}
	case HotCold:
		// Rank by access count; fill disks lowest-first by byte share.
		pagesOf := filePages(tr)
		counts := make([]int64, tr.Files)
		for i := range tr.Requests {
			counts[tr.Requests[i].File]++
		}
		order := make([]int32, tr.Files)
		for f := range order {
			order[f] = int32(f)
		}
		sort.SliceStable(order, func(i, j int) bool {
			return counts[order[i]] > counts[order[j]]
		})
		var total int64
		for _, p := range pagesOf {
			total += p
		}
		per := (total + int64(cfg.Disks) - 1) / int64(cfg.Disks)
		var acc int64
		d := 0
		for _, f := range order {
			if acc >= per*int64(d+1) && d < cfg.Disks-1 {
				d++
			}
			assign[f] = d
			acc += pagesOf[f]
		}
	}
	return assign
}

// filePages derives each file's page extent from the trace.
func filePages(tr *trace.Trace) []int64 {
	out := make([]int64, tr.Files)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if out[r.File] < int64(r.Pages) {
			out[r.File] = int64(r.Pages)
		}
	}
	return out
}

// Run executes the multi-disk simulation.
func Run(c Config) (*Result, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	tr := cfg.Trace
	pageSize := tr.PageSize
	pagesPerBank := int64(cfg.BankSize / pageSize)
	frames := int64(cfg.InstalledMem / pageSize)
	totalBanks := int(cfg.InstalledMem / cfg.BankSize)

	assign := buildLayout(cfg)
	memory := mem.New(cfg.MemSpec, totalBanks, mem.AlwaysNap)
	disks := make([]*disk.Disk, cfg.Disks)
	for d := range disks {
		disks[d] = disk.New(cfg.DiskSpec, cfg.LongLatency)
		if cfg.Method == TwoCompetitive || cfg.Method == Joint || cfg.Method == Partitioned {
			disks[d].SetTimeout(0, cfg.DiskSpec.BreakEven())
		}
	}

	// Partitioned keeps one cache (and one ghost list) per disk, split
	// evenly to start; every other method shares a single cache over the
	// whole memory.
	nCaches := 1
	if cfg.Method == Partitioned {
		nCaches = cfg.Disks
	}
	caches := make([]*cache.PageCache, nCaches)
	for i := range caches {
		caches[i] = cache.New(frames, pagesPerBank)
		if cfg.Method == Partitioned {
			caches[i].Resize(int64(totalBanks/cfg.Disks) * pagesPerBank)
		}
	}

	var mgr *core.Manager
	// Partitioned prices every disk at every grid size at each boundary.
	var (
		grid  []int
		costs [][]float64
		knap  partitioner
	)
	if cfg.Method == Partitioned {
		grid = sizeGrid(totalBanks, 10)
		costs = make([][]float64, cfg.Disks)
		for d := range costs {
			costs[d] = make([]float64, len(grid))
		}
	}
	// hists holds each disk's period as a depth histogram, fed the runs
	// of its requests: from the manager's one stack under Joint, from the
	// disk's own stack (its ghost list) under Partitioned.
	var hists []*lrusim.DepthHist
	var stacks []*lrusim.StackSim
	var runs []lrusim.DepthRun // the current request's depth runs
	var resident cache.Run     // a resident request's frames and banks
	var gaps []float64         // one disk's idle intervals at one size
	if cfg.Method == Joint || cfg.Method == Partitioned {
		p := core.DefaultParams(pageSize, cfg.BankSize, totalBanks, cfg.DiskSpec, cfg.MemSpec)
		p.Period = cfg.Period
		p.LongLatency = cfg.LongLatency
		p = core.MergeParams(p, cfg.Joint)
		if mgr, err = core.NewManager(p); err != nil {
			return nil, err
		}
		hists = make([]*lrusim.DepthHist, cfg.Disks)
		for d := range hists {
			hists[d] = lrusim.NewDepthHist(pagesPerBank, totalBanks, 0, mgr.Params().Window)
		}
		if cfg.Method == Partitioned {
			stacks = make([]*lrusim.StackSim, cfg.Disks)
			for d := range stacks {
				stacks[d] = lrusim.NewStackSim(int(frames))
			}
		}
	}

	res := &Result{
		Layout: cfg.Layout,
		Method: cfg.Method,
		Disks:  make([]DiskResult, cfg.Disks),
	}

	// idleAt returns disk d's idle intervals and disk accesses in the
	// period ending at t, had the disk's cache held banks banks: the gaps
	// of its gap log at that threshold, and the references deeper than it.
	idleAt := func(d, banks int, t simtime.Seconds) ([]float64, int64) {
		h := hists[d]
		gaps = lrusim.AppendGapsAt(gaps[:0], h.FinishGaps(t-cfg.Period, t), int32(banks))
		return gaps, h.Misses(banks)
	}
	// setDiskTimeout applies the Pareto-chosen timeout for one spindle,
	// vetoed when spinning down cannot beat staying on.
	setDiskTimeout := func(d, banks int, accesses int64, t simtime.Seconds) {
		intervals, nd := idleAt(d, banks, t)
		tc := mgr.ChooseTimeout(intervals, nd, accesses, float64(cfg.Period))
		to := tc.Timeout
		pm := core.EmpiricalPMPower(intervals, float64(to), float64(cfg.Period), cfg.DiskSpec)
		if pm >= float64(cfg.DiskSpec.StaticPower()) {
			to = simtime.Seconds(math.Inf(1))
		}
		if debugHook != nil {
			debugHook(d, len(intervals), nd, tc, pm, to, int64(banks)*pagesPerBank)
		}
		disks[d].SetTimeout(t, to)
	}

	closePeriod := func(t simtime.Seconds) {
		for _, d := range disks {
			d.FinishTo(t)
		}
		memory.FinishTo(t)
		if mgr == nil {
			return
		}
		var accesses int64
		for _, h := range hists {
			accesses += h.Refs()
		}
		if cfg.Method == Partitioned {
			// PB-LRU-style allocation: per-disk energy estimates over a
			// geometric size grid, then a multiple-choice knapsack over the
			// full bank budget.
			for d := range costs {
				for si, banks := range grid {
					intervals, nd := idleAt(d, banks, t)
					costs[d][si] = partitionEnergy(mgr, intervals, nd, t-cfg.Period, t, accesses)
				}
			}
			alloc := knap.choose(costs, grid, totalBanks)
			for d := range caches {
				caches[d].Resize(int64(alloc[d]) * pagesPerBank)
				setDiskTimeout(d, alloc[d], accesses, t)
			}
			res.Partitions = append(res.Partitions[:0], alloc...)
		} else {
			// Global sizing from the references the manager's stack took in.
			dec := mgr.Close(t, false, 1, mgr.Last().Banks)
			caches[0].Resize(dec.Pages)
			memory.SetEnabledBanks(t, dec.Banks)
			// Per-spindle timeouts from each disk's own gap log.
			for d := range disks {
				setDiskTimeout(d, dec.Banks, accesses, t)
			}
		}
		for _, h := range hists {
			h.Reset()
		}
	}

	nextBoundary := cfg.Period
	for i := range tr.Requests {
		req := &tr.Requests[i]
		for req.Time >= nextBoundary {
			closePeriod(nextBoundary)
			nextBoundary += cfg.Period
		}
		res.ClientRequests++
		target := assign[req.File]
		pc := caches[0]
		if cfg.Method == Partitioned {
			pc = caches[target]
		}
		var (
			runLen    int64
			maxFinish simtime.Seconds
		)
		flush := func() {
			if runLen == 0 {
				return
			}
			finish, _ := disks[target].Submit(req.Time, simtime.Bytes(runLen)*pageSize)
			if finish > maxFinish {
				maxFinish = finish
			}
			runLen = 0
		}
		if mgr != nil {
			if stacks != nil {
				runs = stacks[target].ReferenceRange(runs[:0], req.Time, req.FirstPage, int(req.Pages))
			} else {
				runs = mgr.Reference(req.Time, req.FirstPage, int(req.Pages))
			}
			hists[target].ObserveRuns(runs, pageSize)
		}
		if pc.ResidentRun(&resident, req.FirstPage, int64(req.Pages)) {
			// A repeated read of a resident run: the per-page loop's
			// memory touches (less repeats of the bank just touched,
			// which change nothing) and energy, one splice for its LRU
			// moves, and no disk request.
			for _, b := range resident.Banks {
				memory.Touch(b, req.Time)
			}
			pc.PromoteRun(&resident)
			memory.AddDynamicN(pageSize, int64(req.Pages))
			res.CacheAccesses += int64(req.Pages)
			continue
		}
		for k := int32(0); k < req.Pages; k++ {
			page := req.FirstPage + int64(k)
			res.CacheAccesses++
			if frame, hit := pc.Lookup(page); hit {
				flush()
				memory.Touch(pc.BankOf(frame), req.Time)
				memory.AddDynamic(pageSize)
				continue
			}
			res.DiskAccesses++
			runLen++
			frame, _ := pc.Insert(page)
			memory.Touch(pc.BankOf(frame), req.Time)
			memory.AddDynamic(pageSize)
		}
		flush()
		if maxFinish > req.Time {
			lat := maxFinish - req.Time
			res.TotalLatency += lat
			if lat > cfg.LongLatency {
				res.Delayed++
			}
		}
	}

	end := tr.Duration
	if n := len(tr.Requests); n > 0 && tr.Requests[n-1].Time > end {
		end = tr.Requests[n-1].Time
	}
	for nextBoundary <= end {
		closePeriod(nextBoundary)
		nextBoundary += cfg.Period
	}
	for _, d := range disks {
		d.FinishTo(end)
	}
	memory.FinishTo(end)

	res.Duration = end
	res.MemEnergy = memory.Energy()
	res.Banks = memory.EnabledBanks()
	for d := range disks {
		st := disks[d].Stats()
		res.Disks[d] = DiskResult{
			Energy:  disks[d].Energy(),
			Stats:   st,
			Timeout: disks[d].Timeout(),
		}
		if end > 0 {
			res.Disks[d].Utilization = float64(st.BusyTime) / float64(end)
		}
	}
	return res, nil
}

// debugHook, when set by tests, observes per-disk timeout decisions and
// the cache size (pages) each was taken at.
var debugHook func(d, ni int, nd int64, tc core.TimeoutChoice, pm float64, to simtime.Seconds, pages int64)
