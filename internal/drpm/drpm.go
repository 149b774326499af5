// Package drpm implements a multi-speed disk and a dynamic-RPM policy in
// the spirit of Gurumurthi et al., "DRPM: Dynamic Speed Control for Power
// Management in Server Class Disks" (ISCA 2003) — the alternative to
// spin-down that the paper discusses in its related work: when idle
// intervals are too short to amortise a full spin-down, lowering the
// platters' rotational speed still saves power, at the cost of slower
// service.
//
// The model derives a ladder of speed levels from a base (full-speed)
// drive: rotational power scales with the square of the speed ratio (the
// aerodynamic drag term dominates), transfer rate scales linearly, and
// rotational latency inversely. Speed transitions take time proportional
// to the RPM gap.
//
// The adaptive policy mirrors the joint manager's cadence: once per
// period it picks the lowest speed whose predicted utilization stays
// under a cap, from the previous period's demand.
package drpm

import (
	"fmt"
	"math"

	"jointpm/internal/cache"
	"jointpm/internal/disk"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// Level is one rotational speed step. It is an alias of disk.SpeedLevel
// so ladders derived here plug straight into the disk model and the
// joint manager's slate (core.Params.SpeedLevels) without conversion.
type Level = disk.SpeedLevel

// Spec is a multi-speed drive: a base mechanical/power model plus the
// derived speed ladder, fastest first.
type Spec struct {
	SeekTime simtime.Seconds
	Levels   []Level
	// TransitionPerRPM is the time to change speed, per RPM of difference
	// (DRPM reports hundreds of ms for full-range swings).
	TransitionPerRPM simtime.Seconds
}

// fallbackTransitionPerRPM is the documented fallback speed-change rate
// (~0.4 s across a 12k RPM swing, per the DRPM paper's reported
// full-range transition times), used when the base spec carries no
// spin-up characteristics to derive a rate from.
const fallbackTransitionPerRPM = simtime.Seconds(0.4 / 12000)

// speedTransitionFrac scales a drive's full spin-up time down to a
// per-full-RPM-range speed-change budget: changing speed only
// re-accelerates the platter, it never waits out the head load and
// ready sequence a cold spin-up pays. The value is calibrated so a
// 12k RPM drive with a 10 s spin-up reproduces the DRPM paper's ~0.4 s
// half-range swing: 0.08 · 10 s · (6000/12000) = 0.4 s.
const speedTransitionFrac = 0.08

// DeriveLevels builds a Spec from a single-speed drive: `steps` levels
// from full RPM down to half, idle power scaling quadratically with the
// speed ratio and service linearly. Level 0 copies the base drive's
// constants verbatim, so a ladder's full-speed level prices exactly like
// the underlying disk.Spec (bit-identical, not just approximately).
//
// fullRPM ≤ 0 derives the spindle speed from the base drive's rotational
// latency (half a revolution), falling back to 7200 RPM if that is
// unusable. TransitionPerRPM is derived from the base drive's spin-up
// time (see speedTransitionFrac); a spec without one gets the documented
// DRPM-paper fallback rate.
func DeriveLevels(base disk.Spec, fullRPM, steps int) Spec {
	if steps < 1 {
		steps = 1
	}
	if fullRPM <= 0 {
		if base.RotationalLatency > 0 {
			// Average rotational latency is half a revolution:
			// RPM = 60 / (2 · rotLatency).
			fullRPM = int(math.Round(60 / (2 * float64(base.RotationalLatency))))
		}
		if fullRPM <= 0 {
			fullRPM = 7200
		}
	}
	perRPM := fallbackTransitionPerRPM
	if base.SpinUpTime > 0 {
		perRPM = simtime.Seconds(speedTransitionFrac * float64(base.SpinUpTime) / float64(fullRPM))
	}
	s := Spec{
		SeekTime:         base.SeekTime,
		TransitionPerRPM: perRPM,
	}
	for i := 0; i < steps; i++ {
		if i == 0 {
			s.Levels = append(s.Levels, Level{
				RPM:          fullRPM,
				IdlePower:    base.IdlePower,
				ActivePower:  base.ActivePower,
				TransferRate: base.TransferRate,
				RotLatency:   base.RotationalLatency,
			})
			continue
		}
		ratio := 1 - 0.5*float64(i)/float64(maxInt(steps-1, 1)) // 1.0 .. 0.5
		dynamic := float64(base.ActivePower - base.IdlePower)
		s.Levels = append(s.Levels, Level{
			RPM:          int(float64(fullRPM) * ratio),
			IdlePower:    simtime.Watts(float64(base.IdlePower) * ratio * ratio),
			ActivePower:  simtime.Watts(float64(base.IdlePower)*ratio*ratio + dynamic),
			TransferRate: base.TransferRate * ratio,
			RotLatency:   simtime.Seconds(float64(base.RotationalLatency) / ratio),
		})
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// clampLevel sanitises a level index into the ladder's range, the same
// way core.SetPowerBudget coerces bad budgets instead of panicking. An
// empty ladder returns -1 (callers validate via Validate before use).
func (s Spec) clampLevel(lvl int) int {
	if len(s.Levels) == 0 {
		return -1
	}
	if lvl < 0 {
		return 0
	}
	if lvl >= len(s.Levels) {
		return len(s.Levels) - 1
	}
	return lvl
}

// Validate reports structural errors in the ladder instead of letting
// them surface later as index panics or NaN energies.
func (s Spec) Validate() error {
	if len(s.Levels) == 0 {
		return fmt.Errorf("drpm: spec has no levels")
	}
	if s.TransitionPerRPM < 0 || math.IsNaN(float64(s.TransitionPerRPM)) {
		return fmt.Errorf("drpm: transition rate %v s/RPM must be non-negative", s.TransitionPerRPM)
	}
	for i, l := range s.Levels {
		if !(l.TransferRate > 0) {
			return fmt.Errorf("drpm: level %d transfer rate %g must be positive", i, l.TransferRate)
		}
		if !(l.RotLatency >= 0) {
			return fmt.Errorf("drpm: level %d rotational latency %v must be non-negative", i, l.RotLatency)
		}
		if !(l.IdlePower >= 0) || !(l.ActivePower >= l.IdlePower) {
			return fmt.Errorf("drpm: level %d powers (idle %v, active %v) must satisfy 0 ≤ idle ≤ active", i, l.IdlePower, l.ActivePower)
		}
	}
	return nil
}

// ServiceTime returns the service time of one request at a level.
// Out-of-range levels are clamped; an empty ladder returns 0.
func (s Spec) ServiceTime(lvl int, size simtime.Bytes) simtime.Seconds {
	lvl = s.clampLevel(lvl)
	if lvl < 0 {
		return 0
	}
	if size < 0 {
		size = 0
	}
	l := s.Levels[lvl]
	return s.SeekTime + l.RotLatency + simtime.Seconds(float64(size)/l.TransferRate)
}

// TransitionTime returns the time to move between two levels.
// Out-of-range levels are clamped; an empty ladder returns 0.
func (s Spec) TransitionTime(from, to int) simtime.Seconds {
	from, to = s.clampLevel(from), s.clampLevel(to)
	if from < 0 || to < 0 {
		return 0
	}
	d := s.Levels[from].RPM - s.Levels[to].RPM
	if d < 0 {
		d = -d
	}
	return s.TransitionPerRPM * simtime.Seconds(d)
}

// Policy selects how the speed is managed.
type Policy int

// Speed policies.
const (
	// FullSpeed pins the fastest level (the non-DRPM baseline).
	FullSpeed Policy = iota
	// Adaptive picks, each period, the lowest level whose predicted
	// utilization stays under UtilCap.
	Adaptive
)

// Config describes a DRPM simulation run. Memory is a fixed-size cache in
// nap mode (speed control replaces spin-down, not memory management).
type Config struct {
	Trace    *trace.Trace
	Spec     Spec
	Policy   Policy
	UtilCap  float64 // adaptive target utilization (default 0.5)
	MemBytes simtime.Bytes
	BankSize simtime.Bytes
	MemSpec  mem.Spec
	Period   simtime.Seconds
}

// Result is a DRPM run's outcome.
type Result struct {
	Duration     simtime.Seconds
	DiskEnergy   simtime.Joules
	MemEnergy    mem.Energy
	Transitions  int
	LevelTime    []simtime.Seconds // residency per level
	BusyTime     simtime.Seconds
	Requests     int64
	TotalLatency simtime.Seconds
	DiskAccesses int64
}

// TotalEnergy returns disk + memory energy.
func (r *Result) TotalEnergy() simtime.Joules { return r.DiskEnergy + r.MemEnergy.Total() }

// MeanLatency returns the mean client-request latency.
func (r *Result) MeanLatency() simtime.Seconds {
	if r.Requests == 0 {
		return 0
	}
	return r.TotalLatency / simtime.Seconds(r.Requests)
}

// Utilization returns busy time over the run.
func (r *Result) Utilization() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.BusyTime) / float64(r.Duration)
}

// Run executes the DRPM simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("drpm: no trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	// Sanitize the utilization cap the way core.SetPowerBudget coerces
	// bad budgets: `!(x > 0)` also catches NaN, which `x <= 0` lets
	// through (NaN would make every level fail the cap and silently pin
	// full speed). A cap above 1 is meaningless (the disk cannot be more
	// than fully busy) and clamps to 1.
	if !(cfg.UtilCap > 0) {
		cfg.UtilCap = 0.5
	}
	if cfg.UtilCap > 1 {
		cfg.UtilCap = 1
	}
	if cfg.Period <= 0 {
		cfg.Period = 600
	}
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 128 * simtime.GB
	}
	if cfg.BankSize <= 0 {
		cfg.BankSize = 16 * simtime.MB
	}
	if cfg.MemSpec == (mem.Spec{}) {
		cfg.MemSpec = mem.RDRAM(cfg.BankSize)
	}
	tr := cfg.Trace
	pageSize := tr.PageSize
	if cfg.BankSize%pageSize != 0 || cfg.MemBytes%cfg.BankSize != 0 {
		return nil, fmt.Errorf("drpm: page/bank/memory sizes misaligned")
	}
	if frames := int64(cfg.MemBytes / pageSize); frames > cache.MaxFrames {
		return nil, fmt.Errorf("drpm: memory %v is %d pages of %v; the page cache holds at most %d (2^31-1)",
			cfg.MemBytes, frames, pageSize, int64(cache.MaxFrames))
	}

	pc := cache.New(int64(cfg.MemBytes/pageSize), int64(cfg.BankSize/pageSize))
	memory := mem.New(cfg.MemSpec, int(cfg.MemBytes/cfg.BankSize), mem.AlwaysNap)

	res := &Result{LevelTime: make([]simtime.Seconds, len(cfg.Spec.Levels))}
	lvl := 0
	var (
		now, freeAt    simtime.Seconds // accounted-through time; queue drain
		periodBytes    simtime.Bytes
		periodRequests int64
		nextBoundary   = cfg.Period
	)
	accountTo := func(t simtime.Seconds) {
		if t > now {
			res.LevelTime[lvl] += t - now
			res.DiskEnergy += simtime.Energy(cfg.Spec.Levels[lvl].IdlePower, t-now)
			now = t
		}
	}
	closePeriod := func(t simtime.Seconds) {
		accountTo(t)
		memory.FinishTo(t)
		if cfg.Policy == Adaptive {
			// Predicted busy time at each level from last period's demand;
			// choose the slowest level under the cap.
			best := 0
			for l := len(cfg.Spec.Levels) - 1; l >= 0; l-- {
				busy := float64(periodRequests)*float64(cfg.SpecSeekRot(l)) +
					float64(periodBytes)/cfg.Spec.Levels[l].TransferRate
				if busy/float64(cfg.Period) <= cfg.UtilCap {
					best = l
					break
				}
			}
			if best != lvl {
				tt := cfg.Spec.TransitionTime(lvl, best)
				// The transition burns time at (roughly) the higher level's
				// idle power and delays nothing in this model (it happens at
				// the period boundary, where the queue is typically empty).
				hi := lvl
				if cfg.Spec.Levels[best].IdlePower > cfg.Spec.Levels[hi].IdlePower {
					hi = best
				}
				res.DiskEnergy += simtime.Energy(cfg.Spec.Levels[hi].IdlePower, tt)
				res.Transitions++
				lvl = best
				if freeAt < t+tt {
					freeAt = t + tt
				}
			}
		}
		periodBytes, periodRequests = 0, 0
	}

	for i := range tr.Requests {
		req := &tr.Requests[i]
		for req.Time >= nextBoundary {
			closePeriod(nextBoundary)
			nextBoundary += cfg.Period
		}
		res.Requests++
		var runLen int64
		var maxFinish simtime.Seconds
		flush := func() {
			if runLen == 0 {
				return
			}
			size := simtime.Bytes(runLen) * pageSize
			accountTo(req.Time)
			start := req.Time
			if freeAt > start {
				start = freeAt
			}
			service := cfg.Spec.ServiceTime(lvl, size)
			finish := start + service
			// Active premium over idle for the service span.
			res.DiskEnergy += simtime.Energy(cfg.Spec.Levels[lvl].ActivePower-cfg.Spec.Levels[lvl].IdlePower, service)
			res.BusyTime += service
			periodBytes += size
			periodRequests++
			freeAt = finish
			if finish > maxFinish {
				maxFinish = finish
			}
			runLen = 0
		}
		for k := int32(0); k < req.Pages; k++ {
			page := req.FirstPage + int64(k)
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
			res.TotalLatency += maxFinish - req.Time
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
	accountTo(end)
	memory.FinishTo(end)
	res.Duration = end
	res.MemEnergy = memory.Energy()
	return res, nil
}

// SpecSeekRot returns the per-request mechanical overhead at a level.
// Out-of-range levels are clamped; an empty ladder returns the seek time.
func (c *Config) SpecSeekRot(lvl int) simtime.Seconds {
	lvl = c.Spec.clampLevel(lvl)
	if lvl < 0 {
		return c.Spec.SeekTime
	}
	return c.Spec.SeekTime + c.Spec.Levels[lvl].RotLatency
}
