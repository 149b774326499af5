// Package fleet is the coordinator layer above internal/serve: it
// splits one configurable global power cap fairly across the daemon's
// shards, FastCap-style (Liu et al.), at shard rather than core
// granularity. Each epoch the coordinator collects one Summary per
// shard — its fairness floor and its priced power demand — and solves
// a max-min fair ("water-filling") reallocation of the cap into
// per-shard budgets, which internal/serve pushes down into each shard's
// core.Manager as an extra constraint on the candidate slate
// (core.SetPowerBudget).
//
// The solver is deterministic and depends only on each shard's fairness
// floor and power demand, both of which a warm restart restores
// bit-identically from the snapshot. Fault tolerance: a shard whose
// summary is dropped or arrives late (fault.FleetPlan) is solved from its
// last-known summary, so budgets degrade gracefully while the sum never
// exceeds the cap.
package fleet

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Summary is one shard's per-epoch report to the coordinator.
type Summary struct {
	Disk string `json:"disk"`
	// FloorW is the shard's fairness floor: the power of its safe default
	// configuration (every bank in nap plus the disk's static power at
	// the 2-competitive t_be). No shard is budgeted below its floor while
	// another holds slack — the fairness invariant.
	FloorW float64 `json:"floor_w"`
	// DemandW is the shard's current priced power draw: the last trusted
	// decision's TotalPower, or the floor when nothing is priced yet.
	// The solver never budgets a shard above max(FloorW, DemandW) plus
	// its equal share of any surplus.
	DemandW float64 `json:"demand_w"`
}

// Assignment is one shard's budget out of a Reallocate solve.
type Assignment struct {
	Disk    string  `json:"disk"`
	BudgetW float64 `json:"budget_w"`
	FloorW  float64 `json:"floor_w"`
	DemandW float64 `json:"demand_w"`
	// Stale reports that the shard's summary was dropped or late this
	// epoch and the budget was solved from the last-known summary (or the
	// default floor when none was ever seen).
	Stale bool `json:"stale,omitempty"`
}

// solveEps tolerates float accumulation noise in the water-fill loop.
const solveEps = 1e-9

// Solve splits capW across the summaries, max-min fair:
//
//   - capW ≤ 0 or +Inf: unconstrained — every budget is +Inf.
//   - capW ≥ Σ want (want = max(floor, demand)): every shard gets its
//     want plus an equal share of the surplus, so a slack cap leaves
//     every decision exactly as unconstrained search would make it.
//   - Σ floor ≤ capW < Σ want: budgets start at the floors and the
//     remainder water-fills toward the wants — no shard is capped below
//     its floor while another holds slack above its own.
//   - capW < Σ floor: the cap cannot cover even the safe defaults;
//     floors are pro-rated so the sum still respects the cap and every
//     shard degrades by the same fraction.
//
// The returned budgets align with sums by index and always satisfy
// Σ budgets ≤ capW (within solveEps) for a finite positive cap.
func Solve(capW float64, sums []Summary) []float64 {
	out := make([]float64, len(sums))
	if len(sums) == 0 {
		return out
	}
	if capW <= 0 || math.IsInf(capW, 1) || math.IsNaN(capW) {
		for i := range out {
			out[i] = math.Inf(1)
		}
		return out
	}
	floors := 0.0
	wants := 0.0
	for i := range sums {
		f := sums[i].FloorW
		if f < 0 || math.IsNaN(f) {
			f = 0
		}
		w := sums[i].DemandW
		if w < f || math.IsNaN(w) || math.IsInf(w, 0) {
			w = f
		}
		out[i] = w // stash want
		floors += f
		wants += w
	}
	switch {
	case capW >= wants:
		share := (capW - wants) / float64(len(sums))
		for i := range out {
			out[i] += share
		}
	case capW >= floors:
		// Water-fill from the floors toward the wants: distribute the
		// slack equally, capping each shard at its want and re-spreading
		// what the saturated shards could not absorb. Terminates in at
		// most len(sums) rounds.
		want := out
		budget := make([]float64, len(sums))
		open := 0
		for i := range sums {
			f := sums[i].FloorW
			if f < 0 || math.IsNaN(f) {
				f = 0
			}
			budget[i] = f
			if want[i] > f+solveEps {
				open++
			}
		}
		remaining := capW - floors
		for remaining > solveEps && open > 0 {
			share := remaining / float64(open)
			open = 0
			for i := range budget {
				head := want[i] - budget[i]
				if head <= solveEps {
					continue
				}
				give := share
				if give > head {
					give = head
				}
				budget[i] += give
				remaining -= give
				if want[i]-budget[i] > solveEps {
					open++
				}
			}
		}
		copy(out, budget)
	default:
		// Cap below the sum of floors: pro-rate so every shard keeps the
		// same fraction of its floor and the sum still respects the cap.
		frac := capW / floors
		for i := range sums {
			f := sums[i].FloorW
			if f < 0 || math.IsNaN(f) {
				f = 0
			}
			out[i] = f * frac
		}
	}
	return out
}

// CheckFairness verifies the two invariants every Solve output must
// hold for a finite positive cap: the budgets sum to at most the cap,
// and no shard is starved below its floor while another holds slack
// above its own want (max-min fairness). A nil error means both hold.
func CheckFairness(capW float64, sums []Summary, budgets []float64) error {
	if len(sums) != len(budgets) {
		return fmt.Errorf("fleet: %d summaries but %d budgets", len(sums), len(budgets))
	}
	if capW <= 0 || math.IsInf(capW, 1) {
		for i, b := range budgets {
			if !math.IsInf(b, 1) {
				return fmt.Errorf("fleet: unconstrained cap but finite budget %g for %s", b, sums[i].Disk)
			}
		}
		return nil
	}
	total := 0.0
	floors := 0.0
	for i, b := range budgets {
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("fleet: budget %g for %s is not a finite non-negative watt", b, sums[i].Disk)
		}
		total += b
		f := sums[i].FloorW
		if f < 0 || math.IsNaN(f) {
			f = 0
		}
		floors += f
	}
	if total > capW*(1+1e-9)+solveEps {
		return fmt.Errorf("fleet: budgets sum to %g W over cap %g W", total, capW)
	}
	if capW < floors {
		return nil // degenerate cap: even the floors do not fit; pro-rating applies
	}
	for i := range sums {
		f := sums[i].FloorW
		if f < 0 || math.IsNaN(f) {
			f = 0
		}
		if budgets[i] >= f-solveEps {
			continue
		}
		// Starved below floor: fair only if nobody holds slack above
		// their own want.
		for j := range sums {
			want := math.Max(sums[j].FloorW, sums[j].DemandW)
			if budgets[j] > want+1e-6 {
				return fmt.Errorf("fleet: %s starved at %g W below floor %g W while %s holds %g W above want %g W",
					sums[i].Disk, budgets[i], f, sums[j].Disk, budgets[j], want)
			}
		}
	}
	return nil
}

// JainIndex is Jain's fairness index over the per-shard values: 1.0
// when perfectly equal, approaching 1/n as one shard dominates. Zero
// when the input is empty or sums to zero.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Coordinator runs the epoch protocol: Observe fresh summaries as they
// arrive, then Reallocate solves the cap over every known shard and
// returns the assignments. Safe for concurrent use; serve collects
// summaries and applies budgets around it.
type Coordinator struct {
	capW   float64
	floorW float64 // default floor for shards never yet summarised

	mu     sync.Mutex
	epoch  int64
	known  map[string]Summary
	seenAt map[string]int64
	last   []Assignment
}

// NewCoordinator creates a coordinator for a finite positive cap.
// defaultFloorW seeds the floor of shards that have never reported.
func NewCoordinator(capW, defaultFloorW float64) *Coordinator {
	if defaultFloorW < 0 || math.IsNaN(defaultFloorW) {
		defaultFloorW = 0
	}
	return &Coordinator{
		capW:   capW,
		floorW: defaultFloorW,
		known:  map[string]Summary{},
		seenAt: map[string]int64{},
	}
}

// CapW returns the configured global cap in watts.
func (c *Coordinator) CapW() float64 { return c.capW }

// Epoch returns how many reallocations have run.
func (c *Coordinator) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Observe records a shard's fresh summary for the next solve. A dropped
// summary simply never arrives; a late one arrives after Reallocate and
// is picked up the following epoch.
func (c *Coordinator) Observe(s Summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.known[s.Disk] = s
	c.seenAt[s.Disk] = c.epoch + 1 // the epoch the upcoming solve will stamp
}

// Reallocate solves the cap across the named shards (order preserved)
// using each shard's freshest known summary — degrading to the
// last-known one, or a floor-only default, when this epoch's summary
// never arrived — and returns the assignments. Σ budgets ≤ cap holds
// regardless of how stale the inputs are.
func (c *Coordinator) Reallocate(disks []string) []Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	sums := make([]Summary, len(disks))
	stale := make([]bool, len(disks))
	for i, d := range disks {
		if s, ok := c.known[d]; ok {
			sums[i] = s
			stale[i] = c.seenAt[d] < c.epoch
		} else {
			sums[i] = Summary{Disk: d, FloorW: c.floorW, DemandW: c.floorW}
			stale[i] = true
		}
	}
	budgets := Solve(c.capW, sums)
	out := make([]Assignment, len(disks))
	for i := range disks {
		out[i] = Assignment{
			Disk:    disks[i],
			BudgetW: budgets[i],
			FloorW:  sums[i].FloorW,
			DemandW: sums[i].DemandW,
			Stale:   stale[i],
		}
	}
	c.last = append(c.last[:0], out...)
	return out
}

// Assignments returns a copy of the latest solve, sorted by disk name
// (the /debug/fleet payload).
func (c *Coordinator) Assignments() []Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]Assignment(nil), c.last...)
	sort.Slice(out, func(i, j int) bool { return out[i].Disk < out[j].Disk })
	return out
}
