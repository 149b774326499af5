package multidisk

import (
	"math"

	"jointpm/internal/core"
	"jointpm/internal/simtime"
)

// The Partitioned method implements a PB-LRU-style power-aware cache
// partitioning (after Zhu, Shankar & Zhou, "PB-LRU: A Self-Tuning Power
// Aware Storage Cache Replacement Algorithm", ICS 2004 — reference [36]
// of the paper): the shared cache is split into one partition per disk,
// and every period the partition sizes are re-chosen to minimise the
// estimated total disk energy, using per-disk miss curves maintained by
// ghost LRU lists: one stack per disk, whose depth runs feed that disk's
// depth histogram and gap log. The per-partition energy estimator reuses
// the same reconstruction the joint manager uses (idle intervals at a
// candidate size → Pareto timeout → empirical power), so the comparison
// against the joint method isolates the *allocation* policy: PB-LRU
// partitions a fixed total, the joint method also resizes the total.

// partitionEnergy estimates a disk's power over the period [periodStart,
// periodEnd) at a candidate partition size, from the idle intervals and
// the nd disk accesses its gap log and histogram give at that size.
func partitionEnergy(mgr *core.Manager, intervals []float64, nd int64,
	periodStart, periodEnd simtime.Seconds, accesses int64) float64 {
	p := mgr.Params()
	tc := mgr.ChooseTimeout(intervals, nd, accesses, float64(periodEnd-periodStart))
	pm := core.EmpiricalPMPower(intervals, float64(tc.Timeout), float64(periodEnd-periodStart), p.DiskSpec)
	if pd := float64(p.DiskSpec.StaticPower()); pm > pd {
		pm = pd
	}
	// Dynamic share from predicted miss bytes: each access is one page.
	missBytes := simtime.Bytes(nd) * p.PageSize
	busy := float64(nd)*float64(p.DiskSpec.SeekTime+p.DiskSpec.RotationalLatency) +
		float64(missBytes)/p.DiskSpec.TransferRate
	return pm + busy/float64(periodEnd-periodStart)*float64(p.DiskSpec.DynamicPower())
}

// choosePartitions solves the allocation: given per-disk energy estimates
// at a grid of candidate sizes, pick one size per disk minimising total
// energy subject to the total-banks budget. Classic multiple-choice
// knapsack by dynamic programming over the budget.
func choosePartitions(costs [][]float64, sizes []int, budget int) []int {
	nDisks := len(costs)
	if nDisks == 0 {
		return nil
	}
	nSizes := len(sizes)
	const inf = math.MaxFloat64 / 4

	// dp[d][b]: minimal cost for disks [0..d) using b budget units.
	dp := make([][]float64, nDisks+1)
	pick := make([][]int, nDisks+1)
	for i := range dp {
		dp[i] = make([]float64, budget+1)
		pick[i] = make([]int, budget+1)
		for j := range dp[i] {
			dp[i][j] = inf
			pick[i][j] = -1
		}
	}
	dp[0][0] = 0
	for d := 0; d < nDisks; d++ {
		for b := 0; b <= budget; b++ {
			if dp[d][b] >= inf {
				continue
			}
			for si := 0; si < nSizes; si++ {
				nb := b + sizes[si]
				if nb > budget {
					continue
				}
				c := dp[d][b] + costs[d][si]
				if c < dp[d+1][nb] {
					dp[d+1][nb] = c
					pick[d+1][nb] = si
				}
			}
		}
	}
	// Best final budget.
	bestB, bestC := -1, inf
	for b := 0; b <= budget; b++ {
		if dp[nDisks][b] < bestC {
			bestC, bestB = dp[nDisks][b], b
		}
	}
	if bestB < 0 {
		// Infeasible (budget smaller than nDisks minimum sizes): give
		// everyone the smallest size.
		out := make([]int, nDisks)
		for i := range out {
			out[i] = sizes[0]
		}
		return out
	}
	// Walk back the choices.
	out := make([]int, nDisks)
	b := bestB
	for d := nDisks; d > 0; d-- {
		si := pick[d][b]
		out[d-1] = sizes[si]
		b -= sizes[si]
	}
	return out
}

// sizeGrid returns the candidate partition sizes (in banks): a geometric
// ladder from one bank to the full budget, always including both ends.
func sizeGrid(budget, points int) []int {
	if points < 2 {
		points = 2
	}
	var out []int
	last := 0
	for i := 0; i < points; i++ {
		f := float64(i) / float64(points-1)
		v := int(math.Round(math.Pow(float64(budget), f)))
		if v < 1 {
			v = 1
		}
		if v != last {
			out = append(out, v)
			last = v
		}
	}
	return out
}
