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

// partitioner solves the allocation: given per-disk energy estimates at a
// grid of candidate sizes, pick one size per disk minimising total energy
// subject to the total-banks budget, a multiple-choice knapsack. Its
// dynamic program runs over reachable budgets only, the sums of one grid
// size per disk so far, and keeps its buffers across period boundaries.
type partitioner struct {
	layers [][]partState // layers[d]: the budgets d disks can reach, ascending
	heads  []int         // per grid size, the next state of the layer to extend
	alloc  []int
}

// partState is one reachable budget: its least cost, and the state of the
// previous layer and the grid index that reached it.
type partState struct {
	budget int
	cost   float64
	from   int32
	size   int32
}

// choose returns one size per disk; the slice is reused by the next call.
// Each layer extends the previous one by every grid size: one ascending
// run per size, merged, so the budgets come out ascending. A budget keeps
// its least cost and, on a tie, the candidate from the lower previous
// budget, then the lower grid index: the first in the order a dense
// program over every budget visits them. The final pick is the lowest
// budget of least cost. With no feasible choice every disk gets the
// smallest size.
func (p *partitioner) choose(costs [][]float64, sizes []int, budget int) []int {
	nDisks := len(costs)
	if nDisks == 0 {
		return nil
	}
	const inf = math.MaxFloat64 / 4
	for len(p.layers) <= nDisks {
		p.layers = append(p.layers, nil)
	}
	p.layers[0] = append(p.layers[0][:0], partState{})
	for d := 0; d < nDisks; d++ {
		cur, next := p.layers[d], p.layers[d+1][:0]
		p.heads = append(p.heads[:0], make([]int, len(sizes))...)
		for {
			nb := budget + 1 // the least budget at the runs' heads
			for si, h := range p.heads {
				if h < len(cur) && cur[h].budget+sizes[si] < nb {
					nb = cur[h].budget + sizes[si]
				}
			}
			if nb > budget {
				break
			}
			best := partState{budget: nb, cost: inf, from: -1}
			for si, h := range p.heads {
				if h == len(cur) || cur[h].budget+sizes[si] != nb {
					continue
				}
				p.heads[si]++
				if c := cur[h].cost + costs[d][si]; c < best.cost || c == best.cost && int32(h) < best.from {
					best.cost, best.from, best.size = c, int32(h), int32(si)
				}
			}
			if best.from >= 0 {
				next = append(next, best)
			}
		}
		p.layers[d+1] = next
	}
	p.alloc = p.alloc[:0]
	for range costs {
		p.alloc = append(p.alloc, sizes[0])
	}
	best, bestC := -1, inf
	for i, st := range p.layers[nDisks] {
		if st.cost < bestC {
			best, bestC = i, st.cost
		}
	}
	for d := nDisks; d > 0 && best >= 0; d-- {
		st := p.layers[d][best]
		p.alloc[d-1] = sizes[st.size]
		best = int(st.from)
	}
	return p.alloc
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
