package core

import (
	"math"

	"jointpm/internal/qmodel"
	"jointpm/internal/simtime"
)

// This file extends the candidate slate's second dimension (the spin-down
// timeout t_o) with a third: the disk's DRPM speed level. Each candidate
// size is priced at every ladder level and keeps the cheapest (m, t_o, l)
// triple, so workloads whose idle gaps are too short to amortise a
// spin-down (the slate picks t_o = +Inf) can still shed disk power by
// slowing the platters.
//
// The refinement reuses the existing gap-log fold: a level change only
// remaps the idle/active power constants and the break-even point
// t_be(l) = E_tr / (P_idle(l) − P_standby), so valuing a level costs one
// extra TailStats fold over the already-built gap log per level — the
// incremental path stays O(banks + gaps). The invariant
// pd(l)·t_be(l) = E_tr at every level keeps the energy-attribution
// ledger's spin-up term (StaticPower·BreakEven·SpinUps) correct
// unchanged.
//
// Bit-identity contract: with zero or one ladder level, speedEnabled()
// is false and NONE of this code runs — decisions, counters, traces, and
// allocations are identical to a build without the speed dimension. The
// refinement itself is counter-silent (no metric increments) so the
// slate counters keep their per-size semantics.

// speedEnabled reports whether the slate prices the speed dimension.
func (m *Manager) speedEnabled() bool { return len(m.p.SpeedLevels) > 1 }

// curLevel returns the level the disk is currently running at (the last
// decision's level), clamped into the configured ladder.
func (m *Manager) curLevel() int {
	l := m.last.Level
	if l < 0 || l >= len(m.p.SpeedLevels) {
		return 0
	}
	return l
}

// timeoutAtLevel re-derives a candidate's timeout choice at another
// level's break-even time: the Pareto fit and the eq. 6 floor are
// level-independent (the floor prices spin-up *delay*, which the full
// 10 s spin-up dominates regardless of level), so only
// t_o = α·t_be(l) — or t_be(l) under the FixedTimeout ablation or a
// degenerate fit — and the clamp against the floor are recomputed.
func (m *Manager) timeoutAtLevel(tc0 TimeoutChoice, tbe float64) TimeoutChoice {
	tc := TimeoutChoice{Fit: tc0.Fit, FitOK: tc0.FitOK, Floor: tc0.Floor}
	to := tbe
	if tc0.FitOK && !m.p.FixedTimeout {
		to = tc0.Fit.Alpha * tbe
	}
	tc.Unclamped = simtime.Seconds(to)
	if simtime.Seconds(to) < tc.Floor {
		to = float64(tc.Floor)
		tc.Clamped = true
	}
	tc.Timeout = simtime.Seconds(to)
	return tc
}

// priceLevel re-prices one candidate at ladder level lvl, mirroring
// priceStats arithmetic exactly with the level's constants: seeks
// keep the spec seek time, rotation and transfer slow with the platter,
// idle/active powers drop quadratically/level-wise, and the spin-down
// valuation runs against the level's break-even time. A candidate at a
// level other than cur (the disk's current level) additionally carries a
// one-off transition premium — transPerRPM·|ΔRPM| seconds at the higher
// of the two idle powers, normalised over the period — so oscillating
// between levels is not free. The premium joins DiskPMPower (and thus
// the ledger's disk-active component), after the spin-down-vs-on test:
// the speed change happens whether or not the disk also sleeps.
//
// base supplies the level-independent fields (size, byte queries, fit,
// MemPower, SpanS); everything level-dependent is overwritten.
// Counter-silent by design (see the file comment).
func (m *Manager) priceLevel(base Candidate, lvl, cur int, requests, refillReqs, T float64, tc TimeoutChoice, tailTS float64, tailH int64) Candidate {
	p := m.p
	spec := p.DiskSpec
	l := p.SpeedLevels[lvl]
	c := base
	c.Level = lvl
	pd := float64(l.IdlePower) - float64(spec.StandbyPower)
	tbe := float64(spec.TransitionEnergy) / pd

	busy := requests*float64(spec.SeekTime+l.RotLatency) +
		float64(c.MissBytes)/l.TransferRate
	c.Utilization = busy / T
	if requests > 0 {
		es := busy / requests
		if w, err := qmodel.MG1WaitSCV(requests/T, es, 1); err == nil {
			c.PredictedWait = simtime.Seconds(w)
		} else {
			c.PredictedWait = simtime.Seconds(math.Inf(1))
		}
	}
	refillBusy := refillReqs*float64(spec.SeekTime+l.RotLatency) +
		float64(c.RefillBytes)/l.TransferRate
	c.DiskDynPower = simtime.Watts((busy + refillBusy/refillAmortizePeriods) / T *
		(float64(l.ActivePower) - float64(l.IdlePower)))

	c.TimeoutFloor = tc.Floor
	c.FloorClamped = tc.Clamped
	c.Timeout = simtime.Seconds(math.Inf(1))
	pm := pd // always-on default at this level
	ts := tailTS
	if ts > T {
		ts = T
	}
	if pmSpin := pd*(T-ts)/T + pd*tbe*float64(tailH)/T; pmSpin < pd {
		c.Timeout = tc.Timeout
		pm = pmSpin
		c.SpinUps = tailH
		c.StandbyS = simtime.Seconds(ts)
	} else {
		c.SpinUps = 0
		c.StandbyS = 0
	}
	if lvl != cur {
		curL := p.SpeedLevels[cur]
		diff := l.RPM - curL.RPM
		if diff < 0 {
			diff = -diff
		}
		hi := l.IdlePower
		if curL.IdlePower > hi {
			hi = curL.IdlePower
		}
		pm += float64(p.SpeedTransitionPerRPM) * float64(diff) * float64(hi) / T
	}
	c.DiskPMPower = simtime.Watts(pm)
	c.TotalPower = c.DiskPMPower + c.DiskDynPower + c.MemPower
	c.Feasible = c.Utilization <= p.UtilCap
	if math.IsNaN(c.Utilization) || math.IsInf(c.Utilization, 0) ||
		math.IsNaN(float64(c.TotalPower)) || math.IsInf(float64(c.TotalPower), 0) ||
		math.IsNaN(float64(c.Timeout)) {
		c.Feasible = false
	}
	// applyBudget minus its counter (the level-0 pass already counted this
	// size once; see the counter-silence contract above).
	c.OverBudget = false
	if m.budgetActive() && float64(c.TotalPower) > m.budgetW+budgetEps {
		c.OverBudget = true
	}
	return c
}

// betterLevel orders two pricings of the SAME size at different levels:
// within-budget beats over-budget when a budget is active (so capped
// shards see a slower level as an alternative to the infeasibility
// fallback), feasible beats infeasible, then lower power with the faster
// level breaking exact ties (least service-time risk for equal energy);
// between two infeasible pricings the lower utilization (the faster
// level) is closest to feasible.
func (m *Manager) betterLevel(a, b Candidate) bool {
	if m.budgetActive() {
		aok := a.Feasible && !a.OverBudget
		bok := b.Feasible && !b.OverBudget
		if aok != bok {
			return aok
		}
	}
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if a.Feasible {
		const eps = 1e-9
		if math.Abs(float64(a.TotalPower-b.TotalPower)) > eps {
			return a.TotalPower < b.TotalPower
		}
		return a.Level < b.Level
	}
	return a.Utilization < b.Utilization
}

// levelInputs recomputes the scalar pricing inputs for slate position i
// from the streaming reductions (identical arithmetic to priceStats).
func (m *Manager) levelInputs(in *decideInput, i int, refill simtime.Bytes) (requests, refillReqs, T float64) {
	s := &m.scratch
	requests = float64(s.nds[i]) / in.obs.CoalesceFactor
	refillReqs = (float64(refill) / float64(m.p.PageSize)) / in.obs.CoalesceFactor
	T = float64(m.p.Period)
	if covered := s.sweep.Sum[i]; covered > T {
		T = covered
	}
	return requests, refillReqs, T
}

// refineSlateLevels is the kernel-path speed refinement: after the
// level-0 slate is assembled (and phase 4's attribution fold has run),
// each extra ladder level costs one more TailStats fold over the same
// gap log — the to2/ts2/h2 scratch is reused, so no allocation. Each
// slate slot keeps one winner per size, now carrying its level; the
// outer coarse-to-fine size search is untouched.
func (m *Manager) refineSlateLevels(in *decideInput, banks []int, out []Candidate) {
	s := &m.scratch
	k := len(banks)
	p := m.p
	cur := m.curLevel()
	// The disk is not at full speed: the phase-3 level-0 pricing is
	// missing the cross-level transition premium. Re-price it (same tail
	// stats, premium added) before the levels compete.
	if cur != 0 {
		for i := 0; i < k; i++ {
			requests, refillReqs, T := m.levelInputs(in, i, out[i].RefillBytes)
			out[i] = m.priceLevel(out[i], 0, cur, requests, refillReqs, T,
				s.tcs[i], s.ts[i], s.hcnt[i])
		}
	}
	sw := &s.sweep
	for lvl := 1; lvl < len(p.SpeedLevels); lvl++ {
		pd := float64(p.SpeedLevels[lvl].IdlePower) - float64(p.DiskSpec.StandbyPower)
		tbe := float64(p.DiskSpec.TransitionEnergy) / pd
		for i := 0; i < k; i++ {
			s.to2[i] = float64(m.timeoutAtLevel(s.tcs[i], tbe).Timeout)
			s.ts2[i] = 0
			s.h2[i] = 0
		}
		sw.TailStats(s.to2, s.ts2, s.h2)
		for i := 0; i < k; i++ {
			tcl := m.timeoutAtLevel(s.tcs[i], tbe)
			requests, refillReqs, T := m.levelInputs(in, i, out[i].RefillBytes)
			c := m.priceLevel(out[i], lvl, cur, requests, refillReqs, T,
				tcl, s.ts2[i], s.h2[i])
			if m.betterLevel(c, out[i]) {
				out[i] = c
			}
		}
	}
}
