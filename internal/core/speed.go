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
// Each level is priced in place: into a levelPrice, the level-dependent
// fields of a candidate, compared with the size's incumbent Candidate by
// pointer, and written back only when it wins. The M/G/1 wait, which no
// comparison reads, is computed once per size, for the winning level.
//
// Bit-identity contract: with zero or one ladder level, speedEnabled()
// is false and NONE of this code runs — decisions, counters, traces, and
// allocations are identical to a build without the speed dimension. The
// refinement itself is counter-silent (no metric increments) so the
// slate counters keep their per-size semantics; evalSlate counts each
// size's final budget verdict after it.

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

// timeoutAtLevel re-derives a candidate's timeout at another level's
// break-even time and reports whether the eq. 6 floor clamped it: the
// Pareto fit and the floor are level-independent (the floor prices
// spin-up *delay*, which the full 10 s spin-up dominates regardless of
// level), so only t_o = α·t_be(l) — or t_be(l) under the FixedTimeout
// ablation or a degenerate fit — and the clamp against the floor are
// recomputed.
func (m *Manager) timeoutAtLevel(tc0 *TimeoutChoice, tbe float64) (simtime.Seconds, bool) {
	to := tbe
	if tc0.FitOK && !m.p.FixedTimeout {
		to = tc0.Fit.Alpha * tbe
	}
	if simtime.Seconds(to) < tc0.Floor {
		return tc0.Floor, true
	}
	return simtime.Seconds(to), false
}

// levelPrice is the level-dependent part of a candidate: what priceLevel
// derives from one ladder level and betterLevel compares. Every other
// Candidate field (size, byte queries, fit, floor, MemPower, SpanS) is
// the same at every level, and PredictedWait is left to the winner.
type levelPrice struct {
	Level        int
	Utilization  float64
	DiskPMPower  simtime.Watts
	DiskDynPower simtime.Watts
	TotalPower   simtime.Watts
	Timeout      simtime.Seconds
	StandbyS     simtime.Seconds
	SpinUps      int64
	FloorClamped bool
	Feasible     bool
	OverBudget   bool
}

// store writes lp's fields into the candidate it priced.
func (lp *levelPrice) store(c *Candidate) {
	c.Level = lp.Level
	c.Utilization = lp.Utilization
	c.DiskPMPower = lp.DiskPMPower
	c.DiskDynPower = lp.DiskDynPower
	c.TotalPower = lp.TotalPower
	c.Timeout = lp.Timeout
	c.StandbyS = lp.StandbyS
	c.SpinUps = lp.SpinUps
	c.FloorClamped = lp.FloorClamped
	c.Feasible = lp.Feasible
	c.OverBudget = lp.OverBudget
}

// busySeconds is a candidate's predicted disk busy time: requests
// positionings of seekRot seconds each plus bytes at rate bytes/s.
func busySeconds(requests float64, seekRot simtime.Seconds, bytes simtime.Bytes, rate float64) float64 {
	return requests*float64(seekRot) + float64(bytes)/rate
}

// predictedWait is the M/G/1 mean queueing delay of requests arrivals
// over T seconds that keep the disk busy for busy seconds (requests > 0).
// SCV 1 (exponential-like service) is a conservative default for the
// mixed request sizes the cache emits.
func predictedWait(requests, busy, T float64) simtime.Seconds {
	w, err := qmodel.MG1WaitSCV(requests/T, busy/requests, 1)
	if err != nil {
		return simtime.Seconds(math.Inf(1))
	}
	return simtime.Seconds(w)
}

// priceLevel prices candidate c at ladder level lvl into lp, mirroring
// priceStats arithmetic exactly with the level's constants: seeks keep
// the spec seek time, rotation and transfer slow with the platter,
// idle/active powers drop quadratically/level-wise, and the spin-down
// valuation runs against the level's break-even time, with the level's
// timeout to (clamped by the eq. 6 floor) and its tail reductions. A
// level other than cur (the disk's current level) additionally carries a
// one-off transition premium — transPerRPM·|ΔRPM| seconds at the higher
// of the two idle powers, normalised over the period — so oscillating
// between levels is not free. The premium joins DiskPMPower (and thus
// the ledger's disk-active component), after the spin-down-vs-on test:
// the speed change happens whether or not the disk also sleeps.
//
// c supplies the level-independent inputs (MissBytes, RefillBytes,
// MemPower) and is not written. Counter-silent by design (see the file
// comment).
func (m *Manager) priceLevel(lp *levelPrice, c *Candidate, lvl, cur int, requests, refillReqs, T float64, to simtime.Seconds, clamped bool, tailTS float64, tailH int64) {
	p := &m.p
	spec := &p.DiskSpec
	l := &p.SpeedLevels[lvl]
	pd := float64(l.IdlePower) - float64(spec.StandbyPower)
	tbe := float64(spec.TransitionEnergy) / pd

	busy := busySeconds(requests, spec.SeekTime+l.RotLatency, c.MissBytes, l.TransferRate)
	refillBusy := busySeconds(refillReqs, spec.SeekTime+l.RotLatency, c.RefillBytes, l.TransferRate)
	lp.Level = lvl
	lp.Utilization = busy / T
	lp.DiskDynPower = simtime.Watts((busy + refillBusy/refillAmortizePeriods) / T *
		(float64(l.ActivePower) - float64(l.IdlePower)))
	lp.FloorClamped = clamped
	lp.Timeout = simtime.Seconds(math.Inf(1))
	lp.SpinUps = 0
	lp.StandbyS = 0
	pm := pd // always-on default at this level
	ts := tailTS
	if ts > T {
		ts = T
	}
	if pmSpin := pd*(T-ts)/T + pd*tbe*float64(tailH)/T; pmSpin < pd {
		lp.Timeout = to
		pm = pmSpin
		lp.SpinUps = tailH
		lp.StandbyS = simtime.Seconds(ts)
	}
	if lvl != cur {
		curL := &p.SpeedLevels[cur]
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
	lp.DiskPMPower = simtime.Watts(pm)
	lp.TotalPower = lp.DiskPMPower + lp.DiskDynPower + c.MemPower
	lp.Feasible = lp.Utilization <= p.UtilCap
	if math.IsNaN(lp.Utilization) || math.IsInf(lp.Utilization, 0) ||
		math.IsNaN(float64(lp.TotalPower)) || math.IsInf(float64(lp.TotalPower), 0) ||
		math.IsNaN(float64(lp.Timeout)) {
		lp.Feasible = false
	}
	lp.OverBudget = m.budgetActive() && float64(lp.TotalPower) > m.budgetW+budgetEps
}

// betterLevel orders a pricing of a size at one level against the size's
// incumbent at another: within-budget beats over-budget when a budget is
// active (so capped shards see a slower level as an alternative to the
// infeasibility fallback), feasible beats infeasible, then lower power
// with the faster level breaking exact ties (least service-time risk for
// equal energy); between two infeasible pricings the lower utilization
// (the faster level) is closest to feasible.
func (m *Manager) betterLevel(a *levelPrice, b *Candidate) bool {
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
// outer coarse-to-fine size search is untouched. Last, each size gets
// the M/G/1 wait of its winning level, which priceStats leaves unset
// under a ladder.
func (m *Manager) refineSlateLevels(in *decideInput, out []Candidate) {
	s := &m.scratch
	k := len(out)
	p := &m.p
	cur := m.curLevel()
	var lp levelPrice
	// The disk is not at full speed: the phase-3 level-0 pricing is
	// missing the cross-level transition premium. Re-price it (same tail
	// stats, premium added) before the levels compete.
	if cur != 0 {
		for i := 0; i < k; i++ {
			requests, refillReqs, T := m.levelInputs(in, i, out[i].RefillBytes)
			m.priceLevel(&lp, &out[i], 0, cur, requests, refillReqs, T,
				s.tcs[i].Timeout, s.tcs[i].Clamped, s.ts[i], s.hcnt[i])
			lp.store(&out[i])
		}
	}
	sw := &s.sweep
	for lvl := 1; lvl < len(p.SpeedLevels); lvl++ {
		pd := float64(p.SpeedLevels[lvl].IdlePower) - float64(p.DiskSpec.StandbyPower)
		tbe := float64(p.DiskSpec.TransitionEnergy) / pd
		for i := 0; i < k; i++ {
			to, clamped := m.timeoutAtLevel(&s.tcs[i], tbe)
			s.to2[i] = float64(to)
			s.clamp2[i] = clamped
			s.ts2[i] = 0
			s.h2[i] = 0
		}
		sw.TailStats(s.to2, s.ts2, s.h2)
		for i := 0; i < k; i++ {
			requests, refillReqs, T := m.levelInputs(in, i, out[i].RefillBytes)
			m.priceLevel(&lp, &out[i], lvl, cur, requests, refillReqs, T,
				simtime.Seconds(s.to2[i]), s.clamp2[i], s.ts2[i], s.h2[i])
			if m.betterLevel(&lp, &out[i]) {
				lp.store(&out[i])
			}
		}
	}
	spec := &p.DiskSpec
	for i := 0; i < k; i++ {
		c := &out[i]
		requests, _, T := m.levelInputs(in, i, c.RefillBytes)
		if !(requests > 0) {
			continue
		}
		// A level-0 winner that was never re-priced keeps priceStats'
		// constants.
		seekRot, rate := spec.SeekTime+spec.RotationalLatency, spec.TransferRate
		if cur != 0 || c.Level != 0 {
			l := &p.SpeedLevels[c.Level]
			seekRot, rate = spec.SeekTime+l.RotLatency, l.TransferRate
		}
		c.PredictedWait = predictedWait(requests, busySeconds(requests, seekRot, c.MissBytes, rate), T)
	}
}
