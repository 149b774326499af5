package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"jointpm/internal/drpm"
	"jointpm/internal/obs"
	"jointpm/internal/qmodel"
	"jointpm/internal/simtime"
)

// This file keeps the decision path as it was before the ladder was
// priced in place and the hysteresis probe rode the final slate pass, as
// the reference the differential test (TestDecideMatchesReference) holds
// the production path to:
//
//   - the ladder refinement copies whole Candidates: each level is priced
//     into a copy of the size's candidate, which replaces the incumbent
//     when it wins, and every pricing computes its own M/G/1 wait;
//   - the search keeps its incumbent as a Candidate value;
//   - the hysteresis test prices an unpriced previous size with a slate
//     fold of its own after the search.
//
// The replay oracle's per-candidate refinement (refineReplayLevels) uses
// the same whole-Candidate pricing. Only the budget counter follows the
// production rule: each priced size's final verdict, after the ladder.

// TestDecideMatchesReference is the differential proof for the ladder
// priced in place and the hysteresis probe riding the final slate pass:
// twin managers, one deciding through the production path and one
// through the reference above, must produce reflect.DeepEqual decisions
// (Candidates included) and equal metric registries, period after
// period. The grid crosses random light periods with budget (none,
// slack, binding), ladder size (1–5 levels), the disk's current level,
// hysteresis (off, the default, 0.2) and metrics (off, on); each
// configuration also draws its enumeration unit, its starting size and
// its coalesce factors at random, so the rider lands below, inside and
// above the final pass.
func TestDecideMatchesReference(t *testing.T) {
	base := boundaryParams()
	rng := rand.New(rand.NewSource(25))
	var streams [][]batchObs
	for n := 4; n <= 6; n++ {
		reach := make([]int, n)
		for i := range reach {
			reach[i] = 40 + rng.Intn(1200)
		}
		streams = append(streams, lightStream(base, reach))
	}
	budgets := []struct {
		name string
		w    float64
	}{{"none", 0}, {"slack", 1000}, {"binding", boundaryBudgetW}}
	hysteresis := []struct {
		name string
		h    float64
	}{{"off", -1}, {"default", 0}, {"0.2", 0.2}}

	refProbes = 0
	slower, held, over := 0, 0, 0
	for levels := 1; levels <= 5; levels++ {
		for cur := 0; cur < levels; cur++ {
			for _, bud := range budgets {
				for _, hy := range hysteresis {
					for _, metrics := range []bool{false, true} {
						name := fmt.Sprintf("levels=%d/cur=%d/budget=%s/hysteresis=%s/metrics=%v",
							levels, cur, bud.name, hy.name, metrics)
						p := base
						lad := drpm.DeriveLevels(p.DiskSpec, 0, levels)
						p.SpeedLevels = lad.Levels
						p.SpeedTransitionPerRPM = lad.TransitionPerRPM
						p.HysteresisFrac = hy.h
						p.EnumUnit = p.BankSize * simtime.Bytes(1+rng.Intn(3))
						newMgr := func() *Manager {
							q := p
							if metrics {
								q.Metrics = obs.NewRegistry()
							}
							m, err := NewManager(q)
							if err != nil {
								t.Fatal(err)
							}
							m.SetPowerBudget(bud.w)
							return m
						}
						stream := streams[rng.Intn(len(streams))]
						// Start anywhere, or next to where the first search
						// ends, so that the rider also lands inside the final
						// pass, off its grid.
						st := State{Banks: 1 + rng.Intn(p.TotalBanks), Timeout: p.DiskSpec.BreakEven(), Level: cur}
						st.Open = newMgr().Snapshot().Open // an empty period of the managers' geometry
						if rng.Intn(2) == 0 {
							scout := newMgr()
							if err := scout.Restore(st); err != nil {
								t.Fatal(err)
							}
							d := scout.DecideIncremental(feedIncremental(scout, stream[0]))
							st.Banks = min(max(d.Chosen.Banks+rng.Intn(7)-3, 1), p.TotalBanks)
						}
						prod, ref := newMgr(), newMgr()
						if err := prod.Restore(st); err != nil {
							t.Fatal(err)
						}
						if err := ref.Restore(st); err != nil {
							t.Fatal(err)
						}
						for i, o := range stream {
							o.CurrentBanks = prod.Last().Banks
							o.CoalesceFactor = 1 + 2*rng.Float64()
							want := ref.decideIncrementalRef(feedIncremental(ref, o))
							got := prod.DecideIncremental(feedIncremental(prod, o))
							if !reflect.DeepEqual(want, got) {
								t.Fatalf("%s: period %d: decision differs from the reference\nref:  %+v\nprod: %+v",
									name, i, want, got)
							}
							if got.Level > 0 {
								slower++
							}
							if got.OverBudget || got.Evaluated > 0 && got.Candidates[0].OverBudget {
								over++
							}
						}
						if a, b := ref.p.Metrics.Snapshot(), prod.p.Metrics.Snapshot(); !reflect.DeepEqual(a, b) {
							t.Fatalf("%s: metrics differ from the reference\nref:  %+v\nprod: %+v", name, a, b)
						}
						held += int(prod.p.Metrics.CounterValue("core.decide.hysteresis_holds"))
					}
				}
			}
		}
	}
	// The grid must reach what the change touches: the rider, slower
	// levels, a binding budget and hysteresis holds.
	if refProbes == 0 || slower == 0 || over == 0 || held == 0 {
		t.Fatalf("grid missed a path: %d probes, %d slower-level decisions, %d over-budget, %d holds",
			refProbes, slower, over, held)
	}
	t.Logf("%d probes, %d slower-level decisions, %d with over-budget sizes, %d holds", refProbes, slower, over, held)
}

// refProbes counts the reference's separate hysteresis probes, which the
// production path prices as rider lanes.
var refProbes int

// decideIncrementalRef is decideIncremental through decideFromRef.
func (m *Manager) decideIncrementalRef(o Observation) Decision {
	m.met.decisions.Inc()
	refs := int64(0)
	if m.hist != nil {
		refs = m.hist.Refs()
	}
	if refs == 0 || o.CacheAccesses == 0 {
		d := m.emptyDecision(o, int(refs))
		if m.hist != nil {
			m.hist.Reset()
		}
		return d
	}
	if o.CoalesceFactor < 1 {
		o.CoalesceFactor = 1
	}
	if d, ok := m.tryDriftHold(&o); ok {
		m.hist.Reset()
		return d
	}
	d := m.decideFromRef(m.inputFromHist(&o))
	m.hist.Reset()
	return d
}

// decideFromRef is decideFrom with the incumbent kept by value and the
// hysteresis probe priced on its own.
func (m *Manager) decideFromRef(in *decideInput) Decision {
	s := &m.scratch
	unitBanks := int(m.p.EnumUnit / m.p.BankSize)
	usefulBanks := int((in.maxDepth + m.p.bankPages() - 1) / m.p.bankPages())
	hiBanks := usefulBanks + unitBanks
	if hiBanks > m.p.TotalBanks {
		hiBanks = m.p.TotalBanks
	}
	if hiBanks < m.p.MinBanks {
		hiBanks = m.p.MinBanks
	}
	if len(s.seen) < m.p.TotalBanks+1 {
		s.seen = make([]bool, m.p.TotalBanks+1)
	}
	s.all = s.all[:0]

	lo, hi := m.p.MinBanks, hiBanks
	var best Candidate
	bestSet := false
	evaluated := 0
	for {
		span := hi - lo
		stepBanks := unitBanks
		if per := m.p.MaxCandidatesPerPass; span/stepBanks+1 > per {
			stepBanks = span / (per - 1)
			stepBanks -= stepBanks % unitBanks
			if stepBanks < unitBanks {
				stepBanks = unitBanks
			}
		}
		s.slate = s.slate[:0]
		for b := lo; ; b += stepBanks {
			if b > hi {
				b = hi
			}
			if !s.seen[b] {
				s.seen[b] = true
				s.slate = append(s.slate, b)
			}
			if b == hi {
				break
			}
		}
		base := len(s.all)
		s.all = growCandidates(s.all, len(s.slate))
		m.evalSlateRef(in, s.slate, s.all[base:])
		for i := base; i < len(s.all); i++ {
			evaluated++
			if !bestSet || m.betterCand(&s.all[i], &best) {
				best, bestSet = s.all[i], true
			}
		}
		if stepBanks <= unitBanks {
			break
		}
		lo = best.Banks - stepBanks
		hi = best.Banks + stepBanks
		if lo < m.p.MinBanks {
			lo = m.p.MinBanks
		}
		if hi > hiBanks {
			hi = hiBanks
		}
	}

	held := false
	if h := m.p.HysteresisFrac; h >= 0 && best.Banks != m.last.Banks && m.last.Banks > 0 {
		if h == 0 {
			h = 0.05
		}
		prevBanks := m.last.Banks
		if prevBanks < m.p.MinBanks {
			prevBanks = m.p.MinBanks
		}
		if prevBanks > m.p.TotalBanks {
			prevBanks = m.p.TotalBanks
		}
		var prev Candidate
		if s.seen[prevBanks] {
			for i := range s.all {
				if s.all[i].Banks == prevBanks {
					prev = s.all[i]
					break
				}
			}
		} else {
			base := len(s.all)
			s.all = growCandidates(s.all, 1)
			m.evalSlateRef(in, s.slateInts(prevBanks), s.all[base:])
			prev = s.all[base]
			evaluated++
			refProbes++
		}
		hold := prev.Feasible && best.Feasible &&
			float64(best.TotalPower) > (1-h)*float64(prev.TotalPower)
		if m.budgetActive() {
			if prev.OverBudget && !best.OverBudget {
				hold = false
			} else if prev.Feasible && !prev.OverBudget && best.OverBudget {
				hold = true
			}
		}
		if hold {
			best = prev
			held = true
			m.met.hysteresis.Inc()
		}
	}
	return m.finishDecision(in, &best, evaluated, held)
}

// evalSlateRef is evalSlate with the whole-Candidate refinement. Level 0
// gets the M/G/1 wait priceStats computed for every size before the
// ladder was priced in place.
func (m *Manager) evalSlateRef(in *decideInput, banks []int, out []Candidate) {
	if len(banks) == 0 {
		return
	}
	m.priceSlate(in, banks, out)
	if m.speedEnabled() {
		spec := m.p.DiskSpec
		for i := range out {
			c := &out[i]
			requests, _, T := m.levelInputs(in, i, c.RefillBytes)
			busy := requests*float64(spec.SeekTime+spec.RotationalLatency) +
				float64(c.MissBytes)/spec.TransferRate
			if requests > 0 {
				es := busy / requests
				if w, err := qmodel.MG1WaitSCV(requests/T, es, 1); err == nil {
					c.PredictedWait = simtime.Seconds(w)
				} else {
					c.PredictedWait = simtime.Seconds(math.Inf(1))
				}
			}
		}
		m.refineSlateLevelsRef(in, banks, out)
	}
	m.countOverBudget(out)
}

// refineSlateLevelsRef is the whole-Candidate kernel-path refinement.
func (m *Manager) refineSlateLevelsRef(in *decideInput, banks []int, out []Candidate) {
	s := &m.scratch
	k := len(banks)
	p := m.p
	cur := m.curLevel()
	if cur != 0 {
		for i := 0; i < k; i++ {
			requests, refillReqs, T := m.levelInputs(in, i, out[i].RefillBytes)
			out[i] = m.priceLevelRef(out[i], 0, cur, requests, refillReqs, T,
				s.tcs[i], s.ts[i], s.hcnt[i])
		}
	}
	sw := &s.sweep
	for lvl := 1; lvl < len(p.SpeedLevels); lvl++ {
		pd := float64(p.SpeedLevels[lvl].IdlePower) - float64(p.DiskSpec.StandbyPower)
		tbe := float64(p.DiskSpec.TransitionEnergy) / pd
		for i := 0; i < k; i++ {
			s.to2[i] = float64(m.timeoutAtLevelRef(s.tcs[i], tbe).Timeout)
			s.ts2[i] = 0
			s.h2[i] = 0
		}
		sw.TailStats(s.to2, s.ts2, s.h2)
		for i := 0; i < k; i++ {
			tcl := m.timeoutAtLevelRef(s.tcs[i], tbe)
			requests, refillReqs, T := m.levelInputs(in, i, out[i].RefillBytes)
			c := m.priceLevelRef(out[i], lvl, cur, requests, refillReqs, T,
				tcl, s.ts2[i], s.h2[i])
			if m.betterLevelRef(c, out[i]) {
				out[i] = c
			}
		}
	}
}

// timeoutAtLevelRef re-derives a timeout choice at another level's
// break-even time.
func (m *Manager) timeoutAtLevelRef(tc0 TimeoutChoice, tbe float64) TimeoutChoice {
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

// priceLevelRef re-prices a copy of base at ladder level lvl.
func (m *Manager) priceLevelRef(base Candidate, lvl, cur int, requests, refillReqs, T float64, tc TimeoutChoice, tailTS float64, tailH int64) Candidate {
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
	pm := pd
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
	c.OverBudget = false
	if m.budgetActive() && float64(c.TotalPower) > m.budgetW+budgetEps {
		c.OverBudget = true
	}
	return c
}

// betterLevelRef orders two pricings of the same size at different
// levels, as betterLevel does.
func (m *Manager) betterLevelRef(a, b Candidate) bool {
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
