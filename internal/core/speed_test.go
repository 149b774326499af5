package core

import (
	"math"
	"reflect"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/drpm"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
)

// speedParams is testParams with a derived DRPM ladder of the given
// size attached (0: no ladder at all).
func speedParams(levels int) Params {
	p := testParams()
	if levels > 0 {
		lad := drpm.DeriveLevels(p.DiskSpec, 0, levels)
		p.SpeedLevels = lad.Levels
		p.SpeedTransitionPerRPM = lad.TransitionPerRPM
	}
	return p
}

// TestSpeedSingleLevelBitIdentical is the ISSUE's bit-identity contract
// at the manager level: a one-level ladder must decide exactly like a
// build with no ladder, period after period, on both decide modes — the
// speed refinement must not run at all, so even carried state (hysteresis
// reference, last decision) stays byte-equal.
func TestSpeedSingleLevelBitIdentical(t *testing.T) {
	for _, mode := range []string{"batch", "incremental"} {
		t.Run(mode, func(t *testing.T) {
			pNone := testParams()
			pNone.HysteresisFrac = 0.05
			pOne := speedParams(1)
			pOne.HysteresisFrac = 0.05
			if len(pOne.SpeedLevels) != 1 {
				t.Fatalf("one-step ladder has %d levels", len(pOne.SpeedLevels))
			}
			a, err := NewManager(pNone)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewManager(pOne)
			if err != nil {
				t.Fatal(err)
			}
			t0 := simtime.Seconds(0)
			for period := 0; period < 4; period++ {
				o := zipfObservation(pNone, 2500+400*period, 1<<14, int64(3*period+5))
				o.CurrentBanks = a.Last().Banks
				o = shiftObservation(o, t0)
				t0 = o.PeriodEnd
				var da, db Decision
				if mode == "batch" {
					da = a.Decide(o)
					db = b.Decide(o)
				} else {
					da = a.DecideIncremental(feedIncremental(a, o))
					db = b.DecideIncremental(feedIncremental(b, o))
				}
				if !reflect.DeepEqual(da, db) {
					t.Fatalf("period %d: one-level ladder diverged from no ladder\nnone: %+v\none:  %+v",
						period, da, db)
				}
			}
		})
	}
}

// TestSpeedDecidePathsAgree pins the three decision paths against each
// other with the speed slate enabled: the batch oracle and the
// incremental streaming path must produce bit-identical (m, t_o, level)
// decisions, and every candidate they price must equal the retained
// sequential replay's — the speed refinement has a per-kernel
// implementation (refineSlateLevels/refineReplayLevels) and this is the
// proof they price identically.
func TestSpeedDecidePathsAgree(t *testing.T) {
	p := speedParams(4)
	p.HysteresisFrac = 0.05

	sweep, _ := NewManager(p)
	seq, _ := NewManager(p)
	inc, _ := NewManager(p)

	t0 := simtime.Seconds(0)
	sawSlow := false
	for period := 0; period < 5; period++ {
		o := zipfObservation(p, 3000+500*period, 1<<14, int64(7*period+1))
		o.CurrentBanks = sweep.Last().Banks
		o = shiftObservation(o, t0)
		t0 = o.PeriodEnd

		dSweep := sweep.Decide(o)
		checkReplay(t, seq, o, dSweep)
		dInc := inc.DecideIncremental(feedIncremental(inc, o))
		if !reflect.DeepEqual(dSweep, dInc) {
			t.Fatalf("period %d: sweep vs incremental diverged\nsweep: %+v\nincr:  %+v",
				period, dSweep, dInc)
		}
		if dSweep.Level > 0 {
			sawSlow = true
		}
	}
	if !sawSlow {
		t.Error("no period ever chose a reduced speed level; the slate never exercised the ladder")
	}
}

// TestSpeedPrefersSlowerLevelOnShortGaps is the scenario the tentpole
// exists for: idle gaps far below the break-even time make spin-down
// worthless (the single-speed slate picks t_o = +Inf and pays full idle
// power), but a slower platter speed still sheds power. The Pareto gaps
// zipfObservation generates average ~70 ms against t_be ≈ 12 s.
func TestSpeedPrefersSlowerLevelOnShortGaps(t *testing.T) {
	pSingle := testParams()
	pMulti := speedParams(4)
	single, _ := NewManager(pSingle)
	multi, _ := NewManager(pMulti)

	o := zipfObservation(pSingle, 4000, 1<<12, 3)
	dS := single.Decide(o)
	dM := multi.Decide(o)

	if !math.IsInf(float64(dS.Timeout), 1) {
		t.Fatalf("short-gap workload spun down anyway (t_o=%v); scenario broken", dS.Timeout)
	}
	if dM.Level == 0 {
		t.Fatalf("speed slate stayed at full speed: %+v", dM.Chosen)
	}
	if !(dM.Chosen.TotalPower < dS.Chosen.TotalPower) {
		t.Errorf("slower level did not price below full speed: %v >= %v",
			dM.Chosen.TotalPower, dS.Chosen.TotalPower)
	}
	if !dM.Chosen.Feasible {
		t.Error("winning slow-level candidate infeasible")
	}
}

// TestSpeedTransitionPremium tables the cross-level transition pricing
// edge cases: staying at the current level carries no premium, a bigger
// RPM swing costs more, and the premium is symmetric (it is billed at
// the higher of the two idle powers in both directions).
func TestSpeedTransitionPremium(t *testing.T) {
	p := speedParams(4)
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	base := Candidate{Banks: 8, MissBytes: 64 * simtime.MB, MemPower: 1, SpanS: 600}
	tc := TimeoutChoice{Timeout: 5, Unclamped: 5}
	const (
		requests = 100.0
		T        = 600.0
	)
	price := func(lvl, cur int) levelPrice {
		var lp levelPrice
		m.priceLevel(&lp, &base, lvl, cur, requests, 0, T, tc.Timeout, tc.Clamped, 0, 0)
		return lp
	}
	premium := func(lvl, cur int) float64 {
		return float64(price(lvl, cur).DiskPMPower) - float64(price(lvl, lvl).DiskPMPower)
	}

	if d := premium(2, 2); d != 0 {
		t.Errorf("same-level pricing carries a premium: %g W", d)
	}
	// Expected premium lvl!=cur: perRPM · |ΔRPM| · max(idle) / T.
	for _, tt := range []struct{ lvl, cur int }{{1, 0}, {3, 0}, {0, 3}, {2, 1}} {
		li, lc := p.SpeedLevels[tt.lvl], p.SpeedLevels[tt.cur]
		diff := math.Abs(float64(li.RPM - lc.RPM))
		hi := math.Max(float64(li.IdlePower), float64(lc.IdlePower))
		want := float64(p.SpeedTransitionPerRPM) * diff * hi / T
		if got := premium(tt.lvl, tt.cur); math.Abs(got-want) > 1e-12 {
			t.Errorf("premium(%d<-%d) = %g W, want %g W", tt.lvl, tt.cur, got, want)
		}
	}
	if premium(3, 0) <= premium(1, 0) {
		t.Error("max-swing transition not priced above a one-step transition")
	}
	if d := premium(3, 0) - premium(0, 3); math.Abs(d) > 1e-12 {
		t.Errorf("transition premium asymmetric by %g W", d)
	}
}

// TestSpeedDegenerateLadders covers the ladder shapes that must disable
// the refinement outright.
func TestSpeedDegenerateLadders(t *testing.T) {
	for _, n := range []int{0, 1} {
		m, err := NewManager(speedParams(n))
		if err != nil {
			t.Fatal(err)
		}
		if m.speedEnabled() {
			t.Errorf("%d-level ladder enabled the speed slate", n)
		}
		if d := m.Decide(zipfObservation(m.p, 2000, 1<<12, 11)); d.Level != 0 {
			t.Errorf("%d-level ladder decided level %d", n, d.Level)
		}
	}
}

// TestRestoreSpeedLevel checks the snapshot-level validation: a restored
// level must fit the configured ladder, and a ladderless manager only
// accepts full speed.
func TestRestoreSpeedLevel(t *testing.T) {
	ok := State{Banks: 64, Pages: 0, Timeout: 1}

	m, _ := NewManager(testParams())
	st := ok
	st.Level = 1
	if err := m.Restore(st); err == nil {
		t.Error("ladderless manager accepted level 1")
	}

	m4, _ := NewManager(speedParams(4))
	ok.Open = m4.Snapshot().Open // an empty period of the manager's geometry
	st = ok
	st.Level = 3
	if err := m4.Restore(st); err != nil {
		t.Errorf("level 3 rejected on a 4-level ladder: %v", err)
	}
	if got := m4.Last().Level; got != 3 {
		t.Errorf("restored level = %d, want 3", got)
	}
	for _, lvl := range []int{-1, 4} {
		st = ok
		st.Level = lvl
		if err := m4.Restore(st); err == nil {
			t.Errorf("level %d accepted on a 4-level ladder", lvl)
		}
	}
}

// TestSpeedParamsValidate covers the new Params.Validate checks.
func TestSpeedParamsValidate(t *testing.T) {
	p := speedParams(4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.SpeedTransitionPerRPM = -1 },
		func(p *Params) { p.SpeedTransitionPerRPM = simtime.Seconds(math.NaN()) },
		func(p *Params) { p.SpeedLevels[2].IdlePower = p.DiskSpec.StandbyPower }, // no headroom over standby
		func(p *Params) { p.SpeedLevels[1].TransferRate = 0 },
	}
	for i, mut := range bad {
		q := speedParams(4)
		q.SpeedLevels = append([]disk.SpeedLevel(nil), q.SpeedLevels...)
		mut(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid ladder accepted", i)
		}
	}
}

// BenchmarkDecideSpeed is BenchmarkDecideIncremental with a four-level
// ladder: the paper-scale slate priced at every speed level, from the
// ingested period. The alloc budget in ci/alloc_budget.txt pins the
// refinement to the scratch-reuse design — extra levels must cost folds,
// not allocations.
func BenchmarkDecideSpeed(b *testing.B) {
	p := DefaultParams(64*simtime.KB, 16*simtime.MB, 8192, disk.Barracuda(), mem.RDRAM(16*simtime.MB))
	p.HysteresisFrac = -1
	lad := drpm.DeriveLevels(p.DiskSpec, 0, 4)
	p.SpeedLevels = lad.Levels
	p.SpeedTransitionPerRPM = lad.TransitionPerRPM
	m, err := NewManager(p)
	if err != nil {
		b.Fatal(err)
	}
	inc := feedIncremental(m, zipfObservation(p, 1<<18, 1<<20, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := m.inputFromHist(&inc)
		m.decideFrom(in)
	}
}
