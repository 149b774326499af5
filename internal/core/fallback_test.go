package core

import (
	"math"
	"testing"

	"jointpm/internal/lrusim"
	"jointpm/internal/obs"
	"jointpm/internal/pareto"
	"jointpm/internal/simtime"
)

// TestChooseTimeoutDegenerateSamples drives the fitter's edge cases
// through ChooseTimeout: each degenerate sample must keep the
// 2-competitive t_be, report FitOK=false, and bump the fit_degenerate
// counter; the near-critical heavy tail must survive via the α clamp.
func TestChooseTimeoutDegenerateSamples(t *testing.T) {
	cases := []struct {
		name      string
		intervals []float64
		fitOK     bool
	}{
		{"empty", nil, false},
		// Constant sample: mean == min == β, no tail to fit.
		{"constant", []float64{5, 5, 5, 5}, false},
		// Two-point sample entirely below the coalescing window: the β
		// floor swallows both points and the mean cannot exceed β.
		{"two-point sub-window", []float64{0.05, 0.08}, false},
		// Heavy tail with raw α ≤ 1 (mean ≫ β): not degenerate — the
		// moments estimate is clamped up to MinAlpha and stays usable.
		{"heavy tail clamped", []float64{0.2, 1000, 2000}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			p := testParams()
			p.Metrics = reg
			m, err := NewManager(p)
			if err != nil {
				t.Fatal(err)
			}
			tc := m.ChooseTimeout(c.intervals, 100, 10000, float64(p.Period))
			tbe := p.DiskSpec.BreakEven()
			if tc.FitOK != c.fitOK {
				t.Fatalf("FitOK = %v, want %v", tc.FitOK, c.fitOK)
			}
			deg := reg.CounterValue("core.decide.fit_degenerate")
			if !c.fitOK {
				if deg != 1 {
					t.Errorf("fit_degenerate = %d, want 1", deg)
				}
				if math.Abs(float64(tc.Timeout-tbe)) > 1e-9 {
					t.Errorf("degenerate timeout = %v, want t_be %v", tc.Timeout, tbe)
				}
				return
			}
			if deg != 0 {
				t.Errorf("fit_degenerate = %d on a clamped-but-valid fit", deg)
			}
			if tc.Fit.Alpha != pareto.MinAlpha {
				t.Errorf("heavy tail alpha = %g, want clamp %g", tc.Fit.Alpha, pareto.MinAlpha)
			}
			if !tc.Fit.Valid() {
				t.Error("clamped fit reported invalid")
			}
		})
	}
}

// burstLog returns a log whose accesses all land at one instant: every
// candidate size then sees a single idle interval spanning the rest of
// the period, which no Pareto fit can be derived from (mean == min).
func burstLog(p Params, n int) []lrusim.DepthRecord {
	log := make([]lrusim.DepthRecord, n)
	for i := range log {
		log[i] = lrusim.DepthRecord{Time: 0, Page: int64(i), Depth: lrusim.Cold, Bytes: p.PageSize}
	}
	return log
}

// TestDecideFallbackNoHistory: a first-ever decision over a degenerate
// observation must fall back to the manager's safe default — all banks,
// 2-competitive timeout — and say so.
func TestDecideFallbackNoHistory(t *testing.T) {
	reg := obs.NewRegistry()
	p := testParams()
	p.Metrics = reg
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Decide(batchObs{Log: burstLog(p, 50), Observation: Observation{
		CacheAccesses:  50,
		CoalesceFactor: 1,
		PeriodStart:    0,
		PeriodEnd:      p.Period,
	}})
	if !d.Fallback {
		t.Fatal("degenerate observation did not trigger fallback")
	}
	if d.Banks != p.TotalBanks {
		t.Errorf("fallback banks = %d, want safe default %d", d.Banks, p.TotalBanks)
	}
	if math.Abs(float64(d.Timeout-p.DiskSpec.BreakEven())) > 1e-9 {
		t.Errorf("fallback timeout = %v, want t_be %v", d.Timeout, p.DiskSpec.BreakEven())
	}
	if got := reg.CounterValue("core.decide.fallback_decisions"); got != 1 {
		t.Errorf("fallback_decisions = %d, want 1", got)
	}
	if got := reg.CounterValue("core.decide.fit_degenerate"); got == 0 {
		t.Error("fit_degenerate never incremented")
	}
	// The distrusted winner is still journalled for introspection.
	if d.Chosen.FitOK {
		t.Error("fallback decision carries a trusted fit")
	}
}

// TestDecideFallbackHoldsPrevious: once the manager has real history,
// a degenerate period holds the previous configuration, not the
// default.
func TestDecideFallbackHoldsPrevious(t *testing.T) {
	p := testParams()
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	// A healthy period: cold misses at growing gaps give a clean
	// multi-interval sample (a constant spacing would itself be a
	// degenerate constant sample) and a trusted decision.
	var good []lrusim.DepthRecord
	gap := 10.0
	for tm := 10.0; tm < float64(p.Period); tm += gap {
		good = append(good, lrusim.DepthRecord{Time: simtime.Seconds(tm), Depth: lrusim.Cold, Bytes: p.PageSize})
		gap += 15
	}
	d1 := m.Decide(batchObs{Log: good, Observation: Observation{
		CacheAccesses: int64(len(good)),
		PeriodStart:   0,
		PeriodEnd:     p.Period,
	}})
	if d1.Fallback {
		t.Fatal("healthy observation fell back")
	}

	d2 := m.Decide(batchObs{Log: burstLog(p, 50), Observation: Observation{
		CacheAccesses: 50,
		PeriodStart:   p.Period,
		PeriodEnd:     2 * p.Period,
		CurrentBanks:  d1.Banks,
	}})
	if !d2.Fallback {
		t.Fatal("degenerate observation did not trigger fallback")
	}
	if d2.Banks != d1.Banks || d2.Pages != d1.Pages {
		t.Errorf("fallback held %d banks, previous decision chose %d", d2.Banks, d1.Banks)
	}
	if d2.Timeout != d1.Timeout {
		t.Errorf("fallback timeout %v, previous %v", d2.Timeout, d1.Timeout)
	}
	if m.Last().Banks != d1.Banks {
		t.Errorf("manager history moved to %d banks during fallback", m.Last().Banks)
	}
}
