package core

import (
	"math"
	"testing"

	"jointpm/internal/lrusim"
)

// TestPricedLedgerSums pins the attribution invariant: for a
// non-fallback decision the ledger's components sum to the winner's
// priced total, TotalPower·SpanS, and the memory/disk split matches the
// candidate's own power breakdown.
func TestPricedLedgerSums(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := testParams()
		obs := zipfObservation(p, 4000, 1<<12, seed)
		m, _ := NewManager(p)
		d := m.Decide(obs)
		if d.Fallback {
			t.Fatalf("seed %d: unexpected fallback", seed)
		}
		c := d.Chosen
		if c.SpanS <= 0 {
			t.Fatalf("seed %d: SpanS = %v, want > 0", seed, c.SpanS)
		}
		l := d.PricedLedger(p)
		wantTotal := float64(c.TotalPower) * float64(c.SpanS)
		if rel := math.Abs(l.TotalJ()-wantTotal) / wantTotal; rel > 1e-9 {
			t.Errorf("seed %d: ledger total %.9g J vs priced total %.9g J (rel %g)",
				seed, l.TotalJ(), wantTotal, rel)
		}
		if want := float64(c.MemPower) * float64(c.SpanS); math.Abs(l.MemJ()-want) > 1e-9*want {
			t.Errorf("seed %d: MemJ = %g, want %g", seed, l.MemJ(), want)
		}
		wantDisk := (float64(c.DiskPMPower) + float64(c.DiskDynPower)) * float64(c.SpanS)
		if math.Abs(l.DiskJ()-wantDisk) > 1e-9*wantDisk {
			t.Errorf("seed %d: DiskJ = %g, want %g", seed, l.DiskJ(), wantDisk)
		}
		if l.DiskActiveJ < 0 || l.DiskSpinJ < 0 {
			t.Errorf("seed %d: negative component: %+v", seed, l)
		}
		if l.DiskStandbyJ != 0 {
			t.Errorf("seed %d: priced ledger has DiskStandbyJ = %g, want 0", seed, l.DiskStandbyJ)
		}
		// Spin-up accounting: the transition component is exactly
		// pd·t_be per predicted spin-up, and the delay cost is one
		// spin-up latency each.
		pd := float64(p.DiskSpec.StaticPower())
		tbe := float64(p.DiskSpec.BreakEven())
		if want := pd * tbe * float64(c.SpinUps); math.Abs(l.DiskSpinJ-want) > 1e-9 {
			t.Errorf("seed %d: DiskSpinJ = %g, want %g (%d spin-ups)", seed, l.DiskSpinJ, want, c.SpinUps)
		}
		if want := float64(c.SpinUps) * float64(p.DiskSpec.SpinUpTime); l.DelayS != want {
			t.Errorf("seed %d: DelayS = %g, want %g", seed, l.DelayS, want)
		}
		if math.IsInf(float64(c.Timeout), 1) {
			if c.SpinUps != 0 || c.StandbyS != 0 {
				t.Errorf("seed %d: spin-down disabled but SpinUps=%d StandbyS=%v", seed, c.SpinUps, c.StandbyS)
			}
		} else if c.SpinUps <= 0 {
			t.Errorf("seed %d: finite timeout %v with no predicted spin-ups", seed, c.Timeout)
		}
	}
}

// TestPricedLedgerFallback: degraded and empty decisions degrade to the
// held configuration's nap floor over the configured period.
func TestPricedLedgerFallback(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	d := m.Decide(batchObs{}) // empty period
	l := d.PricedLedger(p)
	want := float64(p.MemSpec.NapPower()) * float64(d.Banks) * float64(p.Period)
	if l.MemNapJ != want || l.DiskJ() != 0 || l.DelayS != 0 {
		t.Errorf("empty-period ledger = %+v, want nap floor %g J only", l, want)
	}

	fd := Decision{Banks: 3, Fallback: true, Chosen: Candidate{SpanS: 600, TotalPower: 99}}
	l = fd.PricedLedger(p)
	want = float64(p.MemSpec.NapPower()) * 3 * float64(p.Period)
	if l.MemNapJ != want || l.TotalJ() != want {
		t.Errorf("fallback ledger = %+v, want nap floor %g J only", l, want)
	}
}

// TestSpanHook: the hook sees one decide span per boundary on both
// paths and one ingest span per consumed period on the incremental
// path; a nil hook takes no clock readings (compile-time property, but
// the nil path must still decide identically — covered by the
// equivalence suites).
func TestSpanHook(t *testing.T) {
	type span struct {
		name string
		ns   int64
	}
	var got []span
	p := testParams()
	p.SpanHook = func(name string, ns int64) { got = append(got, span{name, ns}) }
	m, _ := NewManager(p)

	obs := zipfObservation(p, 2000, 1<<12, 7)
	m.Decide(obs)
	if len(got) != 1 || got[0].name != SpanDecide || got[0].ns < 0 {
		t.Fatalf("batch Decide spans = %v, want one %q", got, SpanDecide)
	}

	got = nil
	m.IngestBatch(pageRuns(obs.Log))
	m.DecideIncremental(Observation{
		CacheAccesses:  obs.CacheAccesses,
		CoalesceFactor: obs.CoalesceFactor,
		PeriodStart:    obs.PeriodStart,
		PeriodEnd:      obs.PeriodEnd,
	})
	if len(got) != 2 || got[0].name != SpanIngest || got[1].name != SpanDecide {
		t.Fatalf("incremental spans = %v, want [%q %q]", got, SpanIngest, SpanDecide)
	}
	if got[0].ns <= 0 {
		t.Errorf("ingest span = %d ns, want > 0 after %d references", got[0].ns, len(obs.Log))
	}

	// DiscardPeriod flushes the accumulated ingest span too.
	got = nil
	m.IngestBatch([]lrusim.DepthRun{{Time: 0, Page: 1, Pages: 1, Depth: lrusim.Cold}})
	m.DiscardPeriod()
	if len(got) != 1 || got[0].name != SpanIngest {
		t.Fatalf("DiscardPeriod spans = %v, want one %q", got, SpanIngest)
	}
}
