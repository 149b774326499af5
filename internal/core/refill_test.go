package core

import (
	"testing"

	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
)

// TestRefillChargesGrowthOnly: candidates larger than the current size
// carry the re-fetch cost of the grown region; candidates at or below the
// current size carry none.
func TestRefillChargesGrowthOnly(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)

	// Working set deep enough that hits land beyond 2 banks. The stack is
	// warmed before logging starts: refills only apply to pages whose
	// residence predates the period (a page first touched cold within the
	// period misses once at any size and is already in MissBytes).
	bankPages := p.bankPages()
	ws := 6 * bankPages
	s := lrusim.NewStackSim(1 << 20)
	for pg := int64(0); pg < ws; pg++ {
		s.Reference(pg)
	}
	var log []lrusim.DepthRecord
	tm := 0.0
	for i := 0; i < 3000; i++ {
		pg := int64(i) % ws
		d := s.Reference(pg)
		log = append(log, lrusim.DepthRecord{Time: simtime.Seconds(tm), Page: pg, Depth: d, Bytes: p.PageSize})
		tm += 0.2
	}
	obs := batchObs{Log: log, Observation: Observation{
		CacheAccesses: 3000,
		CurrentBanks:  2,
	}}

	atCurrent := m.evaluate(obs, 2, nil)
	if atCurrent.RefillBytes != 0 {
		t.Errorf("candidate at current size charged refill %v", atCurrent.RefillBytes)
	}
	below := m.evaluate(obs, 1, nil)
	if below.RefillBytes != 0 {
		t.Errorf("shrink candidate charged refill %v", below.RefillBytes)
	}
	grown := m.evaluate(obs, 6, nil)
	if grown.RefillBytes == 0 {
		t.Error("grown candidate carries no refill cost")
	}
	// The refill band widens with the candidate: growing to 6 banks
	// re-fetches at least as much as growing to 4.
	mid := m.evaluate(obs, 4, nil)
	if grown.RefillBytes < mid.RefillBytes {
		t.Errorf("refill not monotone in growth: 6 banks %v < 4 banks %v",
			grown.RefillBytes, mid.RefillBytes)
	}
	// Refill raises the energy estimate (but deliberately not the
	// utilization feasibility test) relative to an observation that
	// claims the cache was already large.
	warm := obs
	warm.CurrentBanks = 6
	grownWarm := m.evaluate(warm, 6, nil)
	if grown.DiskDynPower <= grownWarm.DiskDynPower {
		t.Errorf("refill did not raise dynamic power: %v vs %v",
			grown.DiskDynPower, grownWarm.DiskDynPower)
	}
	if grown.Utilization != grownWarm.Utilization {
		t.Errorf("refill leaked into the utilization feasibility test: %g vs %g",
			grown.Utilization, grownWarm.Utilization)
	}
}

// TestRefillDampsOscillation: with refill accounting, a manager that just
// shrank does not immediately bounce back to a much larger size when the
// marginal benefit is small.
func TestRefillDampsOscillation(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	bankPages := p.bankPages()

	// A workload whose reuse sits at ~4 banks with a thin tail to 12.
	s := lrusim.NewStackSim(1 << 20)
	var log []lrusim.DepthRecord
	tm := 0.0
	for i := 0; i < 4000; i++ {
		var page int64
		if i%10 == 0 {
			page = 4*bankPages + int64(i/10)%(8*bankPages) // deep tail
		} else {
			page = int64(i) % (4 * bankPages)
		}
		d := s.Reference(page)
		log = append(log, lrusim.DepthRecord{Time: simtime.Seconds(tm), Page: page, Depth: d, Bytes: p.PageSize})
		tm += 0.15
	}

	cold := batchObs{Log: log, Observation: Observation{CacheAccesses: 4000, CurrentBanks: 4}}
	withRefill := m.Decide(cold)

	m2, _ := NewManager(p)
	noRefill := cold
	noRefill.CurrentBanks = 0 // disables refill accounting
	without := m2.Decide(noRefill)

	if withRefill.Banks > without.Banks {
		t.Errorf("refill accounting grew memory more (%d) than without (%d)",
			withRefill.Banks, without.Banks)
	}
}
