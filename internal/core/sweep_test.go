package core

import (
	"math/rand"
	"reflect"
	"testing"

	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
	"jointpm/internal/stats"
)

// zipfObservation builds a period observation with Zipf-skewed reuse over
// enough distinct pages to span many banks, plus Pareto-ish idle gaps —
// the shape a paper-scale server period produces.
func zipfObservation(p Params, refs int, universe int, seed int64) batchObs {
	rng := stats.NewRNG(seed)
	z := stats.NewZipf(stats.NewRNG(seed+1), universe, 0.9)
	s := lrusim.NewStackSim(1 << 20)
	log := make([]lrusim.DepthRecord, 0, refs)
	tm := 0.0
	for i := 0; i < refs; i++ {
		page := int64(z.Next())
		d := s.Reference(page)
		log = append(log, lrusim.DepthRecord{
			Time: simtime.Seconds(tm), Page: page, Depth: d, Bytes: p.PageSize,
		})
		tm += rng.Pareto(1.4, 0.02)
	}
	return batchObs{Log: log, Observation: Observation{
		CacheAccesses:  int64(refs),
		CoalesceFactor: 1.3,
		PeriodStart:    0,
		PeriodEnd:      simtime.Seconds(tm) + 5,
	}}
}

// TestDecideSweepMatchesReplay is the Decide-level equivalence property:
// every candidate the gap-log kernel prices in a decision must be
// bit-identical to the per-size sequential replay of the log, across
// randomized observations, with and without hysteresis/refill accounting.
func TestDecideSweepMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := testParams()
		if seed%2 == 0 {
			p.HysteresisFrac = 0.05
		}
		obs := zipfObservation(p, 4000, 1<<12, seed)
		if seed%2 == 0 {
			obs.CurrentBanks = 16
		}

		swept, _ := NewManager(p)
		replayed, _ := NewManager(p)
		checkReplay(t, replayed, obs, swept.Decide(obs))
	}
}

// TestEvaluateSlateMatchesEvaluate checks the slate evaluation against
// per-candidate evaluate for arbitrary (including non-grid) slates.
func TestEvaluateSlateMatchesEvaluate(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	obs := zipfObservation(p, 3000, 1<<11, 7)
	prof := buildDepthProfile(obs.Log, p.bankPages(), p.TotalBanks)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		slate := []int{1 + rng.Intn(4)}
		for len(slate) < 2+rng.Intn(10) {
			slate = append(slate, slate[len(slate)-1]+1+rng.Intn(6))
		}
		got := m.evaluateSlate(obs, slate, prof)
		for i, b := range slate {
			want := m.evaluate(obs, b, prof)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("trial %d slate %v bank %d: slate candidate %+v != evaluate %+v",
					trial, slate, b, got[i], want)
			}
		}
	}
}

// TestEvaluateSlateWorkerBounds covers degenerate slate shapes: an empty
// slate and a sparse one.
func TestEvaluateSlateWorkerBounds(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	obs := zipfObservation(p, 1000, 1<<10, 3)
	if got := m.evaluateSlate(obs, nil, nil); len(got) != 0 {
		t.Errorf("empty slate returned %d candidates", len(got))
	}
	got := m.evaluateSlate(obs, []int{1, 5, 9}, nil)
	if len(got) != 3 || got[1].Banks != 5 {
		t.Fatalf("sparse slate mispriced: %+v", got)
	}
	want := m.evaluate(obs, 5, nil)
	if !reflect.DeepEqual(got[1], want) {
		t.Errorf("sparse slate candidate differs from evaluate")
	}
}
