package core

import (
	"math"
	"math/rand"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
)

func TestDepthProfileBuckets(t *testing.T) {
	// bankPages = 4; maxBanks = 3: 1 bank covers depths ≤ 4, 2 banks ≤ 8,
	// 3 banks ≤ 12, and deeper references fall in the last bank's bucket.
	// Every log comes from a StackSim, as the profile's first-touch rule
	// requires. The stack is warmed with a random prefix and gets a random
	// window, so pages touched in the period are evicted in some trials.
	// The expected values replay the log naively, with a set of the pages
	// touched so far deciding first access.
	const bankPages, maxBanks = 4, 3
	rng := rand.New(rand.NewSource(7))
	var repeats, grownRefills int
	for trial := 0; trial < 300; trial++ {
		universe := 1 + rng.Intn(6*bankPages)
		s := lrusim.NewStackSim(1 + rng.Intn(5*bankPages))
		for i, warm := 0, rng.Intn(2*universe); i < warm; i++ {
			s.Reference(int64(rng.Intn(universe)))
		}
		log := make([]lrusim.DepthRecord, 1+rng.Intn(60))
		for i := range log {
			pg := int64(rng.Intn(universe))
			log[i] = lrusim.DepthRecord{Page: pg, Depth: s.Reference(pg), Bytes: simtime.Bytes(1 + rng.Intn(10))}
		}
		p := buildDepthProfile(log, bankPages, maxBanks)

		var cold simtime.Bytes
		var bytesAt, firstAt [maxBanks + 1]simtime.Bytes // non-cold and first-access bytes per bank
		seen := make(map[int64]bool)
		for _, r := range log {
			if r.Depth == lrusim.Cold {
				cold += r.Bytes
				seen[r.Page] = true
				continue
			}
			bank := min((r.Depth-1)/bankPages+1, maxBanks)
			bytesAt[bank] += r.Bytes
			if seen[r.Page] {
				repeats++ // a later access of the page: total, not first
			} else {
				seen[r.Page] = true
				firstAt[bank] += r.Bytes
			}
		}
		if p.cold != cold {
			t.Fatalf("trial %d: cold = %d, want %d", trial, p.cold, cold)
		}
		// missBytes: cold plus the non-cold bytes beyond the capacity.
		missAt := func(banks int) simtime.Bytes {
			m := cold
			for b := banks + 1; b <= maxBanks; b++ {
				m += bytesAt[b]
			}
			return m
		}
		for _, banks := range []int{0, 1, 2, 3, 99} {
			if got, want := p.missBytes(banks), missAt(min(banks, maxBanks)); got != want {
				t.Fatalf("trial %d: missBytes(%d) = %d, want %d", trial, banks, got, want)
			}
		}
		// refillBytes: the first-access bytes of the banks gained.
		firstIn := func(current, banks int) simtime.Bytes {
			var f simtime.Bytes
			for b := current + 1; b <= banks; b++ {
				f += firstAt[b]
			}
			return f
		}
		refills := []struct {
			current, banks int
			want           simtime.Bytes
		}{
			{0, 3, 0}, // refill accounting disabled
			{1, 1, 0}, // no growth
			{2, 1, 0}, // shrink
			{1, 2, firstIn(1, 2)},
			{1, 3, firstIn(1, 3)},
			{2, 3, firstIn(2, 3)},
		}
		for _, tt := range refills {
			if got := p.refillBytes(tt.current, tt.banks); got != tt.want {
				t.Fatalf("trial %d: refillBytes(%d→%d) = %d, want %d", trial, tt.current, tt.banks, got, tt.want)
			}
		}
		if refills[4].want > 0 {
			grownRefills++
		}
	}
	if repeats == 0 || grownRefills == 0 {
		t.Fatalf("trials never repeated a page (%d) or refilled a grown bank (%d)", repeats, grownRefills)
	}
}

func TestChooseTimeoutFallback(t *testing.T) {
	m, _ := NewManager(testParams())
	tbe := float64(testParams().DiskSpec.BreakEven())
	// Degenerate sample (single interval): fall back to the
	// two-competitive timeout.
	tc := m.ChooseTimeout([]float64{500}, 1, 100, 600)
	if tc.FitOK {
		t.Error("single interval should not fit")
	}
	if math.Abs(float64(tc.Timeout)-tbe) > 1e-9 {
		t.Errorf("fallback timeout = %v, want t_be", tc.Timeout)
	}
	// Empty sample likewise.
	tc = m.ChooseTimeout(nil, 0, 0, 600)
	if tc.FitOK || math.Abs(float64(tc.Timeout)-tbe) > 1e-9 {
		t.Errorf("empty-sample choice = %+v", tc)
	}
}

func TestChooseTimeoutFixedAblation(t *testing.T) {
	p := testParams()
	p.FixedTimeout = true
	m, _ := NewManager(p)
	tbe := float64(p.DiskSpec.BreakEven())
	sample := []float64{5, 8, 13, 21, 34, 55, 89, 144}
	tc := m.ChooseTimeout(sample, 8, 1000, 600)
	if !tc.FitOK {
		t.Fatal("fit failed")
	}
	if tc.Floor == 0 && math.Abs(float64(tc.Timeout)-tbe) > 1e-9 {
		t.Errorf("fixed-timeout ablation returned %v, want t_be", tc.Timeout)
	}
}

func TestEmpiricalPMPower(t *testing.T) {
	spec := disk.Barracuda()
	pd := float64(spec.StaticPower())
	tbe := float64(spec.BreakEven())
	// No intervals: always-on power.
	if got := EmpiricalPMPower(nil, 10, 600, spec); math.Abs(got-pd) > 1e-9 {
		t.Errorf("no intervals: %g, want pd", got)
	}
	// One 300 s interval with a 10 s timeout over a 600 s period:
	// off 290 s, one transition.
	want := pd*(600-290)/600 + pd*tbe*1/600
	if got := EmpiricalPMPower([]float64{300}, 10, 600, spec); math.Abs(got-want) > 1e-9 {
		t.Errorf("single interval: %g, want %g", got, want)
	}
	// Interval shorter than timeout: nothing saved, nothing paid.
	if got := EmpiricalPMPower([]float64{5}, 10, 600, spec); math.Abs(got-pd) > 1e-9 {
		t.Errorf("short interval: %g, want pd", got)
	}
	// Off time clamps at the period.
	got := EmpiricalPMPower([]float64{10000}, 10, 600, spec)
	wantClamped := pd*0/600 + pd*tbe*1/600
	if math.Abs(got-wantClamped) > 1e-9 {
		t.Errorf("clamped: %g, want %g", got, wantClamped)
	}
}

func TestHysteresisHoldsForNoise(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	m, _ := NewManager(p) // last = 64 banks
	// A mildly reusing workload where the optimum differs from 64 banks
	// by less than 5% of total power (memory is micro-watts here).
	log := synthLog(4*p.bankPages(), 2000, 0.3, p.PageSize)
	d := m.Decide(batchObs{Log: log, Observation: Observation{CacheAccesses: 2000, CoalesceFactor: 1, CurrentBanks: 64}})
	if d.Banks != 64 {
		t.Errorf("hysteresis moved from 64 to %d for a marginal gain", d.Banks)
	}
	// Disabling hysteresis moves.
	p2 := testParams() // HysteresisFrac = -1
	m2, _ := NewManager(p2)
	d2 := m2.Decide(batchObs{Log: log, Observation: Observation{CacheAccesses: 2000, CoalesceFactor: 1, CurrentBanks: 64}})
	if d2.Banks == 64 {
		t.Skip("optimum happens to be 64 banks; hysteresis indistinguishable")
	}
}

func TestPredictedWaitShape(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	log := synthLog(10*p.bankPages(), 3000, 0.05, p.PageSize)
	obs := batchObs{Log: log, Observation: Observation{CacheAccesses: 3000, CoalesceFactor: 1}}
	// Smaller memory → more misses → higher utilization → longer
	// predicted queueing wait.
	small := m.evaluate(obs, 1, nil)
	large := m.evaluate(obs, 10, nil)
	if small.Utilization <= large.Utilization {
		t.Skip("utilizations not ordered; workload degenerate")
	}
	if small.PredictedWait <= large.PredictedWait {
		t.Errorf("wait not ordered: small %v vs large %v",
			small.PredictedWait, large.PredictedWait)
	}
	if large.PredictedWait < 0 {
		t.Errorf("negative wait %v", large.PredictedWait)
	}
}
