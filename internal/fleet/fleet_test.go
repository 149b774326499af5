package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"jointpm/internal/fault"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSolveTable(t *testing.T) {
	s := func(disk string, floor, demand float64) Summary {
		return Summary{Disk: disk, FloorW: floor, DemandW: demand}
	}
	cases := []struct {
		name string
		capW float64
		sums []Summary
		want []float64
	}{
		{"empty", 100, nil, []float64{}},
		{"uncapped-zero", 0, []Summary{s("a", 5, 10)}, []float64{math.Inf(1)}},
		{"uncapped-inf", math.Inf(1), []Summary{s("a", 5, 10)}, []float64{math.Inf(1)}},
		{
			// Slack cap: everyone gets their demand plus an equal surplus share.
			"slack", 40,
			[]Summary{s("a", 5, 10), s("b", 5, 20)},
			[]float64{15, 25},
		},
		{
			// Water-fill: floors 5+5, cap 20, wants 10+30. Both floors are
			// covered; the remaining 10 W spreads equally until a saturates
			// at its want (10), then the rest flows to b.
			"waterfill", 20,
			[]Summary{s("a", 5, 10), s("b", 5, 30)},
			[]float64{10, 10},
		},
		{
			// Max-min: three shards, one small want saturates first.
			"maxmin", 30,
			[]Summary{s("a", 2, 4), s("b", 2, 50), s("c", 2, 50)},
			[]float64{4, 13, 13},
		},
		{
			// Cap below the floor sum: pro-rate so everyone degrades by the
			// same fraction and the sum still respects the cap.
			"prorate", 5,
			[]Summary{s("a", 4, 10), s("b", 6, 10)},
			[]float64{2, 3},
		},
		{
			// Demand below floor counts as the floor.
			"demand-below-floor", 30,
			[]Summary{s("a", 10, 1), s("b", 10, 1)},
			[]float64{15, 15},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Solve(tc.capW, tc.sums)
			if len(got) != len(tc.want) {
				t.Fatalf("Solve returned %d budgets, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if !almost(got[i], tc.want[i]) && !(math.IsInf(got[i], 1) && math.IsInf(tc.want[i], 1)) {
					t.Errorf("budget[%d] (%s) = %g, want %g", i, tc.sums[i].Disk, got[i], tc.want[i])
				}
			}
			if err := CheckFairness(tc.capW, tc.sums, got); err != nil {
				t.Errorf("CheckFairness: %v", err)
			}
		})
	}
}

// randomFleet builds a deterministic random fleet for property tests.
func randomFleet(rng *rand.Rand, n int) []Summary {
	sums := make([]Summary, n)
	for i := range sums {
		floor := 1 + rng.Float64()*9
		sums[i] = Summary{
			Disk:    fmt.Sprintf("d%03d", i),
			FloorW:  floor,
			DemandW: floor + rng.Float64()*40,
		}
	}
	return sums
}

// TestSolveQuickProperties is the testing/quick half of the harness: for
// arbitrary fleets and caps, the budget sum never exceeds a finite cap
// and the max-min fairness invariant holds.
func TestSolveQuickProperties(t *testing.T) {
	prop := func(seed int64, nRaw uint8, capScale uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%32
		sums := randomFleet(rng, n)
		var floors, wants float64
		for _, s := range sums {
			floors += s.FloorW
			wants += math.Max(s.FloorW, s.DemandW)
		}
		// Sweep the interesting cap range: below the floor sum, between
		// floors and wants, and above the want sum.
		capW := float64(capScale) / math.MaxUint16 * 1.5 * wants
		budgets := Solve(capW, sums)
		if capW > 0 {
			total := 0.0
			for _, b := range budgets {
				total += b
			}
			if total > capW*(1+1e-9)+1e-6 {
				t.Logf("cap %g exceeded: budgets sum to %g", capW, total)
				return false
			}
		}
		if err := CheckFairness(capW, sums, budgets); err != nil {
			t.Logf("fairness: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFairnessInvariantSeeds is the explicit ≥100-seed sweep of the
// fairness invariant: no shard starved below its floor while another
// holds slack, and the budget sum respects the cap, for every seed.
func TestFairnessInvariantSeeds(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sums := randomFleet(rng, 1+rng.Intn(24))
		var wants float64
		for _, s := range sums {
			wants += math.Max(s.FloorW, s.DemandW)
		}
		for _, frac := range []float64{0.25, 0.6, 0.9, 1.2} {
			capW := frac * wants
			if err := CheckFairness(capW, sums, Solve(capW, sums)); err != nil {
				t.Fatalf("seed %d cap %.2f·wants: %v", seed, frac, err)
			}
		}
	}
}

func TestCheckFairnessRejectsStarvation(t *testing.T) {
	sums := []Summary{
		{Disk: "a", FloorW: 5, DemandW: 10},
		{Disk: "b", FloorW: 5, DemandW: 10},
	}
	// b holds slack above its want while a sits below its floor.
	if err := CheckFairness(20, sums, []float64{2, 18}); err == nil {
		t.Fatal("CheckFairness accepted a starved-while-slack allocation")
	}
	if err := CheckFairness(20, sums, []float64{30, 30}); err == nil {
		t.Fatal("CheckFairness accepted budgets summing over the cap")
	}
}

// TestCoordinatorDegradesToLastKnown covers the satellite invariant at
// 100+ seeds: with seeded dropped and late summaries (fault.FleetPlan),
// every epoch's budgets equal a clean Solve over the summaries the
// coordinator could legitimately know — i.e. it degrades to last-known
// inputs — and the budget sum never exceeds the cap.
func TestCoordinatorDegradesToLastKnown(t *testing.T) {
	const (
		shards = 6
		epochs = 12
		capW   = 60.0
		floorW = 5.0
	)
	disks := make([]string, shards)
	for i := range disks {
		disks[i] = fmt.Sprintf("d%d", i)
	}
	for seed := uint64(0); seed < 110; seed++ {
		inj := fault.NewInjector(fault.Plan{
			Seed:  seed,
			Fleet: fault.FleetPlan{SummaryDropProb: 0.3, SummaryLateProb: 0.3},
		}, 0, nil)
		coord := NewCoordinator(capW, floorW)
		mirror := map[string]Summary{}
		rng := rand.New(rand.NewSource(int64(seed)))
		sawStale := false
		for e := int64(1); e <= epochs; e++ {
			var late []Summary
			for i, d := range disks {
				s := Summary{Disk: d, FloorW: floorW, DemandW: floorW + rng.Float64()*20}
				if inj.SummaryDropped(e, i) {
					continue
				}
				if inj.SummaryLate(e, i) {
					late = append(late, s)
					continue
				}
				coord.Observe(s)
				mirror[d] = s
			}
			got := coord.Reallocate(disks)
			sums := make([]Summary, len(disks))
			for i, d := range disks {
				if s, ok := mirror[d]; ok {
					sums[i] = s
				} else {
					sums[i] = Summary{Disk: d, FloorW: floorW, DemandW: floorW}
				}
			}
			want := Solve(capW, sums)
			total := 0.0
			for i, a := range got {
				if !almost(a.BudgetW, want[i]) {
					t.Fatalf("seed %d epoch %d: %s budget %g, want %g (from last-known inputs)",
						seed, e, a.Disk, a.BudgetW, want[i])
				}
				sawStale = sawStale || a.Stale
				total += a.BudgetW
			}
			if total > capW*(1+1e-9)+1e-6 {
				t.Fatalf("seed %d epoch %d: budgets sum to %g W over cap %g W", seed, e, total, capW)
			}
			// Late summaries land after the solve; next epoch sees them.
			for _, s := range late {
				coord.Observe(s)
				mirror[s.Disk] = s
			}
		}
		if !sawStale {
			t.Fatalf("seed %d: drop/late probabilities of 0.3 never produced a stale assignment", seed)
		}
	}
}

// TestCoordinatorConcurrentObserveReallocate exists for the -race run:
// summary collection and reallocation race by design in the daemon
// (every shard's ingest goroutine can trigger an epoch), so the
// coordinator must be internally synchronised.
func TestCoordinatorConcurrentObserveReallocate(t *testing.T) {
	coord := NewCoordinator(100, 2)
	disks := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				coord.Observe(Summary{Disk: disks[w%len(disks)], FloorW: 2, DemandW: float64(5 + i%7)})
				asg := coord.Reallocate(disks)
				total := 0.0
				for _, a := range asg {
					total += a.BudgetW
				}
				if total > 100*(1+1e-9)+1e-6 {
					t.Errorf("budgets sum to %g over cap", total)
					return
				}
				coord.Assignments()
			}
		}(w)
	}
	wg.Wait()
	if coord.Epoch() != 800 {
		t.Fatalf("epoch = %d, want 800", coord.Epoch())
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("JainIndex(nil) = %g", got)
	}
	if got := JainIndex([]float64{5, 5, 5, 5}); !almost(got, 1) {
		t.Fatalf("JainIndex(equal) = %g, want 1", got)
	}
	got := JainIndex([]float64{1, 0, 0, 0})
	if !almost(got, 0.25) {
		t.Fatalf("JainIndex(one-dominates) = %g, want 0.25", got)
	}
}
