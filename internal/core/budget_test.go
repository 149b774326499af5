package core

import (
	"math"
	"reflect"
	"testing"

	"jointpm/internal/obs"
	"jointpm/internal/simtime"
)

// budgetStream generates a deterministic multi-period observation
// sequence shared by the budget tests.
func budgetStream(p Params, periods int) []batchObs {
	out := make([]batchObs, 0, periods)
	t0 := simtime.Seconds(0)
	for i := 0; i < periods; i++ {
		o := zipfObservation(p, 3000+400*i, 1<<14, int64(7*i+1))
		o = shiftObservation(o, t0)
		t0 = o.PeriodEnd
		out = append(out, o)
	}
	return out
}

// TestSetPowerBudgetSanitises pins the "unconstrained" encodings: zero,
// negative, NaN, and +Inf must all clear the budget.
func TestSetPowerBudgetSanitises(t *testing.T) {
	m, _ := NewManager(testParams())
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		m.SetPowerBudget(12)
		m.SetPowerBudget(w)
		if got := m.PowerBudget(); got != 0 {
			t.Errorf("SetPowerBudget(%g): budget = %g, want 0", w, got)
		}
	}
	m.SetPowerBudget(7.5)
	if got := m.PowerBudget(); got != 7.5 {
		t.Errorf("budget = %g, want 7.5", got)
	}
}

// TestBudgetUnconstrainedDifferential is the core level of the cap=+Inf
// differential suite: a manager with no budget, one set to 0, and one
// set to +Inf must produce deeply equal decision streams on both the
// batch and incremental paths.
func TestBudgetUnconstrainedDifferential(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	plain, _ := NewManager(p)
	capped, _ := NewManager(p)
	capped.SetPowerBudget(math.Inf(1))
	zeroed, _ := NewManager(p)
	zeroed.SetPowerBudget(0)
	inc, _ := NewManager(p)
	inc.SetPowerBudget(math.Inf(1))

	for i, o := range budgetStream(p, 5) {
		o.CurrentBanks = plain.Last().Banks
		want := plain.Decide(o)
		if got := capped.Decide(o); !reflect.DeepEqual(want, got) {
			t.Fatalf("period %d: +Inf budget diverges from unbudgeted\nwant %+v\ngot  %+v", i, want, got)
		}
		if got := zeroed.Decide(o); !reflect.DeepEqual(want, got) {
			t.Fatalf("period %d: zero budget diverges from unbudgeted\nwant %+v\ngot  %+v", i, want, got)
		}
		if got := inc.DecideIncremental(feedIncremental(inc, o)); !reflect.DeepEqual(want, got) {
			t.Fatalf("period %d: +Inf budget incremental diverges\nwant %+v\ngot  %+v", i, want, got)
		}
	}
}

// TestBetterCandBudgetOrdering pins the decision ordering the budget
// adds: with no budget installed betterCand is exactly better(); with
// one installed, a feasible within-budget candidate beats a cheaper
// over-budget one, while the utilization cap still dominates inside
// each class.
func TestBetterCandBudgetOrdering(t *testing.T) {
	m, _ := NewManager(testParams())
	within := Candidate{Banks: 8, Feasible: true, TotalPower: 10}
	overCheap := Candidate{Banks: 4, Feasible: true, OverBudget: true, TotalPower: 5}
	infeasible := Candidate{Banks: 2, Feasible: false, OverBudget: true, Utilization: 2, TotalPower: 1}

	// Budget inactive: pure better() — the cheaper candidate wins even
	// though something marked it over-budget.
	if !m.betterCand(&overCheap, &within) {
		t.Fatal("inactive budget: cheaper candidate should win on power")
	}
	m.SetPowerBudget(8)
	if !m.betterCand(&within, &overCheap) {
		t.Fatal("active budget: within-budget candidate should beat a cheaper over-budget one")
	}
	if m.betterCand(&infeasible, &overCheap) {
		t.Fatal("active budget: utilization-infeasible must still lose to feasible-but-over-budget")
	}
}

// TestBudgetOverridesHysteresisHold is where the budget genuinely
// changes a decision: the unconstrained search already minimises power,
// so the constraint bites when size inertia would otherwise hold an
// expensive previous configuration. With near-total hysteresis the free
// manager clings to its full-memory default; a budget between the
// optimum's power and the default's power must break that hold.
func TestBudgetOverridesHysteresisHold(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.99 // memory sizing saves mW against a ~7 W disk floor: always held
	o := budgetStream(p, 1)[0]

	free, _ := NewManager(p)
	d := free.Decide(o)
	if d.Banks != p.TotalBanks {
		t.Fatalf("precondition: hysteresis did not hold the %d-bank default (got %d)", p.TotalBanks, d.Banks)
	}
	var opt *Candidate
	for i := range d.Candidates {
		c := &d.Candidates[i]
		if c.Feasible && c.Banks != d.Banks && (opt == nil || c.TotalPower < opt.TotalPower) {
			opt = c
		}
	}
	if opt == nil || float64(d.Chosen.TotalPower)-float64(opt.TotalPower) < 1e-6 {
		t.Fatalf("precondition: no cheaper alternative to the held size in %d candidates", len(d.Candidates))
	}
	budget := (float64(opt.TotalPower) + float64(d.Chosen.TotalPower)) / 2

	capped, _ := NewManager(p)
	capped.SetPowerBudget(budget)
	g := capped.Decide(o)
	if g.OverBudget {
		t.Fatalf("budget %g W admits candidate %d banks at %g W, yet decision flagged over-budget",
			budget, opt.Banks, opt.TotalPower)
	}
	if g.Banks == p.TotalBanks {
		t.Fatalf("hysteresis held the %g W default against a %g W budget", d.Chosen.TotalPower, budget)
	}
	if got := float64(g.Chosen.TotalPower); got > budget+1e-9 {
		t.Fatalf("chosen power %g W exceeds budget %g W", got, budget)
	}
	if g.BudgetW != budget {
		t.Errorf("decision BudgetW = %g, want %g", g.BudgetW, budget)
	}
}

// TestBudgetGracefulWhenImpossible sets a budget no candidate can meet:
// the manager must not wedge — it proceeds with the unconstrained
// winner and flags the decision for cap-compliance accounting.
func TestBudgetGracefulWhenImpossible(t *testing.T) {
	p := testParams()
	stream := budgetStream(p, 1)

	free, _ := NewManager(p)
	base := free.Decide(stream[0])

	capped, _ := NewManager(p)
	capped.SetPowerBudget(1e-3) // far below even one bank's nap power
	d := capped.Decide(stream[0])
	if !d.OverBudget {
		t.Fatal("impossible budget not flagged OverBudget")
	}
	if d.Banks != base.Banks || d.Timeout != base.Timeout {
		t.Fatalf("graceful fallback diverged from unconstrained choice: got (%d, %v), want (%d, %v)",
			d.Banks, d.Timeout, base.Banks, base.Timeout)
	}
	if !d.Chosen.OverBudget {
		t.Fatal("chosen candidate not marked over-budget")
	}
}

// TestBudgetIncrementalMatchesBatch extends the incremental-vs-batch
// equivalence proof to a finite budget: both observation paths apply the
// constraint through bit-identical pricing tails.
func TestBudgetIncrementalMatchesBatch(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	const budget = 8.0
	batch, _ := NewManager(p)
	batch.SetPowerBudget(budget)
	inc, _ := NewManager(p)
	inc.SetPowerBudget(budget)

	for i, o := range budgetStream(p, 5) {
		o.CurrentBanks = batch.Last().Banks
		want := batch.Decide(o)
		got := inc.DecideIncremental(feedIncremental(inc, o))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("period %d: capped incremental diverges\nbatch %+v\nincr  %+v", i, want, got)
		}
	}
}

// TestDriftHoldRespectsBudget: a steady-state drift hold must re-check
// the budget — when the coordinator shrinks this shard's share below the
// held size's power, the shortcut falls through to the full search
// instead of holding an over-budget configuration.
func TestDriftHoldRespectsBudget(t *testing.T) {
	p := testParams()
	p.RefitDriftFrac = 0.5 // generous: any repeat of the workload holds
	m, _ := NewManager(p)

	o := budgetStream(p, 1)[0]
	first := m.DecideIncremental(feedIncremental(m, o))
	if first.Fallback {
		t.Fatalf("baseline decision degraded: %+v", first)
	}
	// Same workload again: with a slack budget the shortcut holds.
	o2 := shiftObservation(o, o.PeriodEnd)
	held := m.DecideIncremental(feedIncremental(m, o2))
	if held.Evaluated != 1 {
		t.Fatalf("drift hold did not engage (evaluated %d)", held.Evaluated)
	}
	// Shrink the budget below the held power: the next decision must run
	// a full search (more than one candidate) and come in under budget if
	// any candidate fits, or flag OverBudget if none does.
	m.SetPowerBudget(float64(held.Chosen.TotalPower) * 0.9)
	o3 := shiftObservation(o, o2.PeriodEnd)
	d := m.DecideIncremental(feedIncremental(m, o3))
	if d.Evaluated == 1 {
		t.Fatalf("drift hold engaged despite the held size exceeding the budget: %+v", d.Chosen)
	}
	if !d.OverBudget && float64(d.Chosen.TotalPower) > m.PowerBudget()+1e-9 {
		t.Fatalf("unflagged decision exceeds budget: %g W > %g W", d.Chosen.TotalPower, m.PowerBudget())
	}
}

// TestBudgetCountsFinalVerdict pins what core.decide.budget_infeasible
// counts under a speed ladder: each priced size whose final pricing,
// after the ladder refinement, is over budget, not its full-speed
// pricing. The budget binds where slower levels bring sizes that full
// speed prices over it back within it, so the two counts differ.
func TestBudgetCountsFinalVerdict(t *testing.T) {
	p := boundaryParams()
	p.Metrics = obs.NewRegistry()
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	m.SetPowerBudget(boundaryBudgetW)
	q := boundaryParams()
	q.SpeedLevels = nil
	fullSpeed, err := NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	fullSpeed.SetPowerBudget(boundaryBudgetW)

	o := lightStream(p, []int{750})[0]
	d := m.DecideIncremental(feedIncremental(m, o))
	finalOver, fullOver, rescued := 0, 0, 0
	for _, c := range d.Candidates {
		full := fullSpeed.evaluate(o, c.Banks, nil)
		if c.OverBudget {
			finalOver++
		}
		if full.OverBudget {
			fullOver++
			if !c.OverBudget && c.Level > 0 {
				rescued++
			}
		}
	}
	if rescued == 0 || finalOver == 0 {
		t.Fatalf("budget %g W does not split the slate: %d of %d sizes over at full speed, %d after the ladder",
			float64(boundaryBudgetW), fullOver, len(d.Candidates), finalOver)
	}
	got := p.Metrics.CounterValue("core.decide.budget_infeasible")
	if got != int64(finalOver) {
		t.Fatalf("budget_infeasible = %d, want %d (the sizes over budget after the ladder; %d are over at full speed)",
			got, finalOver, fullOver)
	}
	if priced := p.Metrics.CounterValue("core.decide.candidates_priced"); got >= priced {
		t.Fatalf("budget_infeasible = %d of %d priced sizes: it counts every size", got, priced)
	}
}
