package core

import (
	"math"
	"strings"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
	"jointpm/internal/stats"
)

func testParams() Params {
	// 64 KB pages, 1 MB banks, 64 banks (64 MB installed). Hysteresis is
	// disabled so the single-decision tests see the raw optimiser; at
	// this toy memory scale the per-bank power difference is below the
	// hysteresis threshold and the manager would (correctly) refuse to
	// move from its initial full-memory default.
	p := DefaultParams(64*simtime.KB, simtime.MB, 64, disk.Barracuda(), mem.RDRAM(simtime.MB))
	p.HysteresisFrac = -1
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Period = 0 },
		func(p *Params) { p.Window = -1 },
		func(p *Params) { p.UtilCap = 0 },
		func(p *Params) { p.UtilCap = 2 },
		func(p *Params) { p.DelayCap = 0 },
		func(p *Params) { p.PageSize = 0 },
		func(p *Params) { p.BankSize = 3 },
		func(p *Params) { p.TotalBanks = 0 },
		func(p *Params) { p.EnumUnit = p.BankSize / 2 },
		func(p *Params) { p.EnumUnit = p.BankSize + p.PageSize },
	}
	for i, mut := range bad {
		p := testParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
}

// TestNewManagerRejectsBadSlateParams: slate parameters that would crash
// either Decide entry point are configuration errors that name their
// field. The first three rows divide by zero or index out of range in
// the slate search if NewManager accepts them.
func TestNewManagerRejectsBadSlateParams(t *testing.T) {
	cases := []struct {
		field string
		mut   func(*Params)
	}{
		{"MaxCandidatesPerPass", func(p *Params) { p.MaxCandidatesPerPass = 1 }},
		{"MinBanks", func(p *Params) { p.MinBanks = p.TotalBanks + 6 }},
		{"MinBanks", func(p *Params) { p.MinBanks = -2 }},
		{"MaxCandidatesPerPass", func(p *Params) { p.MaxCandidatesPerPass = 0 }},
		{"MinBanks", func(p *Params) { p.MinBanks = p.TotalBanks + 1 }},
	}
	for i, c := range cases {
		p := testParams()
		c.mut(&p)
		_, err := NewManager(p)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("case %d: NewManager error %v, want one naming %s", i, err, c.field)
		}
	}
	p := testParams()
	p.MinBanks = p.TotalBanks
	if _, err := NewManager(p); err != nil {
		t.Errorf("MinBanks = TotalBanks rejected: %v", err)
	}
}

func TestNewManagerDefaults(t *testing.T) {
	m, err := NewManager(testParams())
	if err != nil {
		t.Fatal(err)
	}
	d := m.Last()
	if d.Banks != 64 {
		t.Errorf("initial banks = %d, want all 64", d.Banks)
	}
	if math.Abs(float64(d.Timeout-testParams().DiskSpec.BreakEven())) > 1e-9 {
		t.Errorf("initial timeout = %v", d.Timeout)
	}
}

func TestDecideEmptyObservation(t *testing.T) {
	m, _ := NewManager(testParams())
	d := m.Decide(Observation{})
	if d.Banks != 1 {
		t.Errorf("idle decision banks = %d, want MinBanks", d.Banks)
	}
	if d.Timeout <= 0 {
		t.Errorf("idle decision timeout = %v", d.Timeout)
	}
}

// synthLog builds a period log with a working set of wsPages pages
// accessed round-robin every gap seconds, all hits at depth ≤ wsPages
// after the first lap.
func synthLog(wsPages int64, accesses int, gap float64, pageBytes simtime.Bytes) []lrusim.DepthRecord {
	s := lrusim.NewStackSim(1 << 20)
	log := make([]lrusim.DepthRecord, 0, accesses)
	tm := 0.0
	for i := 0; i < accesses; i++ {
		p := int64(i) % wsPages
		d := s.Reference(p)
		log = append(log, lrusim.DepthRecord{Time: simtime.Seconds(tm), Page: p, Depth: d, Bytes: pageBytes})
		tm += gap
	}
	return log
}

func TestDecideCachesWorkingSet(t *testing.T) {
	p := testParams()
	p.Period = 600
	m, _ := NewManager(p)
	// Working set of 128 pages (8 banks at 16 pages/bank); plenty of
	// reuse. The manager should size the cache to cover it rather than
	// leave the disk busy.
	bankPages := p.bankPages()
	ws := 8 * bankPages
	log := synthLog(ws, 4000, 0.15, p.PageSize)
	d := m.Decide(Observation{Log: log, CacheAccesses: int64(len(log)), CoalesceFactor: 1})
	if int64(d.Banks)*bankPages < ws {
		t.Errorf("decision %d banks (%d pages) does not cover working set %d pages",
			d.Banks, int64(d.Banks)*bankPages, ws)
	}
	// It also should not wildly over-provision: one enum unit of slack.
	if int64(d.Banks)*bankPages > ws+2*bankPages {
		t.Errorf("decision %d banks over-provisions working set %d pages", d.Banks, ws)
	}
	if !d.Chosen.Feasible {
		t.Error("chosen candidate infeasible")
	}
}

func TestDecideShrinksForColdStreams(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	// Pure cold stream: no depth ever helps, so memory cannot reduce disk
	// IO and the manager should pick the minimum size.
	s := lrusim.NewStackSim(1 << 20)
	var log []lrusim.DepthRecord
	tm := 0.0
	for i := 0; i < 2000; i++ {
		d := s.Reference(int64(i)) // every page unique
		log = append(log, lrusim.DepthRecord{Time: simtime.Seconds(tm), Page: int64(i), Depth: d, Bytes: p.PageSize})
		tm += 0.3
	}
	d := m.Decide(Observation{Log: log, CacheAccesses: 2000, CoalesceFactor: 1})
	if d.Banks != p.MinBanks {
		t.Errorf("cold-stream decision = %d banks, want min %d", d.Banks, p.MinBanks)
	}
}

func TestDecideTimeoutFollowsAlpha(t *testing.T) {
	// Build two observations with idle gaps drawn from Pareto tails of
	// different alphas; the chosen timeout should scale with alpha·t_be
	// when the constraint floor is inactive.
	p := testParams()
	p.DelayCap = 1 // disable the floor
	tbe := float64(p.DiskSpec.BreakEven())

	// Idle gaps Pareto-distributed with scale comparable to the break-even
	// time, so both regimes leave genuinely savable idle tails.
	build := func(alpha float64, seed int64) Observation {
		rng := stats.NewRNG(seed)
		var log []lrusim.DepthRecord
		tm := 0.0
		for i := 0; i < 600; i++ {
			// All cold: every access is a disk access at any size.
			log = append(log, lrusim.DepthRecord{Time: simtime.Seconds(tm), Depth: lrusim.Cold, Bytes: p.PageSize})
			tm += rng.Pareto(alpha, 8.0)
		}
		return Observation{Log: log, CacheAccesses: 600, CoalesceFactor: 1}
	}

	mLow, _ := NewManager(p)
	dLow := mLow.Decide(build(1.3, 1))
	mHigh, _ := NewManager(p)
	dHigh := mHigh.Decide(build(2.5, 2))

	if !dLow.Chosen.FitOK || !dHigh.Chosen.FitOK {
		t.Fatal("fits failed")
	}
	if dLow.Chosen.Fit.Alpha >= dHigh.Chosen.Fit.Alpha {
		t.Fatalf("alpha ordering wrong: %g vs %g", dLow.Chosen.Fit.Alpha, dHigh.Chosen.Fit.Alpha)
	}
	if math.IsInf(float64(dLow.Timeout), 1) || math.IsInf(float64(dHigh.Timeout), 1) {
		t.Fatal("expected finite timeouts")
	}
	// t_o = alpha · t_be within fitting noise.
	ratioLow := float64(dLow.Timeout) / (dLow.Chosen.Fit.Alpha * tbe)
	ratioHigh := float64(dHigh.Timeout) / (dHigh.Chosen.Fit.Alpha * tbe)
	if math.Abs(ratioLow-1) > 1e-6 || math.Abs(ratioHigh-1) > 1e-6 {
		t.Errorf("timeout != alpha*tbe: ratios %g, %g", ratioLow, ratioHigh)
	}
	if dHigh.Timeout <= dLow.Timeout {
		t.Errorf("larger alpha should give larger timeout: %v vs %v", dHigh.Timeout, dLow.Timeout)
	}
}

func TestConstraintFloorRaisesTimeout(t *testing.T) {
	p := testParams()
	base := p

	// High access rate, lots of idle intervals just over the break-even:
	// without the constraint the optimal timeout spins down eagerly; the
	// delay cap must push the timeout up.
	rng := stats.NewRNG(3)
	var log []lrusim.DepthRecord
	tm := 0.0
	for i := 0; i < 500; i++ {
		log = append(log, lrusim.DepthRecord{Time: simtime.Seconds(tm), Depth: lrusim.Cold, Bytes: p.PageSize})
		tm += rng.Pareto(1.5, 2.0)
	}
	obs := Observation{Log: log, CacheAccesses: 500, CoalesceFactor: 1}

	loose := base
	loose.DelayCap = 1
	mLoose, _ := NewManager(loose)
	dLoose := mLoose.Decide(obs)

	tight := base
	tight.DelayCap = 1e-6
	mTight, _ := NewManager(tight)
	dTight := mTight.Decide(obs)

	if dTight.Chosen.TimeoutFloor <= dLoose.Chosen.TimeoutFloor {
		t.Errorf("tight cap floor %v not above loose %v",
			dTight.Chosen.TimeoutFloor, dLoose.Chosen.TimeoutFloor)
	}
	if dTight.Timeout < dTight.Chosen.TimeoutFloor &&
		!math.IsInf(float64(dTight.Timeout), 1) {
		t.Errorf("timeout %v below its floor %v", dTight.Timeout, dTight.Chosen.TimeoutFloor)
	}
}

func TestUtilizationCapMarksInfeasible(t *testing.T) {
	p := testParams()
	p.UtilCap = 1e-9 // nothing is feasible
	m, _ := NewManager(p)
	log := synthLog(64, 1000, 0.05, p.PageSize)
	d := m.Decide(Observation{Log: log, CacheAccesses: 1000, CoalesceFactor: 1})
	if d.Chosen.Feasible {
		t.Error("candidate marked feasible under impossible cap")
	}
	// Infeasible fallback should still prefer low utilization → the
	// largest useful memory.
	if d.Chosen.Utilization > 1 {
		t.Errorf("fallback utilization = %g", d.Chosen.Utilization)
	}
}

func TestEvaluateMonotoneMisses(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	log := synthLog(10*p.bankPages(), 3000, 0.2, p.PageSize)
	obs := Observation{Log: log, CacheAccesses: 3000, CoalesceFactor: 1}
	prev := int64(math.MaxInt64)
	for b := 1; b <= 12; b++ {
		c := m.evaluate(obs, b, nil)
		if c.DiskAccesses > prev {
			t.Fatalf("misses increased when adding memory at %d banks", b)
		}
		prev = c.DiskAccesses
	}
}

func TestDecideRecordsEvaluationCount(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	log := synthLog(16*p.bankPages(), 2000, 0.2, p.PageSize)
	d := m.Decide(Observation{Log: log, CacheAccesses: 2000, CoalesceFactor: 1})
	if d.Evaluated <= 0 {
		t.Error("no candidates evaluated")
	}
	if d.Evaluated > 3*p.MaxCandidatesPerPass {
		t.Errorf("evaluated %d candidates, refinement not bounding work", d.Evaluated)
	}
}
