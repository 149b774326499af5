package serve

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"jointpm/internal/fleet"
	"jointpm/internal/obs/flight"
	"jointpm/internal/trace"
)

// fleetTraces builds one deterministic trace per disk name.
func fleetTraces(t testing.TB, names []string, baseSeed int64) map[string]*trace.Trace {
	t.Helper()
	out := make(map[string]*trace.Trace, len(names))
	for i, n := range names {
		out[n] = testTrace(t, baseSeed+int64(i))
	}
	return out
}

// ingestInterleaved feeds every shard's trace in fixed round-robin
// chunks from one goroutine, so multi-shard runs are deterministic: the
// coordinator sees the same summary sequence every time.
func ingestInterleaved(t testing.TB, srv *Server, names []string, traces map[string]*trace.Trace) {
	t.Helper()
	shards := make([]*Shard, len(names))
	for i, n := range names {
		sh, err := srv.Shard(n)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
	}
	const chunk = 256
	idx := make([]int, len(names))
	for {
		done := true
		for i, sh := range shards {
			reqs := traces[names[i]].Requests
			if idx[i] >= len(reqs) {
				continue
			}
			done = false
			j := idx[i] + chunk
			if j > len(reqs) {
				j = len(reqs)
			}
			if err := sh.IngestBatch(reqs[idx[i]:j]); err != nil {
				t.Fatal(err)
			}
			idx[i] = j
		}
		if done {
			break
		}
	}
	for i, sh := range shards {
		if err := sh.FinishTo(traces[names[i]].Duration); err != nil {
			t.Fatal(err)
		}
	}
}

// runFleet builds a server with the given cap, ingests every trace
// interleaved, and returns the per-disk decision streams plus the
// server (not yet Closed).
func runFleet(t testing.TB, capW float64, names []string, traces map[string]*trace.Trace) (map[string][]Decision, *Server) {
	t.Helper()
	log := &decisionLog{}
	cfg := testConfig(log)
	cfg.PowerCapW = capW
	cfg.FlightRecorder = flight.DefaultDepth
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestInterleaved(t, srv, names, traces)
	byDisk := map[string][]Decision{}
	for _, d := range log.list() {
		byDisk[d.Disk] = append(byDisk[d.Disk], d)
	}
	return byDisk, srv
}

// stripBudget zeroes the budget metadata a slack-capped run stamps on
// its decisions, leaving only the fields an uncapped run produces.
func stripBudget(ds []Decision) []Decision {
	out := append([]Decision(nil), ds...)
	for i := range out {
		out[i].Decision.BudgetW = 0
	}
	return out
}

// TestFleetUncappedDifferential is the serve level of the cap=+Inf
// differential suite: no cap, an explicit +Inf cap, and a slack finite
// cap (coordinator active but never binding) must yield the same
// decision stream for every shard — the slack run differing only in the
// BudgetW metadata it stamps.
func TestFleetUncappedDifferential(t *testing.T) {
	names := []string{"d0", "d1", "d2"}
	traces := fleetTraces(t, names, 300)

	ref, srvRef := runFleet(t, 0, names, traces)
	defer srvRef.Close()
	if srvRef.FleetEnabled() {
		t.Fatal("cap 0 built a coordinator")
	}
	inf, srvInf := runFleet(t, math.Inf(1), names, traces)
	defer srvInf.Close()
	if srvInf.FleetEnabled() {
		t.Fatal("cap +Inf built a coordinator")
	}
	slack, srvSlack := runFleet(t, 1e6, names, traces)
	defer srvSlack.Close()
	if !srvSlack.FleetEnabled() {
		t.Fatal("finite cap did not build a coordinator")
	}

	for _, n := range names {
		if !reflect.DeepEqual(ref[n], inf[n]) {
			t.Fatalf("shard %s: +Inf cap diverges from uncapped", n)
		}
		if !reflect.DeepEqual(ref[n], stripBudget(slack[n])) {
			t.Fatalf("shard %s: slack finite cap changed decisions", n)
		}
		for _, d := range slack[n] {
			if d.Decision.OverBudget {
				t.Fatalf("shard %s period %d: slack cap flagged over-budget", n, d.Period)
			}
		}
	}
}

// trusted reports whether a flight record participates in fleet
// cap-compliance accounting: a real post-warmup decision that was
// priced, not degraded, and not the graceful over-budget fallback.
func trusted(r flight.PeriodRecord) bool {
	return !r.Warmup && !r.Fallback && !r.OverBudget && r.PowerW > 0
}

// aggTrusted sums trusted per-period power per period index across the
// server's shards.
func aggTrusted(t testing.TB, srv *Server, names []string) map[int64]float64 {
	t.Helper()
	agg := map[int64]float64{}
	for _, n := range names {
		sh, err := srv.Shard(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sh.rec.Last(0) {
			if trusted(r) {
				agg[r.Period] += r.PowerW
			}
		}
	}
	return agg
}

// TestFleetCapComplianceQuick is the testing/quick half of the serve
// harness: with budgets pinned by one initial reallocation (the epoch
// cadence pushed past the run), the aggregate trusted power per period
// index never exceeds the cap, for arbitrary caps.
func TestFleetCapComplianceQuick(t *testing.T) {
	names := []string{"d0", "d1", "d2"}
	traces := fleetTraces(t, names, 310)

	// Scale the cap sweep to the workload. PowerW is only recorded when
	// a coordinator is attached, so the sweep's reference peak comes
	// from a slack-capped run (which decides identically to uncapped).
	_, srvSlack := runFleet(t, 1e6, names, traces)
	defer srvSlack.Close()
	maxAgg := 0.0
	for _, w := range aggTrusted(t, srvSlack, names) {
		if w > maxAgg {
			maxAgg = w
		}
	}
	if maxAgg <= 0 {
		t.Fatal("no trusted power recorded in the slack run")
	}

	prop := func(capScale uint16) bool {
		capW := (0.2 + 1.3*float64(capScale)/math.MaxUint16) * maxAgg
		log := &decisionLog{}
		cfg := testConfig(log)
		cfg.PowerCapW = capW
		cfg.FleetEpoch = 1 << 40 // no epoch fires during the run
		cfg.FlightRecorder = flight.DefaultDepth
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// Shards must exist before the pinned solve.
		for _, n := range names {
			if _, err := srv.Shard(n); err != nil {
				t.Fatal(err)
			}
		}
		asg := srv.FleetReallocate()
		total := 0.0
		for _, a := range asg {
			total += a.BudgetW
		}
		if total > capW*(1+1e-9)+1e-6 {
			t.Logf("cap %g: initial budgets sum to %g", capW, total)
			return false
		}
		ingestInterleaved(t, srv, names, traces)
		for p, w := range aggTrusted(t, srv, names) {
			if w > capW*(1+1e-9)+1e-6 {
				t.Logf("cap %g: period %d aggregate trusted power %g", capW, p, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestFleetDynamicEpochCompliance re-solves every period (FleetEpoch 1)
// across several caps: every trusted record must respect the budget it
// was decided under, and every reallocation's output must pass the
// fairness checker.
func TestFleetDynamicEpochCompliance(t *testing.T) {
	names := []string{"d0", "d1", "d2"}
	traces := fleetTraces(t, names, 320)
	for _, capW := range []float64{6, 12, 20, 35} {
		streams, srv := runFleet(t, capW, names, traces)
		sawBudgeted := false
		for _, n := range names {
			sh, _ := srv.Shard(n)
			for _, r := range sh.Flight().Last(0) {
				if !trusted(r) || r.BudgetW == 0 {
					continue
				}
				sawBudgeted = true
				if r.PowerW > r.BudgetW*(1+1e-9)+1e-6 {
					t.Fatalf("cap %g: %s period %d: power %g W over budget %g W",
						capW, n, r.Period, r.PowerW, r.BudgetW)
				}
			}
			if len(streams[n]) == 0 {
				t.Fatalf("cap %g: shard %s published no decisions", capW, n)
			}
		}
		if !sawBudgeted {
			t.Fatalf("cap %g: no trusted budgeted records", capW)
		}
		asg := srv.FleetReallocate()
		sums := make([]fleet.Summary, len(asg))
		budgets := make([]float64, len(asg))
		for i, a := range asg {
			sums[i] = fleet.Summary{Disk: a.Disk, FloorW: a.FloorW, DemandW: a.DemandW}
			budgets[i] = a.BudgetW
		}
		if err := fleet.CheckFairness(capW, sums, budgets); err != nil {
			t.Fatalf("cap %g: %v", capW, err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetHandlerDisabled pins the negative contract: without a cap
// the endpoint answers 404, and both a capless server and a nil server
// are safe to mount.
func TestFleetHandlerDisabled(t *testing.T) {
	srv, err := New(testConfig(&decisionLog{}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, h := range map[string]*Server{"capless": srv, "nil": nil} {
		rr := httptest.NewRecorder()
		h.FleetHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/fleet", nil))
		if rr.Code != 404 {
			t.Fatalf("%s server: /debug/fleet = %d, want 404", name, rr.Code)
		}
	}
}

// TestFleetHandlerPayload drives one capped run and checks the
// /debug/fleet JSON: the cap, the epoch count, and one assignment per
// shard, sorted by disk, summing under the cap.
func TestFleetHandlerPayload(t *testing.T) {
	names := []string{"b", "a"}
	traces := fleetTraces(t, names, 330)
	const capW = 10.0
	_, srv := runFleet(t, capW, names, traces)
	defer srv.Close()

	rr := httptest.NewRecorder()
	srv.FleetHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/fleet", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/fleet = %d, want 200", rr.Code)
	}
	var st FleetStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.PowerCapW != capW || st.Epoch == 0 {
		t.Fatalf("payload cap %g epoch %d, want cap %g and epoch > 0", st.PowerCapW, st.Epoch, capW)
	}
	if len(st.Assignments) != len(names) {
		t.Fatalf("%d assignments, want %d", len(st.Assignments), len(names))
	}
	total := 0.0
	for i, a := range st.Assignments {
		if i > 0 && a.Disk < st.Assignments[i-1].Disk {
			t.Fatal("assignments not sorted by disk")
		}
		total += a.BudgetW
	}
	if total > capW*(1+1e-9)+1e-6 {
		t.Fatalf("assignments sum to %g W over cap %g W", total, capW)
	}

	// The status columns surface the same budgets.
	status := srv.Status()
	for _, sh := range status.Shards {
		if sh.BudgetW == 0 {
			t.Fatalf("shard %s status missing budget column", sh.Disk)
		}
	}
}

// TestFleetConcurrentIngestAndReallocate is the -race target: two
// shards ingest concurrently with the epoch cadence at every period
// (so both trigger reallocations), while a third goroutine forces extra
// reallocations and reads the handler. Budgets must always sum under
// the cap.
func TestFleetConcurrentIngestAndReallocate(t *testing.T) {
	trA, trB := testTrace(t, 341), testTrace(t, 342)
	const capW = 12.0
	cfg := testConfig(&decisionLog{})
	cfg.PowerCapW = capW
	cfg.FlightRecorder = flight.DefaultDepth
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shA, err := srv.Shard("a")
	if err != nil {
		t.Fatal(err)
	}
	shB, err := srv.Shard("b")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	feed := func(sh *Shard, tr *trace.Trace) {
		defer wg.Done()
		for i := 0; i < len(tr.Requests); i += 64 {
			j := i + 64
			if j > len(tr.Requests) {
				j = len(tr.Requests)
			}
			if err := sh.IngestBatch(tr.Requests[i:j]); err != nil {
				t.Error(err)
				return
			}
		}
		if err := sh.FinishTo(tr.Duration); err != nil {
			t.Error(err)
		}
	}
	stop := make(chan struct{})
	auxDone := make(chan struct{})
	wg.Add(2)
	go feed(shA, trA)
	go feed(shB, trB)
	go func() {
		defer close(auxDone)
		for {
			select {
			case <-stop:
				return
			default:
				asg := srv.FleetReallocate()
				total := 0.0
				for _, a := range asg {
					total += a.BudgetW
				}
				if total > capW*(1+1e-9)+1e-6 {
					t.Errorf("budgets sum to %g W over cap %g W", total, capW)
					return
				}
				rr := httptest.NewRecorder()
				srv.FleetHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/fleet", nil))
				if rr.Code != 200 {
					t.Errorf("/debug/fleet = %d", rr.Code)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-auxDone
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetWarmRestartCappedParity is the capped half of the restart
// differential: under a binding cap, a graceful stop and warm restart
// (the snapshot carrying the budget) must reproduce the uninterrupted
// capped run's decision stream bit-identically.
func TestFleetWarmRestartCappedParity(t *testing.T) {
	tr := testTrace(t, 420)

	// Derive a binding cap from the uncapped run's peak decision power.
	free := runUninterrupted(t, tr, testConfig(nil))
	maxP := 0.0
	for _, d := range free {
		if w := float64(d.Decision.Chosen.TotalPower); w > maxP {
			maxP = w
		}
	}
	if maxP <= 0 {
		t.Fatal("uncapped run priced no decisions")
	}
	capW := 0.8 * maxP

	capped := testConfig(nil)
	capped.PowerCapW = capW
	ref := runUninterrupted(t, tr, capped)
	if reflect.DeepEqual(ref, free) {
		t.Logf("cap %g W never bound on this workload", capW)
	}

	for _, cut := range []int{len(tr.Requests) / 3, len(tr.Requests) / 2} {
		snap := filepath.Join(t.TempDir(), "daemon.snap")
		log1 := &decisionLog{}
		cfg := testConfig(log1)
		cfg.PowerCapW = capW
		cfg.SnapshotPath = snap
		srv1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh1, err := srv1.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		if err := sh1.IngestBatch(tr.Requests[:cut]); err != nil {
			t.Fatal(err)
		}
		if err := srv1.Close(); err != nil {
			t.Fatal(err)
		}

		log2 := &decisionLog{}
		cfg2 := testConfig(log2)
		cfg2.PowerCapW = capW
		cfg2.SnapshotPath = snap
		srv2, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv2.Restore(); err != nil {
			t.Fatal(err)
		}
		sh2, err := srv2.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		if err := sh2.IngestBatch(tr.Requests[sh2.Consumed():]); err != nil {
			t.Fatal(err)
		}
		if err := sh2.FinishTo(tr.Duration); err != nil {
			t.Fatal(err)
		}
		if err := srv2.Close(); err != nil {
			t.Fatal(err)
		}

		got := append(log1.list(), log2.list()...)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("cut %d: capped warm restart diverges from uninterrupted capped run", cut)
		}
	}
}
