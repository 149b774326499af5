package core

import (
	"reflect"
	"testing"

	"jointpm/internal/lrusim"
	"jointpm/internal/obs"
	"jointpm/internal/simtime"
)

// observations builds a deterministic sequence of period observations
// with shifting working sets, so the manager's decisions actually move
// (and hysteresis has something to hold against).
func snapshotObservations(p Params, periods int) []batchObs {
	bankPages := p.bankPages()
	out := make([]batchObs, 0, periods)
	for i := 0; i < periods; i++ {
		ws := (int64(i%5) + 2) * 4 * bankPages
		log := synthLog(ws, 2000, 0.2, p.PageSize)
		out = append(out, batchObs{Log: log, Observation: Observation{
			CacheAccesses:  int64(len(log)),
			CoalesceFactor: 1,
			PeriodStart:    simtime.Seconds(float64(i)) * p.Period,
			PeriodEnd:      simtime.Seconds(float64(i+1)) * p.Period,
		}})
	}
	return out
}

// TestSnapshotRestoreDecisionParity is the acceptance criterion for the
// checkpoint layer: restoring a snapshot into a fresh manager and
// replaying the remaining periods yields decisions DeepEqual to the
// uninterrupted run, at every possible cut point.
func TestSnapshotRestoreDecisionParity(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05 // exercise the state-dependent hold path
	obsSeq := snapshotObservations(p, 8)

	ref, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Decision, len(obsSeq))
	for i, o := range obsSeq {
		want[i] = ref.Decide(o)
	}

	for cut := 0; cut <= len(obsSeq); cut++ {
		warm, err := NewManager(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obsSeq[:cut] {
			warm.Decide(o)
		}
		st := warm.Snapshot()

		cold, err := NewManager(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.Restore(st); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		for i := cut; i < len(obsSeq); i++ {
			got := cold.Decide(obsSeq[i])
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("cut %d period %d: restored decision diverges:\ngot  %+v\nwant %+v", cut, i, got, want[i])
			}
		}
	}
}

// TestSnapshotCarriesCounters: counter values survive the round trip
// when both managers share a registry family.
func TestSnapshotCarriesCounters(t *testing.T) {
	p := testParams()
	p.Metrics = obs.NewRegistry()
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range snapshotObservations(p, 3) {
		m.Decide(o)
	}
	st := m.Snapshot()
	if st.Counters["core.decide.calls"] != 3 {
		t.Fatalf("snapshot calls counter = %d, want 3", st.Counters["core.decide.calls"])
	}

	p2 := testParams()
	p2.Metrics = obs.NewRegistry()
	m2, err := NewManager(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := p2.Metrics.CounterValue("core.decide.calls"); got != 3 {
		t.Fatalf("restored calls counter = %d, want 3", got)
	}
	// Restore must be level-setting, not additive: a second restore of
	// the same state leaves the counters unchanged.
	if err := m2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := p2.Metrics.CounterValue("core.decide.calls"); got != 3 {
		t.Fatalf("double restore drifted calls counter to %d", got)
	}
}

func TestRestoreRejectsInvalidState(t *testing.T) {
	p := testParams()
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Last()
	bad := []State{
		{Banks: 0, Pages: 0, Timeout: 1},
		{Banks: p.TotalBanks + 1, Pages: 0, Timeout: 1},
		{Banks: 1, Pages: -1, Timeout: 1},
		{Banks: 1, Pages: int64(p.TotalBanks)*m.p.bankPages() + 1, Timeout: 1},
		{Banks: 1, Pages: 0, Timeout: -1},
		{Banks: 1, Pages: 0, Timeout: 1, Counters: map[string]int64{"core.decide.calls": -4}},
		{Banks: 1, Pages: 0, Timeout: 1, StackPages: []int64{3, -1}},
	}
	for i, st := range bad {
		if err := m.Restore(st); err == nil {
			t.Errorf("state %d accepted: %+v", i, st)
		}
	}
	if !reflect.DeepEqual(m.Last(), before) || m.stack.Len() != 0 {
		t.Error("failed restore mutated manager state")
	}
}

// TestSnapshotRestoreMidPeriodParity cuts a Reference/Close stream at
// requests inside periods, so the snapshot carries an open period with
// a pending event and a gap log, and restores it into a fresh manager.
// The restored manager must return the same depth runs for the
// remaining requests and decide every remaining period exactly as the
// uninterrupted manager does, without any replay.
func TestSnapshotRestoreMidPeriodParity(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	reqs := loopRequests(p, 5, 3)
	type step struct {
		runs []lrusim.DepthRun
		dec  *Decision
	}
	closeAt := func(m *Manager, end simtime.Seconds) step {
		d := m.Close(end, false, 1.5, m.Last().Banks)
		return step{dec: &d}
	}
	// feed runs reqs through m from the period that ends at end, closing
	// each boundary they cross, and returns the next boundary.
	feed := func(m *Manager, reqs []loopRequest, end simtime.Seconds) ([]step, simtime.Seconds) {
		var out []step
		for _, r := range reqs {
			for ; r.t >= end; end += p.Period {
				out = append(out, closeAt(m, end))
			}
			out = append(out, step{runs: append([]lrusim.DepthRun(nil), m.Reference(r.t, r.first, r.n)...)})
		}
		return out, end
	}
	ref, _ := NewManager(p)
	want, end := feed(ref, reqs, p.Period)
	want = append(want, closeAt(ref, end))
	for _, cut := range []int{1, len(reqs) / 5, len(reqs) / 2, len(reqs) - 1} {
		warm, _ := NewManager(p)
		got, end := feed(warm, reqs[:cut], p.Period)
		st := warm.Snapshot()
		if !st.Open.HasPending {
			t.Fatalf("cut %d: the snapshot carries no open period", cut)
		}
		cold, _ := NewManager(p)
		if err := cold.Restore(st); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if again := cold.Snapshot(); !reflect.DeepEqual(again, st) {
			t.Fatalf("cut %d: the restored manager snapshots differently", cut)
		}
		tail, end := feed(cold, reqs[cut:], end)
		got = append(append(got, tail...), closeAt(cold, end))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: the restored manager diverges from the uninterrupted one", cut)
		}
	}
}
