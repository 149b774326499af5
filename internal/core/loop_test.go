package core

import (
	"math/rand"
	"reflect"
	"testing"

	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
)

// loopRequest is one request of the period-loop tests.
type loopRequest struct {
	t     simtime.Seconds
	first int64
	n     int
}

// loopRequests returns a time-ordered request stream over periods
// periods of p.Period: ranges of 1–12 pages over three times the
// installed pages, half of them repeats of a recent range, so the stack
// both evicts and returns multi-page runs.
func loopRequests(p Params, periods int, seed int64) []loopRequest {
	rng := rand.New(rand.NewSource(seed))
	universe := 3 * int64(p.TotalBanks) * p.bankPages()
	var out []loopRequest
	for t := rng.ExpFloat64(); t < float64(p.Period)*float64(periods); t += rng.ExpFloat64() * 0.4 {
		r := loopRequest{t: simtime.Seconds(t), first: rng.Int63n(universe), n: 1 + rng.Intn(12)}
		if k := len(out); k > 0 && rng.Intn(2) == 0 {
			prev := out[k-1-rng.Intn(min(k, 64))]
			r.first, r.n = prev.first, prev.n
		}
		out = append(out, r)
	}
	return out
}

// TestCloseMatchesManualLoop: Reference and Close decide exactly as a
// host that runs its own stack, hands each request's runs to IngestBatch
// and closes periods with DiscardPeriod or DecideIncremental on the
// period's page count and bounds. Reference returns the same runs, the
// stack the snapshot carries is the host stack's, and the queue stays at
// ingestBlock runs while every request fits in it.
func TestCloseMatchesManualLoop(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	m, _ := NewManager(p)
	twin, _ := NewManager(p)
	stack := lrusim.NewStackSim(p.stackWindow())
	reqs := loopRequests(p, 6, 1)
	// One request alone outgrows the queue.
	last := reqs[len(reqs)-1]
	reqs = append(reqs, loopRequest{t: last.t, first: 1 << 20, n: 3 * ingestBlock})

	var runs []lrusim.DepthRun
	var pages int64
	end := p.Period
	closeBoth := func(period int) {
		warmup := period == 1
		coalesce := 1 + float64(period)/4
		cur := m.Last().Banks
		got := m.Close(end, warmup, coalesce, cur)
		var want Decision
		if warmup {
			twin.DiscardPeriod()
			want = twin.Last()
		} else {
			want = twin.DecideIncremental(Observation{
				CacheAccesses:  pages,
				CoalesceFactor: coalesce,
				PeriodStart:    end - p.Period,
				PeriodEnd:      end,
				CurrentBanks:   cur,
			})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("period %d: Close diverges from the manual loop\nclose:  %+v\nmanual: %+v", period, got, want)
		}
		pages = 0
		end += p.Period
	}
	period := 1
	for i, r := range reqs {
		for r.t >= end {
			closeBoth(period)
			period++
		}
		if i == len(reqs)-1 && cap(m.queue) != ingestBlock {
			t.Fatalf("queue grew to %d runs on requests of at most 12 pages, want %d", cap(m.queue), ingestBlock)
		}
		got := m.Reference(r.t, r.first, r.n)
		runs = stack.ReferenceRange(runs[:0], r.t, r.first, r.n)
		if !reflect.DeepEqual(got, runs) {
			t.Fatalf("request %d: Reference returned %+v, the stack %+v", i, got, runs)
		}
		twin.IngestBatch(runs)
		pages += int64(r.n)
	}
	closeBoth(period)
	if period < 6 {
		t.Fatalf("stream closed %d periods, want ≥ 6", period)
	}
	st := m.Snapshot()
	refs, colds := stack.Counters()
	if !reflect.DeepEqual(st.StackPages, stack.SnapshotPages()) || st.StackRefs != refs || st.StackColds != colds {
		t.Fatalf("snapshot stack (%d pages, %d refs, %d colds) differs from the host stack (%d pages, %d refs, %d colds)",
			len(st.StackPages), st.StackRefs, st.StackColds, stack.Len(), refs, colds)
	}
}

// TestRestoreCarriesStack: a manager restored from a Snapshot taken at
// any period boundary decides the remaining periods, and returns the
// remaining requests' runs, exactly as the uninterrupted manager does.
func TestRestoreCarriesStack(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	reqs := loopRequests(p, 5, 2)
	type period struct {
		dec  Decision
		runs []lrusim.DepthRun
	}
	drive := func(m *Manager, from, to int) []period {
		var out []period
		end := p.Period * simtime.Seconds(from+1)
		var cur period
		for _, r := range reqs {
			if r.t < end-p.Period {
				continue
			}
			for r.t >= end {
				cur.dec = m.Close(end, false, 1.5, m.Last().Banks)
				out = append(out, cur)
				cur = period{}
				end += p.Period
			}
			if len(out) == to-from {
				return out
			}
			cur.runs = append(cur.runs, m.Reference(r.t, r.first, r.n)...)
		}
		return out
	}
	ref, _ := NewManager(p)
	want := drive(ref, 0, 4)
	for cut := 1; cut < 4; cut++ {
		warm, _ := NewManager(p)
		drive(warm, 0, cut)
		cold, _ := NewManager(p)
		if err := cold.Restore(warm.Snapshot()); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := drive(cold, cut, 4)
		if !reflect.DeepEqual(got, want[cut:]) {
			t.Fatalf("cut %d: the restored manager diverges from the uninterrupted one", cut)
		}
		if cap(cold.queue) != ingestBlock {
			t.Fatalf("cut %d: the restored manager queues %d runs, want %d", cut, cap(cold.queue), ingestBlock)
		}
	}
}
