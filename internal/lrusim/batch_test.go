package lrusim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
)

// histState flattens every externally observable aggregate of a
// DepthHist, including the finished gap log, for equality checks.
type histState struct {
	refs, maxDepth         int64
	coldCount              int64
	coldBytes, nonColdB    simtime.Bytes
	countPfx, totPfx, fPfx []int64
	events                 []SweepEvent
	gaps                   []Emission
}

func captureHist(h *DepthHist, start, end simtime.Seconds) histState {
	_, cb := h.Cold()
	cc, _ := h.Cold()
	_, nb := h.NonCold()
	return histState{
		refs:      h.Refs(),
		maxDepth:  h.MaxDepth(),
		coldCount: cc,
		coldBytes: cb,
		nonColdB:  nb,
		countPfx:  h.AppendCountPrefix(nil),
		totPfx:    h.AppendTotalPrefix(nil),
		fPfx:      h.AppendFirstPrefix(nil),
		events:    append([]SweepEvent(nil), h.Events()...),
		gaps:      append([]Emission(nil), h.FinishGaps(start, end)...),
	}
}

// randPeriodRuns generates one period's depth runs the way a shard's run
// pass does: requests drawn by rangeTraffic, over a universe straddling
// the bank clamp, referenced through one StackSim warmed with a random
// prefix and given a random window, with same-time bursts of requests.
func randPeriodRuns(rng *rand.Rand, bankPages int64, maxBanks int) []DepthRun {
	clamp := int(bankPages) * (maxBanks + 2)
	g := newRangeTraffic(rng, 1+rng.Intn(clamp/3+1))
	s := NewStackSim(1 + rng.Intn(clamp))
	var runs []DepthRun
	for i, warm := 0, rng.Intn(2*len(g.starts)); i < warm; i++ {
		first, n := g.next()
		runs = s.ReferenceRange(runs[:0], 0, first, n)
	}
	runs = runs[:0]
	t := simtime.Seconds(0)
	for i, reqs := 0, 1+rng.Intn(150); i < reqs; i++ {
		if rng.Intn(3) > 0 {
			t += simtime.Seconds(rng.Float64())
		}
		first, n := g.next()
		runs = s.ReferenceRange(runs, t, first, n)
	}
	return runs
}

// TestObserveRunsMatchesObserve: feeding a period's depth runs through
// ObserveRuns in arbitrary block sizes — interleaved with runs fed page
// by page through Observe — must leave the histogram, event stream, and
// gap log in exactly the state page-at-a-time feeding produces.
func TestObserveRunsMatchesObserve(t *testing.T) {
	geometries := []struct {
		bankPages int64
		maxBanks  int
		minKeep   int
		window    simtime.Seconds
	}{
		{4, 8, 1, 0.5},
		{4, 8, 1, 0}, // zero window: same-time compression off
		{1, 16, 3, 0.25},
		{7, 5, 2, 1.0},
	}
	for _, g := range geometries {
		ref := NewDepthHist(g.bankPages, g.maxBanks, g.minKeep, g.window)
		bat := NewDepthHist(g.bankPages, g.maxBanks, g.minKeep, g.window)
		multi := 0
		trial := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			runs := randPeriodRuns(rng, g.bankPages, g.maxBanks)
			pageBytes := simtime.Bytes(1 + rng.Intn(3))
			log := AppendRecords(nil, runs, pageBytes)
			multi += len(log) - len(runs)
			start, end := simtime.Seconds(-1), simtime.Seconds(-1)
			if rng.Intn(2) == 0 {
				start, end = 0, log[len(log)-1].Time+1
			}
			ref.Reset()
			for _, r := range log {
				ref.Observe(r)
			}
			bat.Reset()
			for off := 0; off < len(runs); {
				n := 1 + rng.Intn(len(runs)-off)
				if rng.Intn(4) == 0 {
					for _, r := range AppendRecords(nil, runs[off:off+1], pageBytes) {
						bat.Observe(r)
					}
					off++
					continue
				}
				bat.ObserveRuns(runs[off:off+n], pageBytes)
				off += n
			}
			want := captureHist(ref, start, end)
			got := captureHist(bat, start, end)
			if !reflect.DeepEqual(want, got) {
				t.Logf("seed %d geometry %+v:\nwant %+v\ngot  %+v", seed, g, want, got)
				return false
			}
			return true
		}
		if err := quick.Check(trial, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("geometry %+v: %v", g, err)
		}
		if multi == 0 {
			t.Errorf("geometry %+v: no run spans more than one page", g)
		}
	}
}

// TestFeedBatchMatchesFeed: folding an event stream through FeedBatch in
// chunks leaves the gap stream exactly where one-at-a-time feeding does.
func TestFeedBatchMatchesFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		maxBanks := 1 + rng.Intn(12)
		window := simtime.Seconds(0)
		if rng.Intn(2) == 0 {
			window = simtime.Seconds(rng.Float64())
		}
		n := rng.Intn(60)
		evs := make([]SweepEvent, 0, n)
		tm := simtime.Seconds(0)
		for i := 0; i < n; i++ {
			tm += simtime.Seconds(rng.Float64() * 2)
			evs = append(evs, SweepEvent{T: tm, Bank: int32(1 + rng.Intn(maxBanks+1))})
		}
		var a, b GapStream
		a.Reset(window, maxBanks)
		b.Reset(window, maxBanks)
		for _, e := range evs {
			a.Feed(e)
		}
		for off := 0; off < len(evs); {
			k := 1 + rng.Intn(len(evs)-off)
			b.FeedBatch(evs[off : off+k])
			off += k
		}
		end := tm + 1
		ga := append([]Emission(nil), a.Finish(0, end)...)
		gb := append([]Emission(nil), b.Finish(0, end)...)
		if !reflect.DeepEqual(ga, gb) {
			t.Fatalf("trial %d: gap logs diverge\nfeed:  %+v\nbatch: %+v", trial, ga, gb)
		}
	}
}
