package lrusim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
)

// histView is everything a boundary reads from a histogram: its
// aggregates, prefixes and finished gap log, plus the miss count at
// every installed size.
type histView struct {
	histState
	misses []int64
}

func viewHist(h *DepthHist, maxBanks int, start, end simtime.Seconds) histView {
	v := histView{histState: captureHist(h, maxBanks, start, end)}
	for b := 0; b <= maxBanks; b++ {
		v.misses = append(v.misses, h.Misses(b))
	}
	return v
}

// TestHistStateRestoreContinuesPeriod cuts a period's run stream at a
// random run, exports the open period, imports it into a histogram that
// held another period, and feeds it the rest of the stream. The gap log,
// the three prefixes, the miss counts and the aggregates must match the
// uninterrupted histogram's bit for bit, and the import must export the
// state it imported.
func TestHistStateRestoreContinuesPeriod(t *testing.T) {
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
		{3, 6, 0, 0.1},
	}
	for _, g := range geometries {
		ref := NewDepthHist(g.bankPages, g.maxBanks, g.minKeep, g.window)
		cut := NewDepthHist(g.bankPages, g.maxBanks, g.minKeep, g.window)
		restored := NewDepthHist(g.bankPages, g.maxBanks, g.minKeep, g.window)
		trial := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			runs := randPeriodRuns(rng, g.bankPages, g.maxBanks)
			pb := simtime.Bytes(1 + rng.Intn(3))
			k := rng.Intn(len(runs) + 1)
			start, end := simtime.Seconds(-1), simtime.Seconds(-1)
			if rng.Intn(2) == 0 {
				start, end = 0, runs[len(runs)-1].Time+1
			}
			ref.Reset()
			ref.ObserveRuns(runs, pb)
			cut.Reset()
			cut.ObserveRuns(runs[:k], pb)
			st := cut.State(pb)
			// The importing histogram held a period of its own.
			restored.Reset()
			restored.ObserveRuns(randPeriodRuns(rng, g.bankPages, g.maxBanks), pb)
			if err := restored.Restore(st, pb); err != nil {
				t.Logf("seed %d geometry %+v cut %d/%d: %v", seed, g, k, len(runs), err)
				return false
			}
			if back := restored.State(pb); !reflect.DeepEqual(back, st) {
				t.Logf("seed %d geometry %+v cut %d: the import exports\n%+v\nnot\n%+v", seed, g, k, back, st)
				return false
			}
			restored.ObserveRuns(runs[k:], pb)
			want := viewHist(ref, g.maxBanks, start, end)
			if got := viewHist(restored, g.maxBanks, start, end); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d geometry %+v cut %d/%d:\nwant %+v\ngot  %+v", seed, g, k, len(runs), want, got)
				return false
			}
			return true
		}
		if err := quick.Check(trial, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("geometry %+v: %v", g, err)
		}
	}
}

// brokenStateBase returns a histogram of 8 banks of 4 pages, MinBanks 1
// and a 0.5 s window fed a hand-made period whose open state has every
// part the checks look at: first touches, the deep bucket, a pending
// event, two segments, three seed fix-ups and real emissions.
func brokenStateBase(t *testing.T) HistState {
	h := NewDepthHist(4, 8, 1, 0.5)
	h.ObserveRuns([]DepthRun{
		{Time: 1, Page: 10, Pages: 1, Depth: 9},    // bank 3
		{Time: 2, Page: 11, Pages: 2, Depth: 5},    // bank 2
		{Time: 3, Page: 13, Pages: 1, Depth: 30},   // bank 8
		{Time: 3.5, Page: 20, Pages: 1, Depth: 40}, // the deep bucket
		{Time: 4, Page: 14, Pages: 2, Depth: Cold},
		{Time: 5, Page: 16, Pages: 1, Depth: 6},   // bank 2
		{Time: 5.5, Page: 17, Pages: 1, Depth: 9}, // bank 3
		{Time: 6, Page: 18, Pages: 1, Depth: 2},   // bank 1: no event
	}, 8)
	st := h.State(8)
	if len(st.Counts) != 9 || len(st.SegT) < 2 || len(st.Seeds) < 3 || !st.HasPending || st.First[0]+st.First[1]+st.First[2] == 0 {
		t.Fatalf("the base period lacks a part the checks look at: %+v", st)
	}
	real := 0
	for _, e := range st.Emits {
		if e.Hi > e.Lo {
			real++
		}
	}
	if real == 0 {
		t.Fatalf("the base period emitted no gap: %+v", st)
	}
	return st
}

// cloneHistState deep-copies st, so that a mutation leaves the original
// alone.
func cloneHistState(st HistState) HistState {
	st.Counts = append([]int64(nil), st.Counts...)
	st.First = append([]int64(nil), st.First...)
	st.SegT = append([]simtime.Seconds(nil), st.SegT...)
	st.SegHi = append([]int32(nil), st.SegHi...)
	st.Emits = append([]Emission(nil), st.Emits...)
	st.Seeds = append([]SeedFix(nil), st.Seeds...)
	return st
}

// TestHistStateRestoreRefusesBroken: a state cut under another geometry,
// or one that breaks an invariant ObserveRuns keeps, is refused, and the
// histogram it was handed to keeps its own period.
func TestHistStateRestoreRefusesBroken(t *testing.T) {
	base := brokenStateBase(t)
	if err := NewDepthHist(4, 8, 1, 0.5).Restore(cloneHistState(base), 8); err != nil {
		t.Fatalf("the unbroken base state is refused: %v", err)
	}
	nan := simtime.Seconds(math.NaN())
	placeholder := func(st *HistState) int {
		for i, e := range st.Emits {
			if e == (Emission{}) {
				return i
			}
		}
		t.Fatal("no placeholder emission")
		return 0
	}
	realEmit := func(st *HistState) *Emission {
		for i := range st.Emits {
			if e := &st.Emits[i]; e.Hi > e.Lo {
				return e
			}
		}
		t.Fatal("no real emission")
		return nil
	}
	cases := []struct {
		name string
		edit func(st *HistState)
	}{
		{"geometry-bank-pages", func(st *HistState) { st.BankPages++ }},
		{"geometry-max-banks", func(st *HistState) { st.MaxBanks++ }},
		{"geometry-min-keep", func(st *HistState) { st.MinKeep++ }},
		{"geometry-window", func(st *HistState) { st.Window *= 2 }},
		{"max-depth-negative", func(st *HistState) { st.MaxDepth = -1 }},
		{"max-depth-past-int32", func(st *HistState) { st.MaxDepth = math.MaxInt32 + 1 }},
		{"buckets-past-deepest", func(st *HistState) {
			st.MaxDepth = 4 * 7 // bank 7: the deep and bank-8 buckets lie past it
		}},
		{"first-buckets-short", func(st *HistState) { st.First = st.First[:len(st.First)-1] }},
		{"deepest-bucket-empty", func(st *HistState) { st.Counts[len(st.Counts)-1] = 0 }},
		{"count-negative", func(st *HistState) { st.Counts[1] = -1 }},
		{"cold-negative", func(st *HistState) { st.Cold = -1 }},
		{"bytes-overflow", func(st *HistState) { st.Counts[0] = math.MaxInt64 / 8 }},
		{"first-past-count", func(st *HistState) { st.First[1] = st.Counts[1] + 1 }},
		{"first-negative", func(st *HistState) { st.First[0] = -1 }},
		{"deep-first-past-count", func(st *HistState) { st.First[7] = st.Counts[7] + st.Counts[8] + 1 }},
		{"gap-log-without-pending", func(st *HistState) { st.HasPending = false }},
		{"pending-without-references", func(st *HistState) {
			st.Counts, st.First, st.Cold, st.MaxDepth = nil, nil, 0, 0
			st.SegT, st.SegHi, st.Emits, st.Seeds = nil, nil, nil, nil
		}},
		{"pending-bank-kept-out", func(st *HistState) { st.Pending.Bank = int32(st.MinKeep) }},
		{"pending-bank-past-cold", func(st *HistState) { st.Pending.Bank = int32(st.MaxBanks) + 2 }},
		{"pending-time-nan", func(st *HistState) { st.Pending.T = nan }},
		{"segment-lengths-differ", func(st *HistState) { st.SegHi = st.SegHi[:1] }},
		{"segment-bound-rises", func(st *HistState) { st.SegHi[1] = st.SegHi[0] }},
		{"segment-time-falls", func(st *HistState) { st.SegT[1] = st.SegT[0] - 1 }},
		{"segment-bound-past-cold", func(st *HistState) { st.SegHi[0] = int32(st.MaxBanks) + 2 }},
		{"segment-after-pending", func(st *HistState) { st.SegT[1] = st.Pending.T + 1 }},
		{"segment-time-nan", func(st *HistState) { st.SegT[0] = nan }},
		{"segments-without-seeds", func(st *HistState) {
			st.Seeds = nil
			st.Emits = st.Emits[:0]
		}},
		{"seed-not-from-zero", func(st *HistState) { st.Seeds[0].Lo = 1 }},
		{"seed-range-empty", func(st *HistState) { st.Seeds[1].Hi = st.Seeds[1].Lo }},
		{"seed-index-repeats", func(st *HistState) { st.Seeds[1].Idx = st.Seeds[0].Idx }},
		{"seed-index-past-log", func(st *HistState) { st.Seeds[2].Idx = int32(len(st.Emits)) }},
		{"seed-on-real-emission", func(st *HistState) {
			i := placeholder(st)
			st.Emits[i] = Emission{Gap: 1, Lo: 0, Hi: 1}
		}},
		{"seed-time-falls", func(st *HistState) { st.Seeds[1].T = st.Seeds[0].T - 1 }},
		{"seed-after-pending", func(st *HistState) { st.Seeds[2].T = st.Pending.T + 1 }},
		{"seeds-end-off-oldest-segment", func(st *HistState) { st.SegHi[0]-- }},
		{"emission-range-empty", func(st *HistState) { e := realEmit(st); e.Hi = e.Lo }},
		{"emission-past-cold", func(st *HistState) { realEmit(st).Hi = int32(st.MaxBanks) + 2 }},
		{"emission-below-window", func(st *HistState) { realEmit(st).Gap = float64(st.Window) / 2 }},
		{"emission-gap-nan", func(st *HistState) { realEmit(st).Gap = math.NaN() }},
	}
	// The histogram handed the broken states holds a period of its own.
	other := NewDepthHist(4, 8, 1, 0.5)
	other.ObserveRuns([]DepthRun{{Time: 7, Page: 3, Pages: 2, Depth: Cold}, {Time: 8, Page: 3, Pages: 1, Depth: 14}}, 8)
	before, refs := other.State(8), other.Refs()
	for _, c := range cases {
		st := cloneHistState(base)
		c.edit(&st)
		if err := other.Restore(st, 8); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if got := other.State(8); !reflect.DeepEqual(got, before) || other.Refs() != refs {
			t.Fatalf("%s: a refused state changed the histogram", c.name)
		}
	}
}
