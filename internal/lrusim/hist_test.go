package lrusim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
)

// naiveAggregates replays a period log the obvious way — one pass of
// plain counters and bucket arrays mirroring the documented Observe
// semantics — to serve as the differential oracle for DepthHist.
type naiveAggregates struct {
	refs      int64
	coldCount int64
	coldBytes simtime.Bytes
	nonCold   simtime.Bytes
	maxDepth  int64

	countPrefix []int64         // maxBanks+1 cumulative non-cold counts
	totalPrefix []simtime.Bytes // maxBanks cumulative non-cold bytes
	firstPrefix []simtime.Bytes // maxBanks cumulative first-touch bytes
}

func accumulate[T ~int64](a []T) {
	for i := 1; i < len(a); i++ {
		a[i] += a[i-1]
	}
}

func naiveReplay(log []DepthRecord, bankPages int64, maxBanks int) naiveAggregates {
	n := naiveAggregates{
		countPrefix: make([]int64, maxBanks+1),
		totalPrefix: make([]simtime.Bytes, maxBanks),
		firstPrefix: make([]simtime.Bytes, maxBanks),
	}
	seen := make(map[int64]bool)
	for _, r := range log {
		n.refs++
		if r.Depth == Cold {
			n.coldCount++
			n.coldBytes += r.Bytes
			seen[r.Page] = true
			continue
		}
		d := int64(r.Depth)
		if d > n.maxDepth {
			n.maxDepth = d
		}
		bank := (d-1)/bankPages + 1
		cb := bank
		if cb > int64(maxBanks) {
			cb = int64(maxBanks)
		}
		n.totalPrefix[cb-1] += r.Bytes
		n.nonCold += r.Bytes
		if !seen[r.Page] {
			seen[r.Page] = true
			n.firstPrefix[cb-1] += r.Bytes
		}
		kb := bank
		if kb > int64(maxBanks)+1 {
			kb = int64(maxBanks) + 1
		}
		n.countPrefix[kb-1]++
	}
	accumulate(n.countPrefix)
	accumulate(n.totalPrefix)
	accumulate(n.firstPrefix)
	return n
}

// randPeriodLog generates one period's depth-annotated stream: time-ordered
// records over a small page universe with a mix of cold references, depths
// straddling the bank clamp, and repeated same-timestamp bursts (the case
// event compression must collapse exactly like the batch builder). The
// depths come from a StackSim, as DepthHist's first-touch rule requires:
// the stack is warmed with a random prefix, so the period opens on pages
// touched before it, and gets a random window, so pages touched in the
// period are evicted in some trials.
func randPeriodLog(rng *rand.Rand, bankPages int64, maxBanks int) []DepthRecord {
	clamp := int(bankPages) * (maxBanks + 2)
	universe := 1 + rng.Intn(clamp+clamp/2)
	s := NewStackSim(1 + rng.Intn(clamp))
	for i, warm := 0, rng.Intn(2*universe); i < warm; i++ {
		s.Reference(int64(rng.Intn(universe)))
	}
	n := 1 + rng.Intn(400)
	log := make([]DepthRecord, 0, n)
	t := simtime.Seconds(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			// Same-time bursts arise from multi-page requests.
			t += simtime.Seconds(rng.Float64())
		}
		page := int64(rng.Intn(universe))
		log = append(log, DepthRecord{
			Time:  t,
			Page:  page,
			Depth: s.Reference(page),
			Bytes: simtime.Bytes(1 + rng.Intn(3)),
		})
	}
	return log
}

// TestDepthHistMatchesNaiveReplay drives randomized period logs through a
// streaming DepthHist and checks every aggregate — histogram prefix sums
// over the full installed width, cold/non-cold counters, max depth, and
// the finished gap log — against a naive full-log replay and the batch
// builders (BuildEvents, then BuildGapLog). The same histogram is reused
// across trials so Reset's buffer reuse, and its zeroing of only the
// buckets a period reached, are under test too.
func TestDepthHistMatchesNaiveReplay(t *testing.T) {
	geometries := []struct {
		bankPages int64
		maxBanks  int
		minKeep   int
		window    simtime.Seconds
	}{
		{4, 8, 1, 0.5},
		{4, 8, 1, 0}, // zero window: compression must stay off
		{1, 16, 3, 0.25},
		{7, 5, 2, 1.0},
	}
	for _, g := range geometries {
		h := NewDepthHist(g.bankPages, g.maxBanks, g.minKeep, g.window)
		var gs GapStream
		trial := func(seed int64) bool {
			h.Reset()
			rng := rand.New(rand.NewSource(seed))
			log := randPeriodLog(rng, g.bankPages, g.maxBanks)
			for _, r := range log {
				h.Observe(r)
			}
			want := naiveReplay(log, g.bankPages, g.maxBanks)

			if h.Refs() != want.refs || h.MaxDepth() != want.maxDepth {
				return false
			}
			if cc, cb := h.Cold(); cc != want.coldCount || cb != want.coldBytes {
				return false
			}
			if nc, nb := h.NonCold(); nc != want.refs-want.coldCount || nb != want.nonCold {
				return false
			}
			if !reflect.DeepEqual(h.AppendCountPrefix(nil, g.maxBanks+1), want.countPrefix) {
				return false
			}
			if !reflect.DeepEqual(h.AppendTotalPrefix(nil, g.maxBanks), want.totalPrefix) {
				return false
			}
			if !reflect.DeepEqual(h.AppendFirstPrefix(nil, g.maxBanks), want.firstPrefix) {
				return false
			}
			start, end := simtime.Seconds(-1), simtime.Seconds(-1)
			if seed%2 == 0 {
				start, end = 0, log[len(log)-1].Time+1
			}
			ev := BuildEvents(nil, log, g.bankPages, g.maxBanks, g.minKeep, g.window > 0)
			wantGaps := BuildGapLog(&gs, ev, g.maxBanks, g.window, start, end)
			gotGaps := h.FinishGaps(start, end)
			if len(gotGaps) != len(wantGaps) {
				return false
			}
			for i := range wantGaps {
				if gotGaps[i] != wantGaps[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(trial, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("geometry %+v: %v", g, err)
		}
	}
}

// TestDepthHistFirstTouchMatchesSetOracle checks DepthHist's first-touch
// rule, which reads a page's first touch in the period off its depth,
// against a set of the pages the period has touched. One StackSim's depth
// stream runs through consecutive periods, with Reset between them, fed in
// random blocks through Observe or ObserveRuns; after every block the
// first-access prefix sums must match the set's. Each period touches every
// page of a range that slides by a quarter per period, so it opens on pages
// tracked from earlier periods and on new ones. The cases put the tracked
// window below, at and above the period's distinct pages, and evict pages
// touched in the period by dropDeepest or by a restore into a smaller
// window in the middle of a period.
func TestDepthHistFirstTouchMatchesSetOracle(t *testing.T) {
	const (
		bankPages  = 2
		maxBanks   = 24 // the deep clamp (48 pages) lies below the widest window
		distinct   = 40 // pages each period touches
		periodRefs = 4 * distinct
		periods    = 16
	)
	type mutation func(rng *rand.Rand, s *StackSim) *StackSim
	cases := []struct {
		name   string
		window int
		mid    mutation // applied once per period, between two blocks
	}{
		{"window-below", distinct / 2, nil},
		{"window-at", distinct, nil},
		{"window-above", 2 * distinct, nil},
		{"drop-deepest", 2 * distinct, func(rng *rand.Rand, s *StackSim) *StackSim {
			dropDeepest(s, rng.Intn(s.Len()+1))
			return s
		}},
		{"restore-smaller", 2 * distinct, func(rng *rand.Rand, s *StackSim) *StackSim {
			refs, colds := s.Counters()
			return RestoreStackSim(1+rng.Intn(max(s.Len()-1, 1)), s.SnapshotPages(), refs, colds)
		}},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		s := NewStackSim(tc.window)
		h := NewDepthHist(bankPages, maxBanks, 1, 0.5)
		var got, want []simtime.Bytes
		tm := simtime.Seconds(0)
		nonColdFirsts, retouched := 0, 0
		for p := 0; p < periods; p++ {
			if tc.mid != nil {
				// Back to the case's window: a restore grows the window
				// without evicting anything.
				refs, colds := s.Counters()
				s = RestoreStackSim(tc.window, s.SnapshotPages(), refs, colds)
			}
			h.Reset()
			base := int64(p * distinct / 4)
			pages := make([]int64, periodRefs)
			for i := range pages {
				pages[i] = base + int64(i%distinct) // every page at least once
				if i >= distinct {
					pages[i] = base + int64(rng.Intn(distinct))
				}
			}
			rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
			seen := make(map[int64]bool)
			first := make([]simtime.Bytes, maxBanks)
			midAt := rng.Intn(periodRefs)
			for off := 0; off < periodRefs; {
				if tc.mid != nil && off >= midAt {
					s = tc.mid(rng, s)
					midAt = periodRefs
				}
				block := make([]DepthRecord, 1+rng.Intn(min(32, periodRefs-off)))
				runs := make([]DepthRun, len(block))
				bytes := simtime.Bytes(1 + rng.Intn(3))
				for i := range block {
					pg := pages[off+i]
					tm += simtime.Seconds(rng.Float64())
					r := DepthRecord{Time: tm, Page: pg, Depth: s.Reference(pg), Bytes: bytes}
					block[i] = r
					runs[i] = DepthRun{Time: tm, Page: pg, Pages: 1, Depth: int32(r.Depth)}
					switch {
					case r.Depth == Cold:
						if seen[pg] {
							retouched++ // evicted after its first touch this period
						}
					case !seen[pg]:
						nonColdFirsts++
						first[min((r.Depth-1)/bankPages, maxBanks-1)] += r.Bytes
					}
					seen[pg] = true
				}
				if rng.Intn(2) == 0 {
					h.ObserveRuns(runs, bytes)
				} else {
					for _, r := range block {
						h.Observe(r)
					}
				}
				off += len(block)
				want = want[:0]
				var sum simtime.Bytes
				for _, b := range first {
					sum += b
					want = append(want, sum)
				}
				got = h.AppendFirstPrefix(got[:0], maxBanks)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: period %d after %d refs: first-access prefix\n got %v\nwant %v", tc.name, p, off, got, want)
				}
			}
		}
		if nonColdFirsts == 0 {
			t.Errorf("%s: no period re-touched a page tracked from before it", tc.name)
		}
		if evicts := tc.window < distinct || tc.mid != nil; evicts && retouched == 0 {
			t.Errorf("%s: no page touched in a period was evicted within it", tc.name)
		}
	}
}

// TestStackSimDropDeepestSnapshotRestore pins the interaction of the three
// stack mutators that rewrite position state: dropDeepest evictions,
// position compaction (forced by a small tracked window under thousands of
// references), and SnapshotPages/RestoreStackSim. After a drop and a
// snapshot round-trip, the restored stack must report depths identical to
// the original for any subsequent reference stream.
func TestStackSimDropDeepestSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const tracked = 24
	a := NewStackSim(tracked)
	// Enough references to trigger compact() several times (positions
	// advance per reference; capacity is max(2*tracked, 1024)).
	for i := 0; i < 5000; i++ {
		a.Reference(int64(rng.Intn(64)))
	}

	dropDeepest(a, 10)
	if a.Len() != 10 {
		t.Fatalf("dropDeepest(10) left %d tracked pages", a.Len())
	}

	refs, colds := a.Counters()
	pages := a.SnapshotPages()
	b := RestoreStackSim(tracked, pages, refs, colds)

	if !reflect.DeepEqual(b.SnapshotPages(), pages) {
		t.Fatalf("restored stack order diverges:\n got %v\nwant %v", b.SnapshotPages(), pages)
	}
	if br, bc := b.Counters(); br != refs || bc != colds {
		t.Fatalf("restored counters (%d,%d) != (%d,%d)", br, bc, refs, colds)
	}

	// The two stacks must now be behaviourally identical — including
	// through further evictions and compactions on both sides.
	for i := 0; i < 5000; i++ {
		p := int64(rng.Intn(96))
		da, db := a.Reference(p), b.Reference(p)
		if da != db {
			t.Fatalf("ref %d page %d: depth %d (original) != %d (restored)", i, p, da, db)
		}
	}
	ar, ac := a.Counters()
	br, bc := b.Counters()
	if ar != br || ac != bc {
		t.Fatalf("post-stream counters diverge: (%d,%d) vs (%d,%d)", ar, ac, br, bc)
	}
}
