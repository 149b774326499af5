package lrusim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"jointpm/internal/simtime"
)

// rangeTraffic draws requests over files of 1 to 8 pages laid side by
// side from page 0: mostly whole-file repeats, then partial ranges inside
// one file, ranges over a file and parts of its neighbours (which nest
// whole extents and overlap partial ones), and single pages.
type rangeTraffic struct {
	rng    *rand.Rand
	starts []int64 // file i covers [starts[i], starts[i+1])
}

func newRangeTraffic(rng *rand.Rand, files int) *rangeTraffic {
	g := &rangeTraffic{rng: rng, starts: make([]int64, files+1)}
	for i := 1; i <= files; i++ {
		g.starts[i] = g.starts[i-1] + 1 + int64(rng.Intn(8))
	}
	return g
}

// pages returns the number of pages the files cover.
func (g *rangeTraffic) pages() int { return int(g.starts[len(g.starts)-1]) }

func (g *rangeTraffic) next() (first int64, n int) {
	f := g.rng.Intn(len(g.starts) - 1)
	lo, hi := g.starts[f], g.starts[f+1]
	switch k := g.rng.Intn(10); {
	case k < 6: // the whole file
	case k < 8: // part of it
		lo += g.rng.Int63n(hi - lo)
		hi = lo + 1 + g.rng.Int63n(hi-lo)
	case k < 9: // spilling into the neighbours
		lo = max(lo-g.rng.Int63n(4), 0)
		hi = min(hi+g.rng.Int63n(9), int64(g.pages()))
	default: // one page
		lo += g.rng.Int63n(hi - lo)
		hi = lo + 1
	}
	return lo, int(hi - lo)
}

// checkExtents verifies the stack's extent structure: every extent's
// pages sit at consecutive live positions from its start, in page order;
// every page but an extent's first maps to an id naming that first page;
// extents of two or more pages own one id each, shared with no other
// extent; and every other id is on the free list exactly once.
func checkExtents(t *testing.T, s *StackSim, where string) {
	t.Helper()
	var live []int
	for w, word := range s.live {
		for ; word != 0; word &= word - 1 {
			live = append(live, w<<6|bits.TrailingZeros64(word))
		}
	}
	if len(live) != s.count || s.table.Len() != s.count {
		t.Fatalf("%s: %d live positions, %d table entries, count %d", where, len(live), s.table.Len(), s.count)
	}
	owner := make([]int64, len(s.firstOf)) // id -> first page + 1 of the extent using it
	for i := 0; i < len(live); {
		f := s.pageAt[live[i]]
		v, ok := s.table.Get(f)
		if !ok || v < 0 {
			t.Fatalf("%s: page %d at the bottom of an extent (position %d) has table value %d, %v", where, f, live[i], v, ok)
		}
		start, n := int(v&posMask), int(v>>posBits)
		if start != live[i] || n < 1 || i+n > len(live) {
			t.Fatalf("%s: extent of page %d: start %d, %d pages; found at position %d with %d live above", where, f, start, n, live[i], len(live)-i)
		}
		id := int64(-1)
		for k := 1; k < n; k++ {
			pos, p := live[i+k], f+int64(k)
			if pos != start+k || s.pageAt[pos] != p {
				t.Fatalf("%s: extent of page %d: page %d of it at position %d holds page %d", where, f, start+k, pos, s.pageAt[pos])
			}
			v, ok := s.table.Get(p)
			if !ok || v >= 0 {
				t.Fatalf("%s: page %d inside the extent of page %d has table value %d, %v", where, p, f, v, ok)
			}
			if k == 1 {
				id = ^v
			} else if ^v != id {
				t.Fatalf("%s: extent of page %d mixes ids %d and %d", where, f, id, ^v)
			}
		}
		if id >= 0 {
			if s.firstOf[id] != f {
				t.Fatalf("%s: id %d of the extent of page %d names page %d", where, id, f, s.firstOf[id])
			}
			if owner[id] != 0 {
				t.Fatalf("%s: id %d is shared by the extents of pages %d and %d", where, id, owner[id]-1, f)
			}
			owner[id] = f + 1
		}
		i += n
	}
	for _, id := range s.freeIDs {
		if owner[id] != 0 {
			t.Fatalf("%s: id %d is free and names the extent of page %d", where, id, owner[id]-1)
		}
		owner[id] = -1
	}
	for id, o := range owner {
		if o == 0 {
			t.Fatalf("%s: id %d is neither used nor free", where, id)
		}
	}
}

// TestReferenceRangeMatchesNaive drives ReferenceRange with rangeTraffic
// against a naive LRU list referenced page by page. The windows lie
// below, at and above the working set, so evictions land inside
// requests, and mid-stream the stack is cut by dropDeepest or by a
// snapshot restored into a smaller window. Every page's depth must match
// the list's, and every 50 requests the extent structure must hold.
func TestReferenceRangeMatchesNaive(t *testing.T) {
	const files = 120
	cases := []struct {
		name   string
		window int // in working sets
		cut    func(rng *rand.Rand, s *StackSim, n *NaiveStack) *StackSim
	}{
		{"window-below", -2, nil},
		{"window-at", 0, nil},
		{"window-above", 2, nil},
		{"drop-deepest", 2, func(rng *rand.Rand, s *StackSim, n *NaiveStack) *StackSim {
			keep := rng.Intn(s.Len() + 1)
			dropDeepest(s, keep)
			n.pages = n.pages[:keep]
			return s
		}},
		{"restore-smaller", 0, func(rng *rand.Rand, s *StackSim, n *NaiveStack) *StackSim {
			window := 1 + rng.Intn(s.Len())
			refs, colds := s.Counters()
			n.maxTracked = window
			n.pages = n.pages[:min(window, len(n.pages))]
			return RestoreStackSim(window, s.SnapshotPages(), refs, colds)
		}},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		g := newRangeTraffic(rng, files)
		window := g.pages()
		switch {
		case tc.window < 0:
			window /= -tc.window
		case tc.window > 0:
			window *= tc.window
		}
		s, naive := NewStackSim(window), NewNaiveStack(window)
		var runs []DepthRun
		fast, split, multi := 0, 0, 0
		for req := 0; req < 30000; req++ {
			if tc.cut != nil && req%7500 == 3000 {
				s = tc.cut(rng, s, naive)
				checkExtents(t, s, tc.name+" after the cut")
			}
			first, n := g.next()
			if v, ok := s.table.Get(first); ok && v >= 0 && int(v>>posBits) == n {
				fast++
			}
			tm := simtime.Seconds(req)
			runs = s.ReferenceRange(runs[:0], tm, first, n)
			if len(runs) > 1 {
				split++
			}
			p := first
			for i, r := range runs {
				if r.Page != p || r.Pages < 1 || r.Time != tm || (i > 0 && r.Depth == runs[i-1].Depth) {
					t.Fatalf("%s request %d [%d, +%d): run %d %+v is not the next maximal run", tc.name, req, first, n, i, r)
				}
				if r.Pages > 1 {
					multi++
				}
				for k := int32(0); k < r.Pages; k++ {
					if want := naive.Reference(p); int(r.Depth) != want {
						t.Fatalf("%s request %d [%d, +%d) page %d: depth %d, naive %d", tc.name, req, first, n, p, r.Depth, want)
					}
					p++
				}
			}
			if p != first+int64(n) || s.Len() != naive.Len() {
				t.Fatalf("%s request %d: runs cover %d of %d pages; Len %d, naive %d", tc.name, req, p-first, n, s.Len(), naive.Len())
			}
			if req%50 == 0 {
				checkExtents(t, s, tc.name)
			}
		}
		if fast < 3000 || split < 3000 || multi < 20000 {
			t.Fatalf("%s: %d fast-path requests, %d with several runs, %d multi-page runs: the traffic misses a path", tc.name, fast, split, multi)
		}
	}
}

// TestReferenceRangeLongerThanWindow: a request longer than the window
// evicts its own first pages, so the request's extent is trimmed while it
// is still being built. Depths must match the naive list, and the extent
// structure must hold after every request.
func TestReferenceRangeLongerThanWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for window := 1; window <= 6; window++ {
		s, naive := NewStackSim(window), NewNaiveStack(window)
		var runs []DepthRun
		for req := 0; req < 3000; req++ {
			first, n := int64(rng.Intn(24)), 1+rng.Intn(12)
			runs = s.ReferenceRange(runs[:0], 0, first, n)
			p := first
			for _, r := range runs {
				for k := int32(0); k < r.Pages; k++ {
					if want := naive.Reference(p); int(r.Depth) != want {
						t.Fatalf("window %d request %d [%d, +%d) page %d: depth %d, naive %d", window, req, first, n, p, r.Depth, want)
					}
					p++
				}
			}
			checkExtents(t, s, fmt.Sprintf("window %d request %d [%d, +%d)", window, req, first, n))
		}
	}
}
