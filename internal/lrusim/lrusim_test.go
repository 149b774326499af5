package lrusim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

func TestPaperExample(t *testing.T) {
	// The example from Section IV-B, Fig. 3: eight-page memory, access
	// sequence (1, 2, 3, 5, 2, 1, 4, 6, 5, 2). First four accesses are
	// cold; then 2 and 1 hit at depths 3 and 4; 4 and 6 are cold; 5 and 2
	// return at depth 5.
	s := NewStackSim(8)
	seq := []int64{1, 2, 3, 5, 2, 1, 4, 6, 5, 2}
	want := []int{Cold, Cold, Cold, Cold, 3, 4, Cold, Cold, 5, 5}
	for i, p := range seq {
		if got := s.Reference(p); got != want[i] {
			t.Fatalf("access %d (page %d): depth %d, want %d", i, p, got, want[i])
		}
	}
	if refs, colds := s.Counters(); refs != 10 || colds != 6 {
		t.Errorf("refs=%d colds=%d, want 10/6", refs, colds)
	}
	if s.Len() != 6 {
		t.Errorf("tracked %d pages, want 6", s.Len())
	}
}

func TestDepthOneForRepeat(t *testing.T) {
	s := NewStackSim(4)
	s.Reference(7)
	if got := s.Reference(7); got != 1 {
		t.Errorf("immediate re-reference depth = %d, want 1", got)
	}
}

func TestEvictionBeyondCapacity(t *testing.T) {
	s := NewStackSim(3)
	for p := int64(0); p < 5; p++ {
		s.Reference(p)
	}
	if s.Len() != 3 {
		t.Fatalf("tracked %d, want 3", s.Len())
	}
	// Pages 0 and 1 were pushed out; they must be cold again.
	if got := s.Reference(0); got != Cold {
		t.Errorf("evicted page depth = %d, want Cold", got)
	}
	// Pages 3 and 4 are still tracked (2 was evicted when 0 re-entered).
	if got := s.Reference(4); got == Cold {
		t.Error("recent page reported cold")
	}
}

func TestCompactPreservesOrder(t *testing.T) {
	// Force many compactions with a small tracked set.
	s := NewStackSim(4)
	n := NewNaiveStack(4)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		p := int64(rng.Intn(16))
		if got, want := s.Reference(p), n.Reference(p); got != want {
			t.Fatalf("op %d page %d: stack %d vs naive %d", i, p, got, want)
		}
	}
}

// TestQuickDifferential is the main correctness property: StackSim
// agrees with the naive list walk on random workloads of varying skew and
// tracked capacity.
func TestQuickDifferential(t *testing.T) {
	f := func(seed int64, cap8 uint8, universe8 uint8) bool {
		capacity := 1 + int(cap8)%64
		universe := 1 + int(universe8)%128
		s := NewStackSim(capacity)
		n := NewNaiveStack(capacity)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			var p int64
			if rng.Intn(2) == 0 {
				p = int64(rng.Intn(universe)) // uniform
			} else {
				p = int64(rng.Intn(universe/4 + 1)) // skewed hot set
			}
			if s.Reference(p) != n.Reference(p) {
				return false
			}
			if s.Len() != n.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// dropDeepest removes tracked pages deeper than keep, modelling a memory
// shrink in which both resident and ghost history beyond the new tracked
// window are forgotten. Nothing outside the tests shrinks a stack (the
// joint manager keeps the ghost region across resizes precisely so growth
// can be predicted); the tests use it to cut a stack mid-stream.
func dropDeepest(s *StackSim, keep int) {
	for s.count > keep {
		s.evictOldest()
	}
}

func TestDropDeepest(t *testing.T) {
	s := NewStackSim(10)
	for p := int64(0); p < 8; p++ {
		s.Reference(p)
	}
	dropDeepest(s, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d after dropDeepest(3)", s.Len())
	}
	// The three most recent (5, 6, 7) survive.
	if got := s.Reference(7); got != 1 {
		t.Errorf("page 7 depth = %d, want 1", got)
	}
	if got := s.Reference(0); got != Cold {
		t.Errorf("dropped page depth = %d, want Cold", got)
	}
}

func TestPanicsOnBadCapacity(t *testing.T) {
	for _, f := range []func(){
		func() { NewStackSim(0) },
		func() { NewNaiveStack(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestDifferentialLargeWindow runs StackSim against the naive list walk
// at windows in the thousands, where positions span many 512-position
// blocks, the page table and the position space grow from their small
// starting sizes, and compaction renumbers a sparse position space. The
// live set sits well below the window (compaction without eviction),
// well above it (an eviction on most references) and at its edge.
func TestDifferentialLargeWindow(t *testing.T) {
	cases := []struct {
		window, universe, refs int
	}{
		{4000, 1500, 60000},
		{3000, 12000, 30000},
		{2500, 2600, 60000},
	}
	for _, c := range cases {
		s := NewStackSim(c.window)
		n := NewNaiveStack(c.window)
		rng := rand.New(rand.NewSource(int64(c.window)))
		compactions := 0
		for i := 0; i < c.refs; i++ {
			var p int64
			switch rng.Intn(3) {
			case 0:
				p = rng.Int63n(int64(c.universe))
			case 1:
				p = rng.Int63n(int64(c.universe/16 + 1)) // hot set
			default:
				p = int64(i % c.universe) // cyclic scan
			}
			before := s.nextPos
			got, want := s.Reference(p), n.Reference(p)
			if got != want {
				t.Fatalf("window %d universe %d op %d page %d: stack %d vs naive %d", c.window, c.universe, i, p, got, want)
			}
			if s.Len() != n.Len() {
				t.Fatalf("window %d universe %d op %d: Len %d vs naive %d", c.window, c.universe, i, s.Len(), n.Len())
			}
			if s.nextPos <= before {
				compactions++
			}
		}
		if compactions < 3 || len(s.pageAt) <= minPositions {
			t.Fatalf("window %d universe %d: %d compactions, %d positions: the large-window paths did not run",
				c.window, c.universe, compactions, len(s.pageAt))
		}
	}
}

// TestDepthAtBlockBoundaries pins the depth of pages whose last access
// sits on either side of a bitset word edge and a 512-position block
// edge, in closed blocks and in the open one.
func TestDepthAtBlockBoundaries(t *testing.T) {
	const window = 5000
	s := NewStackSim(window)
	n := NewNaiveStack(window)
	for p := int64(0); p < 3000; p++ {
		s.Reference(p)
		n.Reference(p)
	}
	for _, p := range []int64{0, 1, 63, 64, 511, 512, 513, 1023, 1024, 1535, 1536, 2047, 2048, 2559, 2560, 2999, 2998, 2500, 3001, 2560} {
		if got, want := s.Reference(p), n.Reference(p); got != want {
			t.Fatalf("page %d: depth %d, naive %d", p, got, want)
		}
	}
}

// TestReferenceRangeMatchesReference: ReferenceRange over random ranges,
// including empty and one-page ones, returns maximal equal-depth runs
// that expand to exactly the depths one Reference call per page returns,
// and leaves Len, Refs and Colds where those calls do.
func TestReferenceRangeMatchesReference(t *testing.T) {
	cases := []struct{ window, universe int }{{64, 200}, {3000, 1200}, {3000, 9000}}
	for _, c := range cases {
		one := NewStackSim(c.window)
		rng := NewStackSim(c.window)
		r := rand.New(rand.NewSource(int64(c.universe)))
		var runs []DepthRun
		for req := 0; req < 20000; req++ {
			first := r.Int63n(int64(c.universe))
			if r.Intn(2) == 0 {
				first = r.Int63n(int64(c.universe/8+1)) * 4 // aligned, so ranges repeat
			}
			n := r.Intn(9)
			runs = rng.ReferenceRange(runs[:0], simtime.Seconds(req), first, n)
			p := first
			for i, run := range runs {
				if run.Page != p || run.Pages < 1 || run.Time != simtime.Seconds(req) || (i > 0 && run.Depth == runs[i-1].Depth) {
					t.Fatalf("window %d request %d [%d, +%d): run %d %+v is not the next maximal run", c.window, req, first, n, i, run)
				}
				for k := int32(0); k < run.Pages; k++ {
					if want := one.Reference(p); int(run.Depth) != want {
						t.Fatalf("window %d request %d page %d: range depth %d, Reference %d", c.window, req, p, run.Depth, want)
					}
					p++
				}
			}
			if p != first+int64(n) {
				t.Fatalf("window %d request %d: runs cover %d of %d pages", c.window, req, p-first, n)
			}
			rr, rc := rng.Counters()
			or, oc := one.Counters()
			if rng.Len() != one.Len() || rr != or || rc != oc {
				t.Fatalf("window %d request %d: range Len/Refs/Colds %d/%d/%d, Reference %d/%d/%d",
					c.window, req, rng.Len(), rr, rc, one.Len(), or, oc)
			}
		}
	}
}

// TestStackSimMemoryTracksLiveSet: at a window of 2M pages, a stream over
// 3000 distinct pages keeps the position space sized to those pages
// rather than to the window.
func TestStackSimMemoryTracksLiveSet(t *testing.T) {
	s := NewStackSim(1 << 21)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		s.Reference(rng.Int63n(3000))
	}
	if s.Len() != 3000 {
		t.Fatalf("tracked %d pages, want 3000", s.Len())
	}
	if len(s.pageAt) > 16384 || len(s.live) != len(s.pageAt)/64 {
		t.Fatalf("position space of %d (bitset %d words) for 3000 tracked pages", len(s.pageAt), len(s.live))
	}
}

func BenchmarkStackSimFenwick(b *testing.B) {
	s := NewStackSim(1 << 16)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(int64(rng.Intn(1 << 12)))
	}
}

// sparseRequests is the daemon's shape: a stream from a 2^18-page data
// set (16 GB of 64 KB pages), for a window of 2M pages (128 GB).
func sparseRequests(b *testing.B) []trace.Request {
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 16 * simtime.GB,
		PageSize:     64 * simtime.KB,
		Rate:         float64(50 * simtime.MB),
		Popularity:   0.1,
		Duration:     600,
		Classes:      workload.SPECWeb99Classes(16),
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr.Requests
}

// BenchmarkStackSimSparse references the sparse stream one page per
// Reference call, prefetching LookAhead pages ahead, at the daemon's
// window: the single-page guard, for streams whose requests are one page
// each. One op is one page. The stack is warmed with one pass over the
// stream first, so the timed loop runs at its steady table and
// position-space sizes and should not allocate.
func BenchmarkStackSimSparse(b *testing.B) {
	var pages []int64
	for _, r := range sparseRequests(b) {
		for k := int64(0); k < int64(r.Pages); k++ {
			pages = append(pages, r.FirstPage+k)
		}
	}
	s := NewStackSim(1 << 21)
	for _, p := range pages {
		s.Reference(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, at := 0, 0; i < b.N; i += LookAhead {
		if at+LookAhead > len(pages) {
			at = 0
		}
		g := pages[at : at+min(LookAhead, b.N-i)]
		for _, p := range g {
			s.Prefetch(p)
		}
		for _, p := range g {
			s.Reference(p)
		}
		at += LookAhead
	}
}

// BenchmarkStackSimRanges is BenchmarkStackSimSparse's stream referenced
// the way a shard's run pass does: one ReferenceRange per request,
// prefetching LookAhead requests ahead. One op is one request.
func BenchmarkStackSimRanges(b *testing.B) {
	reqs := sparseRequests(b)
	s := NewStackSim(1 << 21)
	var runs []DepthRun
	for _, r := range reqs {
		runs = s.ReferenceRange(runs[:0], r.Time, r.FirstPage, int(r.Pages))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, at := 0, 0; i < b.N; i += LookAhead {
		if at+LookAhead > len(reqs) {
			at = 0
		}
		g := reqs[at : at+min(LookAhead, b.N-i)]
		for k := range g {
			s.Prefetch(g[k].FirstPage)
		}
		for k := range g {
			runs = s.ReferenceRange(runs[:0], g[k].Time, g[k].FirstPage, int(g[k].Pages))
		}
		at += LookAhead
	}
}

func BenchmarkStackSimNaive(b *testing.B) {
	s := NewNaiveStack(1 << 12)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(int64(rng.Intn(1 << 12)))
	}
}
