package lrusim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
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
	if s.Refs() != 10 || s.Colds() != 6 {
		t.Errorf("refs=%d colds=%d, want 10/6", s.Refs(), s.Colds())
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

func TestDropDeepest(t *testing.T) {
	s := NewStackSim(10)
	for p := int64(0); p < 8; p++ {
		s.Reference(p)
	}
	s.DropDeepest(3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d after DropDeepest(3)", s.Len())
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

// TestReferenceBatchMatchesReference: ReferenceBatch over blocks of any
// size, including empty ones, fills in the depths and leaves Len, Refs
// and Colds exactly where one Reference call per record does.
func TestReferenceBatchMatchesReference(t *testing.T) {
	cases := []struct{ window, universe int }{{64, 200}, {3000, 1200}, {3000, 9000}}
	for _, c := range cases {
		one := NewStackSim(c.window)
		bat := NewStackSim(c.window)
		rng := rand.New(rand.NewSource(int64(c.universe)))
		var recs []DepthRecord
		for block := 0; block < 400; block++ {
			recs = recs[:0]
			for i, size := 0, rng.Intn(200); i < size; i++ {
				p := rng.Int63n(int64(c.universe))
				if rng.Intn(2) == 0 {
					p = rng.Int63n(int64(c.universe/8 + 1))
				}
				recs = append(recs, DepthRecord{Page: p, Depth: 12345})
			}
			bat.ReferenceBatch(recs)
			for i, r := range recs {
				if want := one.Reference(r.Page); r.Depth != want {
					t.Fatalf("window %d block %d record %d page %d: batch depth %d, Reference %d", c.window, block, i, r.Page, r.Depth, want)
				}
			}
			if bat.Len() != one.Len() || bat.Refs() != one.Refs() || bat.Colds() != one.Colds() {
				t.Fatalf("window %d block %d: batch Len/Refs/Colds %d/%d/%d, Reference %d/%d/%d",
					c.window, block, bat.Len(), bat.Refs(), bat.Colds(), one.Len(), one.Refs(), one.Colds())
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

// BenchmarkStackSimSparse is the daemon's shape: a window of 2M pages
// (128 GB of 64 KB pages) over a stream from a 2^18-page data set
// (16 GB), referenced in ReferenceBatch blocks of 4096 as a shard's run
// pass does. The stack is warmed with one pass over the stream first, so
// the timed loop runs at its steady table and position-space sizes and
// should not allocate.
func BenchmarkStackSimSparse(b *testing.B) {
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
	var recs []DepthRecord
	for _, r := range tr.Requests {
		for k := int64(0); k < int64(r.Pages); k++ {
			recs = append(recs, DepthRecord{Page: r.FirstPage + k})
		}
	}
	s := NewStackSim(1 << 21)
	s.ReferenceBatch(recs)
	const block = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i, at := 0, 0; i < b.N; i += block {
		if at+block > len(recs) {
			at = 0
		}
		s.ReferenceBatch(recs[at : at+min(block, b.N-i)])
		at += block
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
