package lrusim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
)

func TestMissCurvePaperExample(t *testing.T) {
	// Paper Fig. 3: after the ten accesses, counters are
	// (0, 0, 1, 1, 2, 0, 0, 0). With 4-page memory there are 8 disk
	// accesses; at 3 pages, 9; at 5 pages, 6; beyond 5 no improvement.
	c := NewMissCurve(1)
	seq := []int64{1, 2, 3, 5, 2, 1, 4, 6, 5, 2}
	s := NewStackSim(8)
	for _, p := range seq {
		c.Add(s.Reference(p))
	}
	tests := []struct {
		m    int64
		want int64
	}{
		{0, 10}, {1, 10}, {2, 10}, {3, 9}, {4, 8}, {5, 6}, {6, 6}, {8, 6},
	}
	for _, tt := range tests {
		if got := c.Misses(tt.m); got != tt.want {
			t.Errorf("Misses(%d) = %d, want %d", tt.m, got, tt.want)
		}
	}
	if got := c.MaxUsefulPages(); got != 5 {
		t.Errorf("MaxUsefulPages = %d, want 5", got)
	}
	if c.Total() != 10 || c.Colds() != 6 {
		t.Errorf("total/colds = %d/%d", c.Total(), c.Colds())
	}
}

func TestMissCurveBucketing(t *testing.T) {
	c := NewMissCurve(4)
	c.Add(1) // bucket 0
	c.Add(4) // bucket 0
	c.Add(5) // bucket 1
	c.Add(Cold)
	// Capacity 4 pages → bucket 0 hits only.
	if got := c.Misses(4); got != 2 {
		t.Errorf("Misses(4) = %d, want 2", got)
	}
	// Capacity 7 rounds down to one bucket.
	if got := c.Misses(7); got != 2 {
		t.Errorf("Misses(7) = %d, want 2", got)
	}
	if got := c.Misses(8); got != 1 {
		t.Errorf("Misses(8) = %d, want 1", got)
	}
}

func TestMissCurveReset(t *testing.T) {
	c := NewMissCurve(1)
	c.Add(1)
	c.Add(Cold)
	c.Reset()
	if c.Total() != 0 || c.Colds() != 0 || c.MaxUsefulPages() != 0 {
		t.Error("Reset incomplete")
	}
}

// Property: miss counts are monotone non-increasing in memory size, and
// bounded by [colds, total].
func TestQuickMissCurveMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewMissCurve(1 + rng.Intn(8))
		s := NewStackSim(256)
		for i := 0; i < 1000; i++ {
			c.Add(s.Reference(int64(rng.Intn(64))))
		}
		prev := c.Misses(0)
		if prev != c.Total() {
			return false
		}
		for m := int64(1); m <= 80; m++ {
			cur := c.Misses(m)
			if cur > prev || cur < c.Colds() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func recordsFromSeq(times []float64, depths []int) []DepthRecord {
	out := make([]DepthRecord, len(times))
	for i := range times {
		out[i] = DepthRecord{Time: simtime.Seconds(times[i]), Depth: depths[i], Bytes: 4096}
	}
	return out
}

func TestIdleIntervalsSplitAndMerge(t *testing.T) {
	// Mirrors Fig. 4: at 4-page memory accesses at depths > 4 are misses;
	// growing memory merges idle intervals, shrinking splits them.
	times := []float64{0, 1, 2, 3, 10, 11, 20, 21, 30, 31}
	depths := []int{Cold, Cold, Cold, Cold, 3, 4, Cold, Cold, 5, 5}
	log := recordsFromSeq(times, depths)

	// 4 pages (the paper's configuration): 8 disk accesses — the six colds
	// plus the two depth-5 reloads — at t = 0,1,2,3,20,21,30,31.
	iv4, nd4 := BoundedIdleIntervals(log, 4, 0.5, -1, -1)
	if nd4 != 8 {
		t.Fatalf("nd(4) = %d, want 8", nd4)
	}
	if len(iv4) != 7 || iv4[3] != 17 {
		t.Fatalf("intervals(4) = %v", iv4)
	}

	// 2 pages: the depth-3 and depth-4 accesses become misses too,
	// splitting the 17 s interval (Fig. 4(b)).
	iv2, nd2 := BoundedIdleIntervals(log, 2, 0.5, -1, -1)
	if nd2 != 10 {
		t.Fatalf("nd(2) = %d, want 10", nd2)
	}
	if len(iv2) != 9 {
		t.Fatalf("intervals(2) = %v", iv2)
	}

	// 5 pages: the depth-5 accesses become hits, merging trailing idle
	// (Fig. 4(c)); only the six colds remain.
	iv5, nd5 := BoundedIdleIntervals(log, 5, 0.5, -1, -1)
	if nd5 != 6 {
		t.Fatalf("nd(5) = %d, want 6", nd5)
	}
	if len(iv5) != 5 {
		t.Fatalf("intervals(5) = %v", iv5)
	}
}

func TestIdleIntervalsWindowFilter(t *testing.T) {
	times := []float64{0, 0.05, 10}
	depths := []int{Cold, Cold, Cold}
	log := recordsFromSeq(times, depths)
	iv, nd := BoundedIdleIntervals(log, 1, 0.1, -1, -1)
	if nd != 3 {
		t.Fatalf("nd = %d", nd)
	}
	// The 0.05 gap is swallowed by the aggregation window.
	if len(iv) != 1 || iv[0] < 9.9 {
		t.Fatalf("intervals = %v, want one ~9.95s gap", iv)
	}
}

func TestIdleIntervalsEmptyAndAllHits(t *testing.T) {
	if iv, nd := BoundedIdleIntervals(nil, 4, 0.1, -1, -1); len(iv) != 0 || nd != 0 {
		t.Error("empty log mishandled")
	}
	log := recordsFromSeq([]float64{1, 2, 3}, []int{1, 1, 1})
	if iv, nd := BoundedIdleIntervals(log, 4, 0.1, -1, -1); len(iv) != 0 || nd != 0 {
		t.Error("all-hit log produced disk accesses")
	}
}

// Property: the number of disk accesses from BoundedIdleIntervals matches
// MissCurve.Misses for the same capacity, and intervals shrink in count
// as memory grows (misses are nested).
func TestQuickIdleIntervalsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStackSim(128)
		c := NewMissCurve(1)
		var log []DepthRecord
		tm := 0.0
		for i := 0; i < 500; i++ {
			tm += rng.Float64()
			d := s.Reference(int64(rng.Intn(32)))
			c.Add(d)
			log = append(log, DepthRecord{Time: simtime.Seconds(tm), Depth: d, Bytes: 1})
		}
		for _, m := range []int64{1, 4, 16, 32} {
			_, nd := BoundedIdleIntervals(log, m, 0, -1, -1)
			if nd != c.Misses(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
