package lrusim

import (
	"fmt"

	"jointpm/internal/simtime"
)

// DepthRecord is one disk-cache reference annotated with its LRU stack
// depth, an entry of the per-page period log of paper Fig. 4: what the
// test oracles replay, where production streams a DepthHist instead.
type DepthRecord struct {
	Time  simtime.Seconds
	Page  int64         // page referenced (distinct-page analyses need it)
	Depth int           // stack depth, or Cold
	Bytes simtime.Bytes // bytes moved if this reference misses
}

// MissCurve aggregates depth records into hit counts bucketed by depth,
// supporting O(log B) queries of "how many of these references would have
// missed at capacity m". Bucket granularity is the resize unit (pages per
// bank), matching the paper's observation that sizes within one bank are
// indistinguishable to the power manager.
type MissCurve struct {
	bucket int // pages per bucket
	hits   []int64
	colds  int64
	total  int64
}

// NewMissCurve creates a miss curve with the given bucket width in pages.
func NewMissCurve(bucketPages int) *MissCurve {
	if bucketPages <= 0 {
		panic("lrusim: bucketPages must be positive")
	}
	return &MissCurve{bucket: bucketPages}
}

// Add folds one reference at the given depth (or Cold) into the curve.
func (c *MissCurve) Add(depth int) {
	c.total++
	if depth == Cold {
		c.colds++
		return
	}
	b := (depth - 1) / c.bucket
	for b >= len(c.hits) {
		c.hits = append(c.hits, 0)
	}
	c.hits[b]++
}

// Total returns the number of references recorded.
func (c *MissCurve) Total() int64 { return c.total }

// Colds returns the number of compulsory (cold) references recorded.
func (c *MissCurve) Colds() int64 { return c.colds }

// Misses returns the predicted number of disk accesses with a resident
// capacity of m pages: cold references plus references at depth > m.
// m is rounded down to the bucket grid (capacities are bank multiples).
func (c *MissCurve) Misses(mPages int64) int64 {
	if mPages <= 0 {
		return c.total
	}
	buckets := mPages / int64(c.bucket)
	var hits int64
	for i := int64(0); i < buckets && i < int64(len(c.hits)); i++ {
		hits += c.hits[i]
	}
	return c.total - hits
}

// MaxUsefulPages returns the smallest capacity (bucket multiple) beyond
// which the miss count no longer improves — i.e. the deepest recorded hit
// depth rounded up. Enumerating sizes past this point is pointless, the
// pruning the paper applies to its size enumeration.
func (c *MissCurve) MaxUsefulPages() int64 {
	for i := len(c.hits) - 1; i >= 0; i-- {
		if c.hits[i] > 0 {
			return int64(i+1) * int64(c.bucket)
		}
	}
	return 0
}

// Reset clears the curve for the next period.
func (c *MissCurve) Reset() {
	c.hits = c.hits[:0]
	c.colds = 0
	c.total = 0
}

// String summarises the curve at a few capacities for debugging.
func (c *MissCurve) String() string {
	max := c.MaxUsefulPages()
	return fmt.Sprintf("misscurve{total=%d colds=%d maxUseful=%dpg misses@max=%d}",
		c.total, c.colds, max, c.Misses(max))
}

// BoundedIdleIntervals reconstructs the disk idle intervals that would
// have been observed with resident capacity mPages, from a depth-record
// log (paper Fig. 4: removing or adding disk accesses merges or splits
// idle intervals). Intervals shorter than the aggregation window are
// dropped, mirroring the paper's filtering of unusably short idleness.
// The records must be time-ordered. It returns the interval lengths and
// the number of disk accesses.
//
// The gap from start to the first disk access and from the last disk
// access to end are included as idle intervals (they are disk idleness
// just as real as inter-access gaps, and ignoring them starves the
// Pareto fit exactly for the memory sizes that eliminate most misses).
// Pass start = end = -1 to disable boundary gaps. This replay is the test
// oracles' reference; production reads the same intervals and count off
// a finished gap log (AppendGapsAt) and DepthHist.Misses.
func BoundedIdleIntervals(log []DepthRecord, mPages int64, window, start, end simtime.Seconds) (intervals []float64, diskAccesses int64) {
	last := start
	for i := range log {
		r := &log[i]
		miss := r.Depth == Cold || int64(r.Depth) > mPages
		if !miss {
			continue
		}
		diskAccesses++
		if last >= 0 {
			gap := r.Time - last
			if gap >= window {
				intervals = append(intervals, float64(gap))
			}
		}
		if r.Time > last {
			last = r.Time
		}
	}
	if end >= 0 && last >= 0 && end > last {
		if gap := end - last; gap >= window {
			intervals = append(intervals, float64(gap))
		}
	}
	return intervals, diskAccesses
}
