package lrusim

import (
	"math"

	"jointpm/internal/simtime"
)

// This file holds the test oracles for the stack and the gap-log
// machinery: the textbook LRU stack, the per-record depth log, its
// per-record histogram ingest and its event stream, the one-call gap-log
// build, and the two direct multi-threshold sweeps (over a depth log and
// over an event stream) that the streaming gap log must reproduce.

// NaiveStack is the textbook O(n)-per-reference LRU stack used as the
// differential-testing oracle for StackSim and as the baseline in the
// stack-distance ablation benchmark.
type NaiveStack struct {
	maxTracked int
	pages      []int64 // index 0 is MRU
}

// NewNaiveStack returns a naive stack tracking at most maxTracked pages.
func NewNaiveStack(maxTracked int) *NaiveStack {
	if maxTracked <= 0 {
		panic("lrusim: maxTracked must be positive")
	}
	return &NaiveStack{maxTracked: maxTracked}
}

// Reference records an access and returns the 1-based stack depth before
// the access, or Cold for untracked pages.
func (s *NaiveStack) Reference(page int64) int {
	depth := Cold
	for i, p := range s.pages {
		if p == page {
			depth = i + 1
			copy(s.pages[1:i+1], s.pages[:i])
			s.pages[0] = page
			return depth
		}
	}
	s.pages = append(s.pages, 0)
	copy(s.pages[1:], s.pages)
	s.pages[0] = page
	if len(s.pages) > s.maxTracked {
		s.pages = s.pages[:s.maxTracked]
	}
	return depth
}

// Len returns the number of tracked pages.
func (s *NaiveStack) Len() int { return len(s.pages) }

// AppendRecords appends the per-page records of runs to dst, each
// carrying pageBytes: the depth stream page-by-page Reference calls
// produce.
func AppendRecords(dst []DepthRecord, runs []DepthRun, pageBytes simtime.Bytes) []DepthRecord {
	for _, r := range runs {
		for k := int64(0); k < int64(r.Pages); k++ {
			dst = append(dst, DepthRecord{Time: r.Time, Page: r.Page + k, Depth: int(r.Depth), Bytes: pageBytes})
		}
	}
	return dst
}

// Observe folds one depth-annotated reference into the histogram, the
// per-record reference ObserveRuns must reproduce. Records must arrive in
// time order, exactly as they would appear in a period log.
func (h *DepthHist) Observe(r DepthRecord) {
	h.refs++
	if r.Depth == Cold {
		h.coldCount++
		h.coldBytes += r.Bytes
		h.touched++ // a cold miss is the page's first touch
		h.push(r.Time, int32(h.maxBanks)+1)
		return
	}
	d := int64(r.Depth)
	if d > h.maxDepth {
		h.maxDepth = d
	}
	bank := (d-1)/h.bankPages + 1
	kb := min(bank, int64(h.maxBanks)+1)
	h.buckets[kb-1].count++
	bb := &h.buckets[min(bank, int64(h.maxBanks))-1]
	bb.bytes += r.Bytes
	h.nonCold += r.Bytes
	if d > h.touched {
		h.touched++
		bb.first += r.Bytes
	}
	if kb > int64(h.minKeep) {
		h.push(r.Time, int32(kb))
	}
}

// push makes (t, bank) the histogram's newest event, feeding the previous
// one to the gap log unless dedup folds the two.
func (h *DepthHist) push(t simtime.Seconds, bank int32) {
	if h.hasPending {
		if h.dedup && h.pending.T == t {
			if bank > h.pending.Bank {
				h.pending.Bank = bank
			}
			return
		}
		// Only a same-time event under dedup could still deepen the
		// pending one: this one settles it.
		h.gaps.Feed(h.pending)
	}
	h.pending, h.hasPending = SweepEvent{T: t, Bank: bank}, true
}

// BuildEvents compresses a depth-annotated log into the SweepEvent stream
// a DepthHist feeds its gap log: the batch oracle's half of the
// incremental/batch equivalence. minKeepBanks and dedup must match the
// histogram's configuration.
func BuildEvents(dst []SweepEvent, log []DepthRecord, bankPages int64, maxBanks, minKeepBanks int, dedup bool) []SweepEvent {
	cold := int32(maxBanks) + 1
	for i := range log {
		r := &log[i]
		bank := cold
		if r.Depth != Cold {
			b := (int64(r.Depth)-1)/bankPages + 1
			if b > int64(maxBanks)+1 {
				b = int64(maxBanks) + 1
			}
			bank = int32(b)
		}
		if bank <= int32(minKeepBanks) {
			continue
		}
		if dedup {
			if n := len(dst); n > 0 && dst[n-1].T == r.Time {
				if bank > dst[n-1].Bank {
					dst[n-1].Bank = bank
				}
				continue
			}
		}
		dst = append(dst, SweepEvent{T: r.Time, Bank: bank})
	}
	return dst
}

// BuildGapLog runs the complete bank-space sweep over a finished event
// stream in one call: the batch oracle's way of materialising the gap
// log an incrementally fed GapStream holds at period close.
func BuildGapLog(g *GapStream, events []SweepEvent, maxBanks int, window, start, end simtime.Seconds) []Emission {
	g.Reset(window, maxBanks)
	for i := range events {
		g.Feed(events[i])
	}
	return g.Finish(start, end)
}

// Sweep runs the multi-threshold idle reconstruction over events for the
// ascending slate of bank counts: the oracle SweepGaps over the period's
// gap log must match. maxBank bounds the event bank indices
// (installed banks; the cold sentinel is maxBank+1). window, start and end
// have BoundedIdleIntervals semantics. After Sweep, Cnt/Sum/Min hold each
// candidate's interval statistics and Emits the shared emission log.
func (s *EventSweeper) Sweep(events []SweepEvent, slate []int32, maxBank int32, window, start, end simtime.Seconds) {
	k := len(slate)
	s.reset(slate)
	s.asm = false

	// bound[b] = number of slate entries with bank < b: the miss bound of
	// a reference whose bank depth is b, precomputed so the per-event cost
	// is one table load instead of a binary search.
	boundTab := s.buildBound(slate, maxBank+1)

	// The segment stack holds strictly decreasing segHi values top-down
	// (every push first pops all entries ≤ its bound), so its depth never
	// exceeds k+1: fixed-capacity arrays indexed by a local depth counter
	// keep the per-event cost free of append bookkeeping.
	segT, segHi := make([]simtime.Seconds, k+1), make([]int32, k+1)
	n := 0

	// Emission records are written unconditionally and the log index
	// advances by the sign bit of gap − window: an IEEE subtraction of
	// distinct doubles never rounds to zero, so the sign bit is clear
	// exactly when gap ≥ window. Filtering without a data-dependent
	// branch keeps the event loop free of its worst misprediction source.
	need := 2*len(events) + k + 2 // pops ≤ pushes ≤ len+1, partials ≤ len, end ≤ k+1
	if cap(s.Emits) < need {
		s.Emits = make([]Emission, need)
	}
	emits := s.Emits[:need]
	cntDiff := s.cntDiff
	idx := 0

	// Boundary start covers every threshold: idle time before the first
	// disk access counts from the period start.
	if start >= 0 {
		segT[0], segHi[0] = start, int32(k)
		n = 1
	}

	for _, e := range events {
		bound := boundTab[e.Bank]
		if bound == 0 {
			continue
		}
		t := e.T
		low := int32(0)
		for n > 0 && segHi[n-1] <= bound {
			hi := segHi[n-1]
			gap := float64(t - segT[n-1])
			emits[idx] = Emission{Gap: gap, Lo: low, Hi: hi}
			keep := int64(math.Float64bits(gap-float64(window))>>63) ^ 1
			cntDiff[low] += keep
			cntDiff[hi] -= keep
			idx += int(keep)
			low = hi
			n--
		}
		// A surviving segment may still cover part of [low, bound): emit
		// its gap for the covered prefix; the segment itself keeps
		// representing [bound, hi) once the event is pushed.
		if n > 0 && low < bound {
			gap := float64(t - segT[n-1])
			emits[idx] = Emission{Gap: gap, Lo: low, Hi: bound}
			keep := int64(math.Float64bits(gap-float64(window))>>63) ^ 1
			cntDiff[low] += keep
			cntDiff[bound] -= keep
			idx += int(keep)
		}
		segT[n], segHi[n] = t, bound
		n++
	}

	// Boundary end: one trailing gap per threshold whose last access is
	// strictly before end.
	if end >= 0 {
		low := int32(0)
		for j := n - 1; j >= 0; j-- {
			t := segT[j]
			hi := segHi[j]
			if end > t {
				if gap := end - t; gap >= window {
					emits[idx] = Emission{Gap: float64(gap), Lo: low, Hi: hi}
					cntDiff[low]++
					cntDiff[hi]--
					idx++
				}
			}
			low = hi
		}
	}
	s.Emits = emits[:idx]

	// Interval counts are order-free integers, so they accumulate as
	// emission-boundary deltas and materialise in one exact prefix pass.
	c := int64(0)
	for i := 0; i < k; i++ {
		c += s.cntDiff[i]
		s.Cnt[i] = c
	}

	// Sum/min fold deferred out of the event loop: one linear pass over
	// the emission log keeps the stack loop small and branch-light, and
	// per candidate the emissions are folded in exactly the order they
	// were appended — the chronological order a per-candidate interval
	// list would have.
	foldEmits(s.Emits, s.Sum, s.Min)
}

// Sweeper reconstructs idle intervals and disk-access counts for many
// candidate memory sizes in ONE traversal of a depth-annotated log,
// exploiting the nesting property of LRU stack depths: a reference at
// depth d misses at every capacity below d, so the miss stream of a
// larger capacity is always a subset of a smaller one's. The joint
// manager's candidate slate (32 sizes per refinement pass) therefore
// needs one pass over the log instead of one replay per size.
//
// Internally the per-threshold "time of last disk access" values form a
// non-increasing sequence (smaller capacities miss at least as recently),
// so they are kept as a stack of (time, hi) segments: each miss event at
// time t covering thresholds [0, bound) pops the segments it supersedes,
// emitting one idle interval per covered threshold whose gap clears the
// aggregation window. Work per event is O(log K) for the bound search
// plus O(intervals emitted), so a whole-slate sweep costs O(|log|·log K +
// output) — versus O(K·|log|) for K replays.
//
// A Sweeper reuses its interval buffers across calls: the slices returned
// by Sweep remain valid only until the next Sweep call. The zero value is
// ready to use.
type Sweeper struct {
	intervals [][]float64
	nd        []int64
	missAt    []int64 // missAt[b]: events whose miss bound is exactly b

	segTime []simtime.Seconds // segment stack, bottom first
	segHi   []int
}

// Sweep computes, for every threshold in thresholds (a non-descending
// list of page capacities), exactly what BoundedIdleIntervals(log,
// thresholds[i], window, start, end) would return: the idle-interval
// lengths (with window-w aggregation and period-boundary gaps) and the
// disk-access count. The log must be time-ordered;
// Sweep panics on a descending threshold list.
//
// The returned slices are owned by the Sweeper and are overwritten by the
// next Sweep call.
func (s *Sweeper) Sweep(log []DepthRecord, thresholds []int64, window, start, end simtime.Seconds) (intervals [][]float64, diskAccesses []int64) {
	k := len(thresholds)
	for i := 1; i < k; i++ {
		if thresholds[i] < thresholds[i-1] {
			panic("lrusim: Sweep thresholds must be ascending")
		}
	}
	s.reset(k)

	// Boundary start covers every threshold: the idle time before the
	// first disk access counts from the period start.
	if start >= 0 {
		s.segTime = append(s.segTime, start)
		s.segHi = append(s.segHi, k)
	}

	for i := range log {
		r := &log[i]
		// bound: number of thresholds this reference misses. Depth d
		// misses capacity m iff d > m, so it misses thresholds[0:bound)
		// where bound is the first index with thresholds[i] >= d.
		bound := k
		if r.Depth != Cold {
			d := int64(r.Depth)
			lo, hi := 0, k
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if thresholds[mid] < d {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			bound = lo
		}
		if bound == 0 {
			continue // a hit at every candidate size
		}
		s.missAt[bound]++
		s.advance(r.Time, bound, window)
	}

	// Boundary end: one trailing gap per threshold that has a last-access
	// time (a segment) strictly before end.
	if end >= 0 {
		low := 0
		for j := len(s.segTime) - 1; j >= 0; j-- {
			t := s.segTime[j]
			hi := s.segHi[j]
			if end > t {
				if gap := end - t; gap >= window {
					for i := low; i < hi; i++ {
						s.intervals[i] = append(s.intervals[i], float64(gap))
					}
				}
			}
			low = hi
		}
	}

	// Disk accesses: threshold i is missed by every event whose bound
	// exceeds i, i.e. the suffix sum of missAt.
	var sum int64
	for i := k; i >= 1; i-- {
		sum += s.missAt[i]
		s.nd[i-1] = sum
	}
	return s.intervals[:k], s.nd[:k]
}

// advance folds one miss event at time t covering thresholds [0, bound)
// into the segment stack, emitting the idle intervals it closes.
func (s *Sweeper) advance(t simtime.Seconds, bound int, window simtime.Seconds) {
	low := 0
	// Pop segments wholly superseded by this event.
	for n := len(s.segTime); n > 0 && s.segHi[n-1] <= bound; n = len(s.segTime) {
		last := s.segTime[n-1]
		hi := s.segHi[n-1]
		if gap := t - last; gap >= window {
			for i := low; i < hi; i++ {
				s.intervals[i] = append(s.intervals[i], float64(gap))
			}
		}
		low = hi
		s.segTime = s.segTime[:n-1]
		s.segHi = s.segHi[:n-1]
	}
	// A surviving segment may still cover part of [low, bound): split it
	// logically by emitting its gap for the covered prefix; the segment
	// itself keeps representing [bound, hi) once the event is pushed.
	if n := len(s.segTime); n > 0 && low < bound {
		if gap := t - s.segTime[n-1]; gap >= window {
			for i := low; i < bound; i++ {
				s.intervals[i] = append(s.intervals[i], float64(gap))
			}
		}
	}
	s.segTime = append(s.segTime, t)
	s.segHi = append(s.segHi, bound)
}

// reset prepares the buffers for a k-threshold sweep, reusing capacity.
func (s *Sweeper) reset(k int) {
	for len(s.intervals) < k {
		s.intervals = append(s.intervals, nil)
	}
	for i := 0; i < k; i++ {
		s.intervals[i] = s.intervals[i][:0]
	}
	if cap(s.nd) < k {
		s.nd = make([]int64, k)
	}
	s.nd = s.nd[:k]
	if cap(s.missAt) < k+1 {
		s.missAt = make([]int64, k+1)
	}
	s.missAt = s.missAt[:k+1]
	for i := range s.missAt {
		s.missAt[i] = 0
	}
	s.segTime = s.segTime[:0]
	s.segHi = s.segHi[:0]
}

// MultiIdleSweep is the convenience form of Sweeper.Sweep for callers
// without a reusable Sweeper; the returned slices are freshly owned.
func MultiIdleSweep(log []DepthRecord, thresholds []int64, window, start, end simtime.Seconds) ([][]float64, []int64) {
	var s Sweeper
	return s.Sweep(log, thresholds, window, start, end)
}
