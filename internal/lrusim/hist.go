package lrusim

import (
	"math"
	"math/bits"

	"jointpm/internal/fenwick"
	"jointpm/internal/simtime"
)

// This file is the streaming half of the stack-distance machinery: a
// Fenwick-backed depth histogram maintained reference-by-reference, plus
// the compressed event stream and the slate sweeper that run the joint
// manager's incremental Decide path. The invariant the whole file serves:
// feeding every reference of a period into a DepthHist, as records or as
// depth runs, and then sweeping its event stream must reproduce, bit for
// bit, what the batch path computes from the full []DepthRecord log (see
// the differential tests in hist_test.go and internal/core). Both paths
// tell a page's first touch in the period from its depth alone, by the
// rule stated on DepthHist.

// SweepEvent is one compressed entry of a period's miss-relevant event
// stream: the reference time and the bank-granular stack depth
// ceil(depth/bankPages). A reference misses a candidate of m banks iff
// Bank > m, so the bank index is all a multi-threshold sweep needs; cold
// references carry the sentinel maxBanks+1, which exceeds every candidate.
type SweepEvent struct {
	T    simtime.Seconds
	Bank int32
	_    int32 // pad to 16 bytes so the stream scans cache-line aligned
}

// DepthHist accumulates a period's depth-annotated reference stream into
// exactly the aggregates the joint manager's Decide needs, so closing a
// period is an O(banks) query instead of an O(refs) replay:
//
//   - Fenwick histograms (count, bytes, first-access bytes) bucketed by
//     bank-granular depth — the depth profile and per-candidate disk-access
//     counts come from prefix sums;
//   - the maximum observed stack depth, which bounds the candidate search;
//   - the compressed SweepEvent stream that reconstructs idle intervals.
//
// The references — records through Observe, or runs through ObserveRuns,
// read page by page — must be the complete depth stream of one StackSim
// over the period, in reference order, because first-access bytes are
// read off the depths: a non-cold reference is the page's first touch in
// the period iff its depth exceeds D, the number of cold and first-touch
// references the period has seen so far. The rule is exact, evictions and
// the tracked window included (Mattson's inclusion property applied at
// the period start):
//
//   - each page touched in the period went to the top of the stack when it
//     was touched, so while none of them has been evicted they are exactly
//     the top D entries: their depths are at most D, and a tracked page
//     last touched before the period lies below them, at depth D+1 or more;
//   - eviction takes the least recently used page, so the stack loses a
//     page touched in the period (past the window, by DropDeepest, or by a
//     restore into a smaller window) only once no older page is left. From
//     then on every tracked page was touched in the period, every non-cold
//     depth is at most Len ≤ D, and the rule answers "not first", which is
//     the truth.
//
// Two stream reductions keep the event stream small without changing any
// downstream result:
//
//   - references at or below minKeep banks are dropped: the shallowest
//     candidate the manager ever prices is MinBanks, and the batch sweep
//     skips such references too (their miss bound is zero);
//   - when dedup is set (aggregation window > 0), events sharing a
//     timestamp collapse to the deepest: for interval reconstruction a
//     same-time shallower event only splits a segment into parts carrying
//     the same time, emitting nothing but zero-length gaps the window
//     filter discards. With window == 0 those zero gaps ARE emitted by the
//     batch path, so dedup must stay off to remain bit-identical.
//
// The zero value is unusable; construct with NewDepthHist. Reset clears
// the period while keeping every buffer's capacity, so a warm manager
// ingests allocation-free.
type DepthHist struct {
	bankPages int64
	maxBanks  int
	minKeep   int32
	window    simtime.Seconds
	dedup     bool

	counts     *fenwick.Tree // buckets 1..maxBanks+1 (bank depth, deep-clamped)
	totalBytes *fenwick.Tree // buckets 1..maxBanks: bytes of non-cold references
	firstBytes *fenwick.Tree // buckets 1..maxBanks: bytes of first-per-page references

	refs      int64
	coldCount int64
	coldBytes simtime.Bytes
	nonCold   simtime.Bytes // bytes of all non-cold references
	maxDepth  int64         // deepest non-cold reference, in pages

	touched int64 // D: the period's cold and first-touch references so far
	events  []SweepEvent
	gaps    GapStream // bank-space idle-gap sweep, fed one finalized event behind events

	// Batch-ingest scratch (ObserveRuns): dense per-bucket Fenwick
	// deltas, allocated lazily on the first batch and reused forever
	// after. dCount is indexed by the counts-tree bucket (0..maxBanks),
	// dTotal/dFirst by the bytes-tree bucket (0..maxBanks-1). dirty marks
	// pending deltas; flushDeltas scans the dense arrays once when a
	// prefix-sum reader arrives, so the ingest loop never tracks which
	// buckets it touched.
	dCount []int64
	dTotal []int64
	dFirst []int64
	dirty  bool
}

// NewDepthHist returns an empty histogram for a geometry of bankPages
// pages per bank and maxBanks installed banks. References at or below
// minKeepBanks are excluded from the event stream (but still counted in
// the histograms); window is the idle-interval aggregation window, which
// both filters the streaming gap log and (when positive) enables
// same-timestamp event compression. With window == 0 zero-length gaps ARE
// emitted by the batch path, so compression must stay off to remain
// bit-identical — the histogram derives that itself.
func NewDepthHist(bankPages int64, maxBanks, minKeepBanks int, window simtime.Seconds) *DepthHist {
	if bankPages <= 0 || maxBanks < 1 {
		panic("lrusim: bad DepthHist geometry")
	}
	h := &DepthHist{
		bankPages:  bankPages,
		maxBanks:   maxBanks,
		minKeep:    int32(minKeepBanks),
		window:     window,
		dedup:      window > 0,
		counts:     fenwick.New(maxBanks + 1),
		totalBytes: fenwick.New(maxBanks),
		firstBytes: fenwick.New(maxBanks),
	}
	h.gaps.Reset(window, maxBanks)
	return h
}

// Observe folds one depth-annotated reference into the histogram. Records
// must arrive in time order, exactly as they would appear in a period log.
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
	cb := bank
	if cb > int64(h.maxBanks) {
		cb = int64(h.maxBanks)
	}
	h.totalBytes.Add(int(cb)-1, int64(r.Bytes))
	h.nonCold += r.Bytes
	if d > h.touched {
		h.touched++
		h.firstBytes.Add(int(cb)-1, int64(r.Bytes))
	}
	kb := bank
	if kb > int64(h.maxBanks)+1 {
		kb = int64(h.maxBanks) + 1
	}
	h.counts.Add(int(kb)-1, 1)
	if kb > int64(h.minKeep) {
		h.push(r.Time, int32(kb))
	}
}

// ObserveRuns folds a time-ordered block of depth runs, each page of
// which moved pageBytes, into the histogram: the same state as one
// Observe call per page of each run, with the per-reference work done
// once per run. A run of n pages at depth d adds n to d's count bucket,
// n*pageBytes to its byte buckets, and min(n, max(0, d-D)) first touches
// (DepthHist's rule applied to each page in turn: the run's pages are
// first touches while D < d, and each raises D by one). It pushes one
// event, or n with dedup off, where n same-time events stay distinct.
// Each run adds its deltas to a dense per-bucket accumulator, and one
// tree update per touched bucket lands the lot when a reader arrives.
// Integer tree updates commute, and nothing reads the trees mid-period,
// so the resulting state — trees, counters, event stream, gap log — is
// bit-identical to the page-at-a-time path (see
// TestObserveRunsMatchesObserve).
func (h *DepthHist) ObserveRuns(runs []DepthRun, pageBytes simtime.Bytes) {
	if len(runs) == 0 {
		return
	}
	if h.dCount == nil {
		h.dCount = make([]int64, h.maxBanks+1)
		h.dTotal = make([]int64, h.maxBanks)
		h.dFirst = make([]int64, h.maxBanks)
	}
	h.dirty = true
	// Hoist every hot field into locals: the loop below runs once per
	// run at fleet ingest rates, and keeping the accumulators and slice
	// headers in registers is a measurable share of the win. The bank
	// division becomes a shift for power-of-two bank geometries.
	bankPages := h.bankPages
	bankShift := -1
	if bankPages&(bankPages-1) == 0 {
		bankShift = bits.Len64(uint64(bankPages)) - 1
	}
	pb := int64(pageBytes)
	maxBanks := int64(h.maxBanks)
	minKeep := int64(h.minKeep)
	dedup := h.dedup
	evBase := len(h.events)
	events := h.events
	dCount, dTotal, dFirst := h.dCount, h.dTotal, h.dFirst
	refs, coldCount, coldBytes := h.refs, h.coldCount, int64(h.coldBytes)
	nonCold, maxDepth, touched := int64(h.nonCold), h.maxDepth, h.touched
	for i := range runs {
		r := &runs[i]
		n := int64(r.Pages)
		refs += n
		var pushBank int32
		if r.Depth == Cold {
			coldCount += n
			coldBytes += n * pb
			touched += n
			pushBank = int32(maxBanks) + 1
		} else {
			d := int64(r.Depth)
			if d > maxDepth {
				maxDepth = d
			}
			var kb int64 // counts bucket: deep-clamped to maxBanks+1
			if bankShift >= 0 {
				kb = (d-1)>>uint(bankShift) + 1
			} else {
				kb = (d-1)/bankPages + 1
			}
			if kb > maxBanks+1 {
				kb = maxBanks + 1
			}
			ki := int(kb) - 1
			bi := ki // bytes bucket: clamped to maxBanks
			if bi >= int(maxBanks) {
				bi = int(maxBanks) - 1
			}
			dCount[ki] += n
			dTotal[bi] += n * pb
			nonCold += n * pb
			if f := min(d-touched, n); f > 0 {
				touched += f
				dFirst[bi] += f * pb
			}
			if kb <= minKeep {
				continue
			}
			pushBank = int32(kb)
		}
		if !dedup {
			for k := int64(0); k < n; k++ {
				events = append(events, SweepEvent{T: r.Time, Bank: pushBank})
			}
			continue
		}
		if k := len(events); k > 0 && events[k-1].T == r.Time {
			if pushBank > events[k-1].Bank {
				events[k-1].Bank = pushBank
			}
			continue
		}
		events = append(events, SweepEvent{T: r.Time, Bank: pushBank})
	}
	h.events = events
	h.refs, h.coldCount, h.coldBytes = refs, coldCount, simtime.Bytes(coldBytes)
	h.nonCold, h.maxDepth, h.touched = simtime.Bytes(nonCold), maxDepth, touched
	// The accumulated deltas stay pending: nothing reads the Fenwick
	// trees mid-period, so back-to-back blocks keep adding to the dense
	// accumulators and the prefix-sum accessors land everything with one
	// tree walk per touched bucket when a reader finally arrives.
	// Feed the events finalized by this block in one pass. The invariant
	// is "exactly the last event is unfed": dedup only ever deepens the
	// current last event, so everything before the new last — including
	// the pre-block straggler — is final now.
	if n := len(h.events); n >= 2 {
		from := evBase - 1
		if from < 0 {
			from = 0
		}
		h.gaps.FeedBatch(h.events[from : n-1])
	}
}

func (h *DepthHist) push(t simtime.Seconds, bank int32) {
	if h.dedup {
		if n := len(h.events); n > 0 && h.events[n-1].T == t {
			if bank > h.events[n-1].Bank {
				h.events[n-1].Bank = bank
			}
			return
		}
	}
	h.events = append(h.events, SweepEvent{T: t, Bank: bank})
	// Feed the event BEHIND the append into the gap sweep: with
	// compression on, the latest event may still deepen, so only the
	// second-newest is final. FinishGaps feeds the straggler.
	if n := len(h.events); n >= 2 {
		h.gaps.Feed(h.events[n-2])
	}
}

// Refs returns how many references this period has observed.
func (h *DepthHist) Refs() int64 { return h.refs }

// MaxDepth returns the deepest non-cold stack depth observed, in pages.
func (h *DepthHist) MaxDepth() int64 { return h.maxDepth }

// Events returns the compressed event stream. The slice is owned by the
// histogram and is invalidated by Reset.
func (h *DepthHist) Events() []SweepEvent { return h.events }

// Cold returns the cold-reference count and bytes.
func (h *DepthHist) Cold() (count int64, bytes simtime.Bytes) {
	return h.coldCount, h.coldBytes
}

// NonCold returns the non-cold reference count and bytes.
func (h *DepthHist) NonCold() (count int64, bytes simtime.Bytes) {
	return h.refs - h.coldCount, h.nonCold
}

// flushDeltas lands the per-bucket deltas accumulated by ObserveRuns
// into the Fenwick trees: a dense scan with one tree walk per non-zero
// bucket, run once when a prefix-sum reader arrives (at most once per
// period in steady state). Integer tree updates commute with the
// record-at-a-time path's direct Adds, so interleaving Observe and
// ObserveRuns before the flush still yields identical prefix sums.
func (h *DepthHist) flushDeltas() {
	if !h.dirty {
		return
	}
	h.dirty = false
	for ki, v := range h.dCount {
		if v != 0 {
			h.counts.Add(ki, v)
			h.dCount[ki] = 0
		}
	}
	for bi, v := range h.dTotal {
		if v != 0 {
			h.totalBytes.Add(bi, v)
			h.dTotal[bi] = 0
		}
	}
	for bi, v := range h.dFirst {
		if v != 0 {
			h.firstBytes.Add(bi, v)
			h.dFirst[bi] = 0
		}
	}
}

// AppendTotalPrefix appends maxBanks cumulative byte counts: the k-th
// value is the non-cold reference bytes at depth ≤ k+1 banks.
func (h *DepthHist) AppendTotalPrefix(dst []int64) []int64 {
	h.flushDeltas()
	return h.totalBytes.AppendPrefixSums(dst)
}

// AppendFirstPrefix appends maxBanks cumulative first-access byte counts.
func (h *DepthHist) AppendFirstPrefix(dst []int64) []int64 {
	h.flushDeltas()
	return h.firstBytes.AppendPrefixSums(dst)
}

// AppendCountPrefix appends maxBanks+1 cumulative non-cold reference
// counts (the extra deep-clamped bucket keeps disk-access counts exact
// even for depths beyond the installed banks).
func (h *DepthHist) AppendCountPrefix(dst []int64) []int64 {
	h.flushDeltas()
	return h.counts.AppendPrefixSums(dst)
}

// FinishGaps feeds the last pending event into the bank-space gap sweep
// and returns the period's complete gap log for the given observation
// bounds (see GapStream.Finish). Idempotent until the next Reset.
func (h *DepthHist) FinishGaps(start, end simtime.Seconds) []Emission {
	if !h.gaps.finished && len(h.events) > 0 {
		h.gaps.Feed(h.events[len(h.events)-1])
	}
	return h.gaps.Finish(start, end)
}

// Counters summarises the period for snapshot validation: references,
// cold misses, retained events, and max depth.
func (h *DepthHist) Counters() (refs, colds, events, maxDepth int64) {
	return h.refs, h.coldCount, int64(len(h.events)), h.maxDepth
}

// Reset clears the period's state, retaining all buffer capacity.
func (h *DepthHist) Reset() {
	// Pending batch deltas die with the period: zero them without paying
	// for the tree walks the Reset below would erase.
	if h.dirty {
		h.dirty = false
		for i := range h.dCount {
			h.dCount[i] = 0
		}
		for i := range h.dTotal {
			h.dTotal[i] = 0
		}
		for i := range h.dFirst {
			h.dFirst[i] = 0
		}
	}
	h.counts.Reset()
	h.totalBytes.Reset()
	h.firstBytes.Reset()
	h.refs = 0
	h.coldCount = 0
	h.coldBytes = 0
	h.nonCold = 0
	h.maxDepth = 0
	h.touched = 0
	h.events = h.events[:0]
	h.gaps.Reset(h.window, h.maxBanks)
}

// Emission is one idle gap the event sweep closed, shared by the
// contiguous candidate range [Lo, Hi) of the slate. Per candidate the
// emissions appear in strictly chronological order — the property that
// makes every per-candidate reduction over them bit-identical to a
// reduction over that candidate's own interval list.
type Emission struct {
	Gap    float64
	Lo, Hi int32
}

// EventSweeper reconstructs idle-interval statistics for an ascending
// candidate slate from a compressed SweepEvent stream: the incremental
// counterpart of Sweeper, with the per-candidate interval lists replaced
// by streaming reductions (count, sum, min — everything a Pareto moment
// fit needs) plus a shared emission log for later conditional passes
// (timeout valuation). All buffers are reused across calls; returned
// slices are invalidated by the next Sweep.
type EventSweeper struct {
	segT  []simtime.Seconds
	segHi []int32

	bound   []int32 // bound[bank]: slate candidates a reference at that bank depth misses
	cntDiff []int64 // per-emission boundary deltas; prefix-summed into Cnt

	Emits []Emission
	Cnt   []int64   // per candidate: intervals emitted (n_i)
	Sum   []float64 // per candidate: total idle seconds, chronological summation
	Min   []float64 // per candidate: shortest interval (+Inf when none)

	// Set by SweepGaps when the register-resident kernel priced the slate
	// directly from the bank-space log: TailStats then runs over the same
	// log with the same remap instead of a compacted Emits. Slates wider
	// than the 32 kernel lanes run in 32-candidate blocks; boundBlk holds
	// the current block's clamp-shifted remap table.
	gapLog   []Emission
	gapBound []int32
	boundBlk []int32
	gapHi    []Emission // ordered sub-log of emissions reaching past block 0
}

// Sweep runs the multi-threshold idle reconstruction over events for the
// ascending slate of bank counts. maxBank bounds the event bank indices
// (installed banks; the cold sentinel is maxBank+1). window, start and end
// have BoundedIdleIntervals semantics. After Sweep, Cnt/Sum/Min hold each
// candidate's interval statistics and Emits the shared emission log.
func (s *EventSweeper) Sweep(events []SweepEvent, slate []int32, maxBank int32, window, start, end simtime.Seconds) {
	k := len(slate)
	for i := 1; i < k; i++ {
		if slate[i] < slate[i-1] {
			panic("lrusim: EventSweeper slate must be ascending")
		}
	}
	s.reset(k, int(maxBank))
	s.gapLog = nil

	// bound[b] = number of slate entries with bank < b: the miss bound of
	// a reference whose bank depth is b, precomputed so the per-event cost
	// is one table load instead of a binary search.
	j := 0
	for b := int32(0); b <= maxBank+1; b++ {
		for j < k && slate[j] < b {
			j++
		}
		s.bound[b] = int32(j)
	}

	// The segment stack holds strictly decreasing segHi values top-down
	// (every push first pops all entries ≤ its bound), so its depth never
	// exceeds k+1: fixed-capacity arrays indexed by a local depth counter
	// keep the per-event cost free of append bookkeeping.
	segT, segHi := s.segT[:k+1], s.segHi[:k+1]
	boundTab := s.bound
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

// SweepGaps prices an ascending slate from a finished bank-space gap log
// (see GapStream) instead of re-sweeping the event stream: each logged
// emission's threshold range [Lo, Hi) maps through the slate's bound
// table to the contiguous slate-index range [bound[Lo], bound[Hi)), and
// the per-candidate reductions fold exactly the gaps a dedicated slate
// sweep would have emitted, in the same order — so Cnt/Sum/Min (and a
// later TailStats) are bit-identical to Sweep over the same period. The
// log is O(kept gaps), independent of the slate, which is what makes the
// decision hot path sub-linear in events: the sweep ran once, at ingest.
func (s *EventSweeper) SweepGaps(gaps []Emission, slate []int32, maxBank int32) {
	k := len(slate)
	for i := 1; i < k; i++ {
		if slate[i] < slate[i-1] {
			panic("lrusim: EventSweeper slate must be ascending")
		}
	}
	s.reset(k, int(maxBank))

	// bound[b] = number of slate entries with bank < b, for every
	// threshold b on the bank axis — the remap table from bank-space
	// emission ranges to slate-index ranges.
	j := 0
	for b := int32(0); b <= maxBank+1; b++ {
		for j < k && slate[j] < b {
			j++
		}
		s.bound[b] = int32(j)
	}

	nb := (k + 31) / 32
	if gapAsm && cap(s.Sum) >= nb*32 && len(gaps) > 0 {
		// Register-resident kernel: a block of up to 32 candidate
		// accumulators lives in vector registers across the whole log; each
		// emission costs a handful of masked operations regardless of its
		// range width. Wider slates run one 32-candidate block per pass over
		// the log — upper blocks skip nearly every emission through the
		// zero-mask fast path, since few emissions reach a coarse slate's
		// deep end.
		s.gapLog = gaps
		s.gapBound = s.bound
		if nb == 1 {
			s.gapHi = s.gapHi[:0]
			foldGapsAVX512(gaps, s.bound, s.Cnt, s.Sum, s.Min)
		} else {
			// Upper blocks only see emissions whose remapped range reaches
			// past lane 31; collect them once, in order, so every block past
			// the first folds the (usually tiny) sub-log instead of rescanning
			// the whole log. Per lane the sub-log is the identical
			// subsequence, so the fold order — and the floats — don't change.
			hi := s.gapHi[:0]
			bt := s.bound
			for i := range gaps {
				if bt[gaps[i].Hi] > 32 {
					hi = append(hi, gaps[i])
				}
			}
			s.gapHi = hi
			foldGapsAVX512(gaps, s.blockBound(0), s.Cnt, s.Sum, s.Min)
			for blk := 1; blk < nb; blk++ {
				off := blk * 32
				foldGapsAVX512(hi, s.blockBound(off), s.Cnt[off:], s.Sum[off:], s.Min[off:])
			}
		}
		return
	}
	s.gapLog = nil

	// Fallback: compact the remapped, non-empty emissions into Emits and
	// reuse the per-range fold kernels (and the Emits-based TailStats).
	if cap(s.Emits) < len(gaps) {
		s.Emits = make([]Emission, len(gaps))
	}
	emits := s.Emits[:len(gaps)]
	bt := s.bound
	cntDiff := s.cntDiff
	idx := 0
	for i := range gaps {
		e := &gaps[i]
		rl := bt[e.Lo]
		rh := bt[e.Hi]
		if rl < rh {
			emits[idx] = Emission{Gap: e.Gap, Lo: rl, Hi: rh}
			cntDiff[rl]++
			cntDiff[rh]--
			idx++
		}
	}
	s.Emits = emits[:idx]
	c := int64(0)
	for i := 0; i < k; i++ {
		c += cntDiff[i]
		s.Cnt[i] = c
	}
	foldEmits(s.Emits, s.Sum, s.Min)
}

// TailStats runs the conditional reduction the timeout valuation needs:
// for each candidate i, ts[i] accumulates Σ (gap − to[i]) over its
// emissions with gap > to[i] in chronological order, and h[i] counts
// them. Callers zero ts/h (length = slate size) before the call. After a
// SweepGaps that took the register-resident kernel, the asm tail reads
// and writes whole 32-lane blocks, so to/ts/h with capacity rounded up to
// the 32-lane block count keep it on that path (the lanes past len are
// scratch); smaller slices fall back to the scalar remap loop,
// bit-identical by the same argument.
func (s *EventSweeper) TailStats(to []float64, ts []float64, h []int64) {
	if s.gapLog != nil {
		k := len(to)
		nb := (k + 31) / 32
		if cap(to) >= nb*32 && cap(ts) >= nb*32 && cap(h) >= nb*32 {
			for blk := 0; blk < nb; blk++ {
				off := blk * 32
				end := off + 32
				if end > k {
					end = k
				}
				// A lane with to = +Inf never accumulates (gap − ∞ > 0 is
				// false for every finite gap), so a block of all-+Inf
				// timeouts is a no-op: skip the pass. The caller's metrics
				// pass usually attributes only a few candidates, making
				// this the common case there.
				allInf := true
				for _, v := range to[off:end] {
					if !math.IsInf(v, 1) {
						allInf = false
						break
					}
				}
				if allInf {
					continue
				}
				if nb == 1 {
					tailGapsAVX512(s.gapLog, s.gapBound, to, ts, h)
				} else if blk == 0 {
					tailGapsAVX512(s.gapLog, s.blockBound(0), to, ts, h)
				} else {
					tailGapsAVX512(s.gapHi, s.blockBound(off), to[off:], ts[off:], h[off:])
				}
			}
		} else {
			tailGapsGeneric(s.gapLog, s.gapBound, to, ts, h)
		}
		return
	}
	tailEmits(s.Emits, to, ts, h)
}

// blockBound builds the remap table for the 32-candidate block starting
// at slate index off: the global bound values shifted down by off and
// clamped to [0, 32]. Clamping preserves each lane's coverage — lane
// off+j is covered by [rl, rh) iff it is covered by the clamped
// [rl', rh') — and keeps every shift count the mask kernels compute below
// 33, so block masks never alias across 64-bit wraparound.
func (s *EventSweeper) blockBound(off int) []int32 {
	if cap(s.boundBlk) < len(s.bound) {
		s.boundBlk = make([]int32, len(s.bound))
	}
	bt := s.boundBlk[:len(s.bound)]
	o := int32(off)
	for i, v := range s.bound {
		v -= o
		if v < 0 {
			v = 0
		} else if v > 32 {
			v = 32
		}
		bt[i] = v
	}
	return bt
}

func (s *EventSweeper) reset(k, maxBank int) {
	if cap(s.bound) < maxBank+2 {
		s.bound = make([]int32, maxBank+2)
	}
	s.bound = s.bound[:maxBank+2]
	if cap(s.segT) < k+1 {
		// Capacity rounded up to whole 32-lane blocks: the register-resident
		// gap kernels load and store full accumulator blocks, so the backing
		// arrays must own the complete width of every block the slate
		// touches, even when the last block is partially filled.
		kk := (k + 31) &^ 31
		if kk < 32 {
			kk = 32
		}
		s.Cnt = make([]int64, k, kk)
		s.Sum = make([]float64, k, kk)
		s.Min = make([]float64, k, kk)
		s.cntDiff = make([]int64, k+1, kk+1)
		s.segT = make([]simtime.Seconds, k+1, kk+1)
		s.segHi = make([]int32, k+1, kk+1)
	}
	s.Cnt = s.Cnt[:k]
	s.Sum = s.Sum[:k]
	s.Min = s.Min[:k]
	s.cntDiff = s.cntDiff[:k+1]
	s.segT = s.segT[:k+1]
	s.segHi = s.segHi[:k+1]
	inf := math.Inf(1)
	for i := 0; i < k; i++ {
		s.Cnt[i] = 0
		s.Sum[i] = 0
		s.Min[i] = inf
		s.cntDiff[i] = 0
	}
	s.cntDiff[k] = 0
	s.Emits = s.Emits[:0]
}

// BuildEvents compresses a depth-annotated log into the SweepEvent stream
// a DepthHist would have accumulated: the batch path's half of the
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
