package lrusim

import (
	"math"
	"math/bits"

	"jointpm/internal/simtime"
)

// This file is the streaming half of the stack-distance machinery: a
// dense per-bank depth histogram maintained reference-by-reference, plus
// the compressed event stream and the slate sweeper that run the joint
// manager's incremental Decide path. The invariant the whole file serves:
// feeding every reference of a period into a DepthHist as depth runs must
// reproduce, bit for bit, the aggregates and gap log the batch oracle
// computes from the full []DepthRecord log (see the differential tests in
// hist_test.go and internal/core, and the per-record Observe reference in
// oracle_test.go). Both paths tell
// a page's first touch in the period from its depth alone, by the rule
// stated on DepthHist.

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
// period costs O(banks the period reached) instead of an O(refs) replay:
//
//   - per-bank buckets (count, bytes, first-access bytes) indexed by
//     bank-granular depth — the depth profile and per-candidate
//     disk-access counts come from their prefix sums;
//   - the maximum observed stack depth, which bounds the candidate search
//     and every bucket the period touched;
//   - the bank-space gap log (GapStream) that reconstructs idle intervals,
//     fed from the compressed SweepEvent stream as it is produced.
//
// The references — the runs ObserveRuns is fed, read page by page — must
// be the complete depth stream of one StackSim
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
//     page touched in the period (past the window, or by a restore into a
//     smaller window) only once no older page is left. From then on every
//     tracked page was touched in the period, every non-cold depth is at
//     most Len ≤ D, and the rule answers "not first", which is the truth.
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
//     batch oracle, so dedup must stay off to remain bit-identical.
//
// Only the newest event is kept: with dedup on it may still deepen, so it
// reaches the gap log once a later event (or FinishGaps) settles it.
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

	// buckets[b-1] aggregates the non-cold references at bank depth b.
	// Counts are deep-clamped to bucket maxBanks+1, bytes to bucket
	// maxBanks. No bucket deeper than maxDepth's bank is ever touched.
	buckets []depthBucket

	refs      int64
	coldCount int64
	coldBytes simtime.Bytes
	nonCold   simtime.Bytes // bytes of all non-cold references
	maxDepth  int64         // deepest non-cold reference, in pages

	touched int64     // D: the period's cold and first-touch references so far
	gaps    GapStream // bank-space idle-gap sweep, fed every event but the newest

	pending    SweepEvent   // the newest event, not yet fed to gaps
	hasPending bool         // pending holds an event
	block      []SweepEvent // ObserveRuns scratch: one block's events
}

// depthBucket is one bank depth's share of the period's non-cold
// references.
type depthBucket struct {
	count int64
	bytes simtime.Bytes
	first simtime.Bytes // bytes of the references that were first touches
}

// NewDepthHist returns an empty histogram for a geometry of bankPages
// pages per bank and maxBanks installed banks. References at or below
// minKeepBanks are excluded from the event stream (but still counted in
// the histograms); window is the idle-interval aggregation window, which
// both filters the streaming gap log and (when positive) enables
// same-timestamp event compression. With window == 0 zero-length gaps ARE
// emitted by the batch oracle, so compression must stay off to remain
// bit-identical — the histogram derives that itself.
func NewDepthHist(bankPages int64, maxBanks, minKeepBanks int, window simtime.Seconds) *DepthHist {
	if bankPages <= 0 || maxBanks < 1 {
		panic("lrusim: bad DepthHist geometry")
	}
	h := &DepthHist{
		bankPages: bankPages,
		maxBanks:  maxBanks,
		minKeep:   int32(minKeepBanks),
		window:    window,
		dedup:     window > 0,
		buckets:   make([]depthBucket, maxBanks+1),
	}
	h.gaps.Reset(window, maxBanks)
	return h
}

// ObserveRuns folds a time-ordered block of depth runs, each page of
// which moved pageBytes, into the histogram: the same state as one
// Observe call per page of each run, with the per-reference work done
// once per run. A run of n pages at depth d adds n to d's count bucket,
// n*pageBytes to its byte buckets, and min(n, max(0, d-D)) first touches
// (DepthHist's rule applied to each page in turn: the run's pages are
// first touches while D < d, and each raises D by one). It pushes one
// event, or n with dedup off, where n same-time events stay distinct.
// Integer bucket sums commute, so the resulting state — buckets,
// counters, gap log — is bit-identical to the page-at-a-time path (see
// TestObserveRunsMatchesObserve, against the per-record Observe of
// oracle_test.go).
func (h *DepthHist) ObserveRuns(runs []DepthRun, pageBytes simtime.Bytes) {
	if len(runs) == 0 {
		return
	}
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
	// The block's events start from the pending one, which a same-time
	// run may still deepen.
	events := h.block[:0]
	if h.hasPending {
		events = append(events, h.pending)
	}
	buckets := h.buckets
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
			kb = min(kb, maxBanks+1)
			bb := &buckets[kb-1]
			bb.count += n
			if kb > maxBanks {
				bb = &buckets[maxBanks-1] // bytes bucket: clamped to maxBanks
			}
			bb.bytes += simtime.Bytes(n * pb)
			nonCold += n * pb
			if f := min(d-touched, n); f > 0 {
				touched += f
				bb.first += simtime.Bytes(f * pb)
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
	h.refs, h.coldCount, h.coldBytes = refs, coldCount, simtime.Bytes(coldBytes)
	h.nonCold, h.maxDepth, h.touched = simtime.Bytes(nonCold), maxDepth, touched
	// Feed every event but the newest in one pass: dedup only ever
	// deepens the newest, so everything before it — the previous block's
	// pending event included — is final now.
	if n := len(events); n > 0 {
		h.gaps.FeedBatch(events[:n-1])
		h.pending, h.hasPending = events[n-1], true
	}
	h.block = events
}

// Refs returns how many references this period has observed.
func (h *DepthHist) Refs() int64 { return h.refs }

// MaxDepth returns the deepest non-cold stack depth observed, in pages.
func (h *DepthHist) MaxDepth() int64 { return h.maxDepth }

// Cold returns the cold-reference count and bytes.
func (h *DepthHist) Cold() (count int64, bytes simtime.Bytes) {
	return h.coldCount, h.coldBytes
}

// NonCold returns the non-cold reference count and bytes.
func (h *DepthHist) NonCold() (count int64, bytes simtime.Bytes) {
	return h.refs - h.coldCount, h.nonCold
}

// reached returns how many buckets the period can have touched: the
// bank of the deepest reference, clamped to the deep bucket.
func (h *DepthHist) reached() int {
	return int(min((h.maxDepth+h.bankPages-1)/h.bankPages, int64(h.maxBanks)+1))
}

// AppendCountPrefix appends n cumulative non-cold reference counts, for
// n up to maxBanks+1: the k-th value counts the references at depth
// ≤ k+1 banks. The bucket past maxBanks collects every deeper reference,
// which keeps disk-access counts exact for depths beyond the installed
// banks.
func (h *DepthHist) AppendCountPrefix(dst []int64, n int) []int64 {
	var c int64
	for i := range h.buckets[:n] {
		c += h.buckets[i].count
		dst = append(dst, c)
	}
	return dst
}

// AppendTotalPrefix appends n cumulative non-cold byte counts, for n up
// to maxBanks: the k-th value is the bytes at depth ≤ k+1 banks.
func (h *DepthHist) AppendTotalPrefix(dst []simtime.Bytes, n int) []simtime.Bytes {
	var c simtime.Bytes
	for i := range h.buckets[:n] {
		c += h.buckets[i].bytes
		dst = append(dst, c)
	}
	return dst
}

// AppendFirstPrefix appends n cumulative first-access byte counts, for
// n up to maxBanks.
func (h *DepthHist) AppendFirstPrefix(dst []simtime.Bytes, n int) []simtime.Bytes {
	var c simtime.Bytes
	for i := range h.buckets[:n] {
		c += h.buckets[i].first
		dst = append(dst, c)
	}
	return dst
}

// FinishGaps feeds the pending event into the bank-space gap sweep and
// returns the period's complete gap log for the given observation bounds
// (see GapStream.Finish). Idempotent until the next Reset.
func (h *DepthHist) FinishGaps(start, end simtime.Seconds) []Emission {
	if !h.gaps.finished && h.hasPending {
		h.gaps.Feed(h.pending)
	}
	return h.gaps.Finish(start, end)
}

// Reset clears the period's state, retaining all buffer capacity. Only
// the buckets the period reached are zeroed: every deeper one is still
// empty.
func (h *DepthHist) Reset() {
	clear(h.buckets[:h.reached()])
	h.refs = 0
	h.coldCount = 0
	h.coldBytes = 0
	h.nonCold = 0
	h.maxDepth = 0
	h.touched = 0
	h.hasPending = false
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
// candidate slate from a period's gap log, with per-candidate interval
// lists replaced by streaming reductions (count, sum, min — everything a
// Pareto moment fit needs) plus a shared slate-space emission log for
// later conditional passes (timeout valuation). All buffers are reused
// across calls; returned slices are invalidated by the next SweepGaps.
type EventSweeper struct {
	bound   []int32 // bound[b]: slate candidates a reference at bank depth b misses
	cntDiff []int64 // per-emission boundary deltas; prefix-summed into Cnt

	Emits []Emission // slate-space log: each emission covers candidates [Lo, Hi), Lo < Hi
	Cnt   []int64    // per candidate: intervals emitted (n_i)
	Sum   []float64  // per candidate: total idle seconds, chronological summation
	Min   []float64  // per candidate: shortest interval (+Inf when none)

	// Set by SweepGaps when the register-resident kernels priced the
	// slate: TailStats then runs them too. Slates wider than the 32
	// kernel lanes run in 32-candidate blocks; blockTab holds one clamp
	// table of k+1 entries per block, and gapHi the emissions the blocks
	// past the first can see.
	asm      bool
	blockTab []int32
	gapHi    []Emission // ordered sub-log of emissions reaching past lane 31
}

// SweepGaps prices an ascending slate from a finished bank-space gap log
// (see GapStream) instead of re-sweeping the event stream: each logged
// emission's threshold range [Lo, Hi) maps through the slate's bound
// table to the contiguous slate-index range [bound[Lo], bound[Hi)), and
// the per-candidate reductions fold exactly the gaps a dedicated slate
// sweep would have emitted, in the same order — so Cnt/Sum/Min (and a
// later TailStats) are bit-identical to sweeping the period's event
// stream for the slate directly.
//
// The remap runs once per call, into Emits, and drops the emissions that
// cover no candidate; the folds and every TailStats call then work in
// slate space only. The bound table stops one threshold past the largest
// candidate, since every deeper threshold, the cold sentinel included,
// misses the whole slate. Nothing here depends on the installed banks.
func (s *EventSweeper) SweepGaps(gaps []Emission, slate []int32) {
	k := len(slate)
	s.reset(slate)
	top := int32(0)
	if k > 0 {
		top = slate[k-1] + 1
	}
	bt := s.buildBound(slate, top)

	if cap(s.Emits) < len(gaps) {
		s.Emits = make([]Emission, len(gaps))
	}
	emits := s.Emits[:len(gaps)]
	idx := 0
	for i := range gaps {
		e := &gaps[i]
		rl, rh := bt[min(e.Lo, top)], bt[min(e.Hi, top)]
		if rl < rh {
			emits[idx] = Emission{Gap: e.Gap, Lo: rl, Hi: rh}
			idx++
		}
	}
	emits = emits[:idx]
	s.Emits = emits

	s.asm = gapAsm
	if s.asm {
		// Register-resident kernel: a block of up to 32 candidate
		// accumulators lives in vector registers across the whole log;
		// each emission costs a handful of masked operations regardless
		// of its range width. Wider slates run one 32-candidate block per
		// pass: upper blocks fold only the (usually tiny) sub-log of
		// emissions reaching past lane 31, collected once, in order, so
		// per lane the fold order — and the floats — don't change.
		nb := s.buildBlockTables(k)
		hi := s.gapHi[:0]
		if nb > 1 {
			for i := range emits {
				if emits[i].Hi > 32 {
					hi = append(hi, emits[i])
				}
			}
		}
		s.gapHi = hi
		for blk := 0; blk < nb; blk++ {
			off := blk * 32
			log := emits
			if blk > 0 {
				log = hi
			}
			foldGapsAVX512(log, s.blockTable(blk), s.Cnt[off:], s.Sum[off:], s.Min[off:])
		}
		return
	}

	cntDiff := s.cntDiff
	for i := range emits {
		cntDiff[emits[i].Lo]++
		cntDiff[emits[i].Hi]--
	}
	c := int64(0)
	for i := 0; i < k; i++ {
		c += cntDiff[i]
		s.Cnt[i] = c
	}
	foldEmits(emits, s.Sum, s.Min)
}

// TailStats runs the conditional reduction the timeout valuation needs:
// for each candidate i, ts[i] accumulates Σ (gap − to[i]) over its
// emissions with gap > to[i] in chronological order, and h[i] counts
// them. Callers zero ts/h (length = slate size) before the call. After a
// SweepGaps that took the register-resident kernel, the asm tail reads
// and writes whole 32-lane blocks, so to/ts/h with capacity rounded up to
// the 32-lane block count keep it on that path (the lanes past len are
// scratch); smaller slices fall back to the slate-space fold,
// bit-identical by the same argument.
func (s *EventSweeper) TailStats(to []float64, ts []float64, h []int64) {
	k := len(s.Cnt)
	nb := (k + 31) / 32
	if !s.asm || cap(to) < nb*32 || cap(ts) < nb*32 || cap(h) < nb*32 {
		tailEmits(s.Emits, to, ts, h)
		return
	}
	for blk := 0; blk < nb; blk++ {
		off := blk * 32
		// A lane with to = +Inf never accumulates (gap − ∞ > 0 is false
		// for every finite gap), so a block of all-+Inf timeouts is a
		// no-op: skip the pass. The caller's metrics pass usually
		// attributes only a few candidates, making this the common case
		// there.
		allInf := true
		for _, v := range to[off:min(off+32, k)] {
			if !math.IsInf(v, 1) {
				allInf = false
				break
			}
		}
		if allInf {
			continue
		}
		log := s.Emits
		if blk > 0 {
			log = s.gapHi
		}
		tailGapsAVX512(log, s.blockTable(blk), to[off:], ts[off:], h[off:])
	}
}

// buildBound fills bound[b], for the thresholds b in 0..top, with the
// number of slate entries below b, and returns the table.
func (s *EventSweeper) buildBound(slate []int32, top int32) []int32 {
	if cap(s.bound) < int(top)+1 {
		s.bound = make([]int32, top+1)
	}
	bt := s.bound[:top+1]
	j := 0
	for b := range bt {
		for j < len(slate) && slate[j] < int32(b) {
			j++
		}
		bt[b] = int32(j)
	}
	s.bound = bt
	return bt
}

// buildBlockTables builds, for each 32-candidate block of a k-candidate
// slate, the kernels' remap table over the slate indices 0..k: index i
// shifted down by the block's offset and clamped to [0, 32]. Clamping
// preserves each lane's coverage — lane off+j is covered by [rl, rh) iff
// it is covered by the clamped [rl', rh') — and keeps every shift count
// the mask kernels compute below 33, so block masks never alias across
// 64-bit wraparound. It returns the block count.
func (s *EventSweeper) buildBlockTables(k int) int {
	nb := (k + 31) / 32
	w := k + 1
	if cap(s.blockTab) < nb*w {
		s.blockTab = make([]int32, nb*w)
	}
	s.blockTab = s.blockTab[:nb*w]
	for blk := 0; blk < nb; blk++ {
		t := s.blockTab[blk*w : (blk+1)*w]
		for i := range t {
			t[i] = int32(min(max(i-blk*32, 0), 32))
		}
	}
	return nb
}

// blockTable returns the remap table of 32-candidate block blk.
func (s *EventSweeper) blockTable(blk int) []int32 {
	w := len(s.Cnt) + 1
	return s.blockTab[blk*w : (blk+1)*w]
}

func (s *EventSweeper) reset(slate []int32) {
	k := len(slate)
	for i := 1; i < k; i++ {
		if slate[i] < slate[i-1] {
			panic("lrusim: EventSweeper slate must be ascending")
		}
	}
	if cap(s.Cnt) < k {
		// Capacity rounded up to whole 32-lane blocks: the register-resident
		// gap kernels load and store full accumulator blocks, so the backing
		// arrays must own the complete width of every block the slate
		// touches, even when the last block is partially filled.
		kk := max((k+31)&^31, 32)
		s.Cnt = make([]int64, k, kk)
		s.Sum = make([]float64, k, kk)
		s.Min = make([]float64, k, kk)
		s.cntDiff = make([]int64, k+1, kk+1)
	}
	s.Cnt = s.Cnt[:k]
	s.Sum = s.Sum[:k]
	s.Min = s.Min[:k]
	s.cntDiff = s.cntDiff[:k+1]
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
