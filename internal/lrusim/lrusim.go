// Package lrusim implements the paper's extended LRU list (Section IV-B):
// an LRU stack that keeps both resident pages and recently replaced
// ("ghost") pages, and reports the LRU stack depth of every reference.
// The depth stream is what lets the joint power manager predict, without
// re-running the workload, how many disk accesses would occur at any
// candidate memory size — a reference at depth d hits in memory iff the
// resident capacity is at least d pages (Mattson's inclusion property).
//
// Every referenced page takes a fresh, increasing last-access position.
// A depth is one rank query over a liveness bitset of positions, whose
// per-block live counts sit in a small Fenwick tree. All of it is sized
// to the pages actually tracked rather than to the tracked window, so the
// bitset and the tree stay in cache. The stack works in extents, the page
// ranges requests reference: a request that repeats a range referenced
// whole before costs one page-table probe and one rank query, not one of
// each per page. A naive O(n) list-walk implementation is included for
// differential testing and for the ablation benchmark.
package lrusim

import (
	"math/bits"

	"jointpm/internal/intmap"
	"jointpm/internal/simtime"
)

// Cold is the depth reported for a page's first reference (or a reference
// to a page already pushed out of the tracked ghost region). Such
// references are compulsory disk accesses at every memory size.
const Cold = -1

// MaxWindow is the largest tracked window NewStackSim accepts, in pages:
// the page table packs positions, which reach twice the window, into 31
// bits.
const MaxWindow = 1 << 30

const (
	// blockShift sets the liveness block: 512 positions, eight bitset
	// words, one Fenwick leaf. A depth query sums whole blocks in the
	// tree and counts the bits of one block directly.
	blockShift   = 9
	blockWords   = 1 << blockShift / 64
	blockMask    = 1<<blockShift - 1
	minPositions = 1024

	// A first page's table value packs its extent's start position (low
	// posBits) and length (high bits); any other page's value is ^id.
	posBits = 32
	posMask = 1<<posBits - 1
)

// LookAhead is how many ranges a caller should Prefetch before
// referencing them.
const LookAhead = 16

// DepthRun is a run of consecutive pages of one request that share a
// stack depth: pages Page to Page+Pages-1, all referenced at Time, each
// at Depth (or all Cold). Pages is at least 1. ReferenceRange reports a
// request's depths as maximal runs; page by page they are the depth
// stream one Reference call per page would produce.
type DepthRun struct {
	Time  simtime.Seconds
	Page  int64
	Pages int32
	Depth int32
}

// StackSim tracks LRU stack depths over a page reference stream.
//
// Positions [0, nextPos) have been handed out; bit p of live is set iff
// position p is the last access of a tracked page. Because nothing is
// live at or above nextPos, a page's depth is the number of live
// positions at or above its own. The open block — the 512-position block
// nextPos writes into — is counted from its bits; blocks holds the live
// counts of the closed blocks below it, so a reference into the open
// block never walks the tree, and handing out a position never updates
// it. When the position space fills, compact renumbers the live positions
// to 0..count-1 in place, and grows the space while the tracked set would
// leave less than three quarters of it free, up to twice the tracked
// window.
//
// The tracked pages form extents: an extent is a page range last
// referenced by one request, its page first+i at position start+i. The
// page table maps an extent's first page to start and length, and every
// other page to an id whose firstOf entry names the first page; a
// one-page extent needs no id. All pages of an extent share one depth,
// the pages above it plus its length, so a request that repeats a live
// extent moves it to the top with one probe and one rank query.
// Otherwise the request is served page by page: each page leaves its
// extent, which splits into at most two, and joins the request's own
// extent at the top. Eviction takes the first page of the bottom extent.
type StackSim struct {
	maxTracked   int // resident + ghost capacity, in pages
	maxPositions int // ceiling of the position space

	table    *intmap.Map // page -> start and length (first pages) or ^id
	firstOf  []int64     // id -> first page of its extent
	freeIDs  []int64     // ids naming no extent
	pageAt   []int64     // position -> page; valid where live is set
	live     []uint64    // liveness bitset over positions
	blocks   []int32     // Fenwick tree (1-based) over closed blocks' live counts
	open     int         // index of the open block
	wordRank []int32     // compaction scratch: live positions below each bitset word
	nextPos  int
	count    int
	low      int   // every position below low is dead
	sink     int64 // keeps Prefetch's loads live

	refs  int64 // total references
	colds int64 // cold references
}

// NewStackSim returns a simulator that tracks at most maxTracked pages
// (resident plus ghost), at most MaxWindow. References deeper than that
// report Cold. Its memory grows with the pages it actually tracks, not
// with maxTracked.
func NewStackSim(maxTracked int) *StackSim {
	if maxTracked <= 0 || maxTracked > MaxWindow {
		panic("lrusim: maxTracked must be in [1, MaxWindow]")
	}
	maxPos := (2*maxTracked + blockMask) &^ blockMask
	if maxPos < minPositions {
		maxPos = minPositions
	}
	s := &StackSim{
		maxTracked:   maxTracked,
		maxPositions: maxPos,
		table:        intmap.New(0),
	}
	s.resize(minPositions)
	return s
}

// resize allocates a position space of n positions (a multiple of the
// block size), keeping the first nextPos entries of pageAt. The bitset
// and the tree start empty.
func (s *StackSim) resize(n int) {
	pageAt := make([]int64, n)
	copy(pageAt, s.pageAt[:s.nextPos])
	s.pageAt = pageAt
	s.live = make([]uint64, n/64)
	s.blocks = make([]int32, n>>blockShift+1)
}

// extent packs the start position and length of an extent into its first
// page's table value.
func extent(start, n int) int64 { return int64(n)<<posBits | int64(start) }

// Prefetch loads the page-table slot of page, the first page of a range
// about to be referenced. A caller prefetches the next LookAhead ranges
// before referencing them: the loads are independent, so their cache
// misses overlap instead of each stalling its own reference.
func (s *StackSim) Prefetch(page int64) { s.sink |= s.table.Touch(page) }

// Reference records an access to page and returns its LRU stack depth
// before the access (1 = it was the most recently used page). It returns
// Cold for pages not currently tracked. The page becomes the MRU entry,
// an extent of its own. page must be ≥ 0.
func (s *StackSim) Reference(page int64) int {
	s.refs++
	pos := s.claim()
	depth := Cold
	if prev, ok := s.table.Swap(page, extent(pos, 1)); !ok {
		s.colds++
		s.count++
	} else if prev>>posBits == 1 {
		old := int(prev & posMask)
		depth = s.liveFrom(old, pos)
		s.kill(old)
	} else {
		depth = s.unlink(page, prev)
	}
	s.live[pos>>6] |= 1 << (pos & 63)
	s.pageAt[pos] = page
	s.nextPos++
	if s.count > s.maxTracked {
		s.evictOldest()
	}
	return depth
}

// ReferenceRange references pages first to first+n-1 in order, as one
// request at time t, and appends their depths to dst as maximal runs of
// equal depth: expanded page by page, exactly the depths n Reference
// calls would return. The pages become one extent at the top of the
// stack. first+n-1 must not overflow.
func (s *StackSim) ReferenceRange(dst []DepthRun, t simtime.Seconds, first int64, n int) []DepthRun {
	if n <= 1 {
		if n == 1 {
			dst = append(dst, DepthRun{Time: t, Page: first, Pages: 1, Depth: int32(s.Reference(first))})
		}
		return dst
	}
	v := s.table.Ref(first)
	if v == nil || *v < 0 || int(*v>>posBits) != n {
		return s.referencePages(dst, t, first, n)
	}
	// The range is a live extent: every page is at depth A+n, where A
	// counts the pages above it. Compaction keeps v valid (it rewrites
	// values in place) and, since n ≤ count, leaves room for n positions.
	if s.nextPos+n > len(s.pageAt) {
		s.compact()
	}
	start := int(*v & posMask)
	depth := s.liveFrom(start, s.nextPos)
	s.clearRange(start, n)
	*v = extent(s.nextPos, n)
	s.place(first, n)
	s.refs += int64(n)
	return append(dst, DepthRun{Time: t, Page: first, Pages: int32(n), Depth: int32(depth)})
}

// referencePages is ReferenceRange's page-by-page path: each page leaves
// its extent (unlink) and joins the request's extent, h to h+m-1, at the
// top of the stack. The request's pages hold the top m positions, so h's
// table value is written once at the end, and before an eviction only
// when the request's extent is the only one left, the one evictOldest
// trims: nothing else reads it meanwhile, and compaction moves its start
// without reading its length.
func (s *StackSim) referencePages(dst []DepthRun, t simtime.Seconds, first int64, n int) []DepthRun {
	from := len(dst)
	h, m, id := first, 0, int64(-1)
	for p := first; p < first+int64(n); p++ {
		s.refs++
		pos := s.claim()
		val := extent(pos, 1)
		if m > 0 {
			if id < 0 {
				id = s.newID(h)
			}
			val = ^id
		}
		depth := Cold
		if prev, ok := s.table.Swap(p, val); ok {
			depth = s.unlink(p, prev)
		} else {
			s.colds++
			s.count++
		}
		s.live[pos>>6] |= 1 << (pos & 63)
		s.pageAt[pos] = p
		s.nextPos++
		m++
		if s.count > s.maxTracked {
			if s.count == m {
				*s.table.Ref(h) = extent(s.nextPos-m, m)
			}
			if s.evictOldest() == h {
				// evictOldest moved the request's first page up, and
				// freed its id if one page is left.
				h, m = h+1, m-1
				if m == 1 {
					id = -1
				}
			}
		}
		if k := len(dst); k > from && dst[k-1].Depth == int32(depth) {
			dst[k-1].Pages++
		} else {
			dst = append(dst, DepthRun{Time: t, Page: p, Pages: 1, Depth: int32(depth)})
		}
	}
	if m > 1 {
		*s.table.Ref(h) = extent(s.nextPos-m, m)
	}
	return dst
}

// claim returns the position the next referenced page takes, compacting
// a full position space and closing the open block when the position
// lies past it.
func (s *StackSim) claim() int {
	if s.nextPos == len(s.pageAt) {
		s.compact()
	}
	pos := s.nextPos
	if pos>>blockShift != s.open {
		s.addBlock(s.open, int32(s.blockCount(s.open)))
		s.open = pos >> blockShift
	}
	return pos
}

// place hands positions nextPos to nextPos+n-1 to pages first to
// first+n-1.
func (s *StackSim) place(first int64, n int) {
	pos, end := s.nextPos, s.nextPos+n
	for i := range s.pageAt[pos:end] {
		s.pageAt[pos+i] = first + int64(i)
	}
	for pos < end {
		if b := pos >> blockShift; b != s.open {
			s.addBlock(s.open, int32(s.blockCount(s.open)))
			s.open = b
		}
		stop := min(end, (pos>>blockShift+1)<<blockShift)
		for pos < stop {
			top := min(stop, (pos>>6+1)<<6)
			s.live[pos>>6] |= wordMask(pos, top)
			pos = top
		}
	}
	s.nextPos = end
}

// clearRange clears live positions start to start+n-1.
func (s *StackSim) clearRange(start, n int) {
	pos, end := start, start+n
	for pos < end {
		b := pos >> blockShift
		stop := min(end, (b+1)<<blockShift)
		if b != s.open {
			s.addBlock(b, int32(pos-stop))
		}
		for pos < stop {
			top := min(stop, (pos>>6+1)<<6)
			s.live[pos>>6] &^= wordMask(pos, top)
			pos = top
		}
	}
}

// wordMask returns the bits of positions [lo, hi) within lo's word; hi
// lies in the same word or is the next word's first position.
func wordMask(lo, hi int) uint64 {
	return ^uint64(0) >> (64 - (hi - lo)) << (lo & 63)
}

// unlink takes page p, whose table value was v, out of its extent: it
// returns p's depth, clears p's position, and leaves the pages before
// and after p as extents of their own. The larger remainder keeps the
// extent's id and the smaller is re-keyed, so a page is re-keyed only
// into an extent at most half its old one's size. p's own slot is not
// touched.
func (s *StackSim) unlink(p, v int64) int {
	f, head := p, (*int64)(nil)
	id := int64(-1)
	if v < 0 {
		id = ^v
		f = s.firstOf[id]
		head = s.table.Ref(f)
		v = *head
	}
	start, size := int(v&posMask), int(v>>posBits)
	a := int(p - f) // pages before p
	b := size - a - 1
	depth := s.liveFrom(start+a, s.nextPos)
	s.kill(start + a)
	if a == 0 {
		if b > 0 {
			// p was the first page: the next page leads the rest.
			next := s.table.Ref(p + 1)
			id = ^*next
			*next = extent(start+1, b)
			s.retarget(id, p+1, b)
		}
		return depth
	}
	*head = extent(start, a)
	if b == 0 {
		s.retarget(id, f, a)
		return depth
	}
	*s.table.Ref(p + 1) = extent(start+a+1, b)
	if a >= b {
		s.retarget(id, f, a)
		s.rekey(p+1, b)
	} else {
		s.retarget(id, p+1, b)
		s.rekey(f, a)
	}
	return depth
}

// retarget points id at the extent of n pages from first, or frees it if
// the extent is a single page.
func (s *StackSim) retarget(id, first int64, n int) {
	if n == 1 {
		s.freeIDs = append(s.freeIDs, id)
		return
	}
	s.firstOf[id] = first
}

// rekey gives the extent of n pages from first, whose first page's slot
// is already set, a fresh id.
func (s *StackSim) rekey(first int64, n int) {
	if n == 1 {
		return
	}
	v := ^s.newID(first)
	for p := first + 1; p < first+int64(n); p++ {
		*s.table.Ref(p) = v
	}
}

// newID returns an unused id naming first.
func (s *StackSim) newID(first int64) int64 {
	if k := len(s.freeIDs); k > 0 {
		id := s.freeIDs[k-1]
		s.freeIDs = s.freeIDs[:k-1]
		s.firstOf[id] = first
		return id
	}
	s.firstOf = append(s.firstOf, first)
	return int64(len(s.firstOf) - 1)
}

// liveFrom returns the number of live positions in [p, end), where end
// is nextPos or the position being handed out: p's depth.
func (s *StackSim) liveFrom(p, end int) int {
	w := p >> 6
	n := -bits.OnesCount64(s.live[w] & (1<<(p&63) - 1))
	if b := p >> blockShift; b != s.open {
		// Everything live at or above the end of p's closed block.
		var below int32
		for i := b + 1; i > 0; i -= i & -i {
			below += s.blocks[i]
		}
		n += s.count - int(below)
		end = (b + 1) << blockShift
	}
	for i := w; i < end>>6; i++ {
		n += bits.OnesCount64(s.live[i])
	}
	if r := end & 63; r != 0 {
		n += bits.OnesCount64(s.live[end>>6] & (1<<r - 1))
	}
	return n
}

// kill clears live position p.
func (s *StackSim) kill(p int) {
	s.live[p>>6] &^= 1 << (p & 63)
	if b := p >> blockShift; b != s.open {
		s.addBlock(b, -1)
	}
}

// blockCount returns the number of live positions in block b.
func (s *StackSim) blockCount(b int) int {
	n := 0
	for _, word := range s.live[b*blockWords : (b+1)*blockWords] {
		n += bits.OnesCount64(word)
	}
	return n
}

// addBlock adds d to closed block b's live count.
func (s *StackSim) addBlock(b int, d int32) {
	for i := b + 1; i < len(s.blocks); i += i & -i {
		s.blocks[i] += d
	}
}

// evictOldest drops the least recently used tracked page (the bottom of
// the ghost region), the first live position at or above low, and
// returns it. The position is the start of the bottom extent, so the
// page is that extent's first page, and the next page leads the rest.
func (s *StackSim) evictOldest() int64 {
	w := s.low >> 6
	for s.live[w] == 0 {
		w++
	}
	p := w<<6 | bits.TrailingZeros64(s.live[w])
	s.kill(p)
	f := s.pageAt[p]
	if n := int(*s.table.Ref(f) >> posBits); n > 1 {
		next := s.table.Ref(f + 1)
		id := ^*next
		*next = extent(p+1, n-1)
		s.retarget(id, f+1, n-1)
	}
	s.table.Delete(f)
	s.count--
	s.low = p + 1
	return f
}

// compact renumbers live pages to positions 0..count-1, preserving
// order, so each extent's positions stay consecutive and only extent
// starts change. It grows the position space first if the tracked set
// would fill more than a quarter of it. Amortised O(1) per reference: it
// runs once the space is exhausted, and leaves at least half of it free.
func (s *StackSim) compact() {
	// Exclusive per-word prefix counts: a live page's new position is
	// wordRank[w] plus the live bits below it in its word w.
	if len(s.wordRank) != len(s.live) {
		s.wordRank = make([]int32, len(s.live))
	}
	var run int32
	for w, word := range s.live {
		s.wordRank[w] = run
		run += int32(bits.OnesCount64(word))
	}
	s.table.Rewrite(func(v int64) int64 {
		if v < 0 {
			return v // an id: only extent starts move
		}
		p := v & posMask
		w := p >> 6
		return v&^posMask | (int64(s.wordRank[w]) + int64(bits.OnesCount64(s.live[w]&(1<<(p&63)-1))))
	})
	n := 0
	for w, word := range s.live {
		for ; word != 0; word &= word - 1 {
			s.pageAt[n] = s.pageAt[w<<6|bits.TrailingZeros64(word)]
			n++
		}
	}
	s.nextPos = n
	s.low = 0
	size := len(s.pageAt)
	for 4*n > size && size < s.maxPositions {
		size = min(2*size, s.maxPositions)
	}
	if size != len(s.pageAt) {
		s.resize(size)
	} else {
		clear(s.live)
	}
	for w := 0; w < n>>6; w++ {
		s.live[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		s.live[n>>6] = 1<<r - 1
	}
	// Rebuild the tree in O(blocks): leaves first, then each node pushes
	// its sum to its parent. Blocks below n's are full and closed; n's
	// block is the open one.
	s.open = n >> blockShift
	for i := 1; i < len(s.blocks); i++ {
		s.blocks[i] = 0
		if i-1 < s.open {
			s.blocks[i] = 1 << blockShift
		}
	}
	s.blocks[0] = 0
	for i := 1; i < len(s.blocks); i++ {
		if j := i + i&-i; j < len(s.blocks) {
			s.blocks[j] += s.blocks[i]
		}
	}
}

// Len returns the number of tracked pages (resident + ghost).
func (s *StackSim) Len() int { return s.count }

// SnapshotPages returns the tracked pages in recency order, least
// recently used first. The result is independent of internal position
// renumbering (compact), so it is a stable serialization of the stack:
// feeding it to RestoreStackSim yields a simulator that reports the same
// depth for every future reference stream as the original.
func (s *StackSim) SnapshotPages() []int64 {
	out := make([]int64, 0, s.count)
	for w, word := range s.live {
		for ; word != 0; word &= word - 1 {
			out = append(out, s.pageAt[w<<6|bits.TrailingZeros64(word)])
		}
	}
	return out
}

// Counters returns the lifetime reference counters: total references and
// cold references. They ride along with SnapshotPages in checkpoints.
func (s *StackSim) Counters() (refs, colds int64) { return s.refs, s.colds }

// RestoreStackSim rebuilds a StackSim from a SnapshotPages/Counters
// checkpoint. Pages must be in LRU-to-MRU order as SnapshotPages emits
// them; excess pages beyond maxTracked are evicted oldest-first, matching
// what a live simulator with the smaller window would have retained.
// Every page comes back as an extent of its own; the first request that
// repeats a range gathers its pages into one extent again.
func RestoreStackSim(maxTracked int, pages []int64, refs, colds int64) *StackSim {
	s := NewStackSim(maxTracked)
	for _, p := range pages {
		s.Reference(p)
	}
	s.refs = refs
	s.colds = colds
	return s
}
