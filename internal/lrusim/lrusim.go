// Package lrusim implements the paper's extended LRU list (Section IV-B):
// an LRU stack that keeps both resident pages and recently replaced
// ("ghost") pages, and reports the LRU stack depth of every reference.
// The depth stream is what lets the joint power manager predict, without
// re-running the workload, how many disk accesses would occur at any
// candidate memory size — a reference at depth d hits in memory iff the
// resident capacity is at least d pages (Mattson's inclusion property).
//
// Every reference takes a fresh, increasing last-access position. A
// reference costs one probe into a page → position table and one rank
// query over a liveness bitset of positions, whose per-block live counts
// sit in a small Fenwick tree. All of it is sized to the pages actually
// tracked rather than to the tracked window, so the bitset and the tree
// stay in cache. A naive O(n) list-walk implementation is included for
// differential testing and for the ablation benchmark.
package lrusim

import (
	"math/bits"

	"jointpm/internal/intmap"
)

// Cold is the depth reported for a page's first reference (or a reference
// to a page already pushed out of the tracked ghost region). Such
// references are compulsory disk accesses at every memory size.
const Cold = -1

const (
	// blockShift sets the liveness block: 512 positions, eight bitset
	// words, one Fenwick leaf. A depth query sums whole blocks in the
	// tree and counts the bits of one block directly.
	blockShift   = 9
	blockWords   = 1 << blockShift / 64
	blockMask    = 1<<blockShift - 1
	minPositions = 1024
	lookAhead    = 16 // records whose page-table slots ReferenceBatch loads at once
)

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
type StackSim struct {
	maxTracked   int // resident + ghost capacity, in pages
	maxPositions int // ceiling of the position space

	posOf    *intmap.Map // page -> position (higher = more recent)
	pageAt   []int64     // position -> page; valid where live is set
	live     []uint64    // liveness bitset over positions
	blocks   []int32     // Fenwick tree (1-based) over closed blocks' live counts
	open     int         // index of the open block
	wordRank []int32     // compaction scratch: live positions below each bitset word
	nextPos  int
	count    int
	low      int   // every position below low is dead
	sink     int64 // keeps ReferenceBatch's look-ahead loads live

	refs  int64 // total references
	colds int64 // cold references
}

// NewStackSim returns a simulator that tracks at most maxTracked pages
// (resident plus ghost). References deeper than that report Cold. Its
// memory grows with the pages it actually tracks, not with maxTracked.
func NewStackSim(maxTracked int) *StackSim {
	if maxTracked <= 0 {
		panic("lrusim: maxTracked must be positive")
	}
	maxPos := (2*maxTracked + blockMask) &^ blockMask
	if maxPos < minPositions {
		maxPos = minPositions
	}
	s := &StackSim{
		maxTracked:   maxTracked,
		maxPositions: maxPos,
		posOf:        intmap.New(0),
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

// Reference records an access to page and returns its LRU stack depth
// before the access (1 = it was the most recently used page). It returns
// Cold for pages not currently tracked. The page becomes the MRU entry.
// page must be ≥ 0.
func (s *StackSim) Reference(page int64) int {
	s.refs++
	if s.nextPos == len(s.pageAt) {
		s.compact()
	}
	pos := s.nextPos
	if pos>>blockShift != s.open {
		s.addBlock(s.open, int32(s.blockCount(s.open)))
		s.open = pos >> blockShift
	}
	depth := Cold
	if prev, ok := s.posOf.Swap(page, int64(pos)); ok {
		old := int(prev)
		depth = s.liveFrom(old, pos)
		s.kill(old)
	} else {
		s.colds++
		s.count++
	}
	s.live[pos>>6] |= 1 << (pos & 63)
	s.pageAt[pos] = page
	s.nextPos++
	if s.count > s.maxTracked {
		s.evictOldest()
	}
	return depth
}

// ReferenceBatch references every record's page in order, filling in its
// Depth exactly as one Reference call per record would. It walks the
// records in groups of lookAhead, first loading the page-table slot of
// every record in the group and then referencing them: the loads are
// independent, so their cache misses overlap instead of each stalling
// its own reference. (A load issued a fixed distance ahead inside the
// loop, as DepthHist.ObserveBatch does, still retires in order and
// stalls the loop where it is issued; on the shard benchmark the group
// form served a block about a fifth faster.)
func (s *StackSim) ReferenceBatch(recs []DepthRecord) {
	sink := s.sink
	for len(recs) > 0 {
		g := recs[:min(lookAhead, len(recs))]
		for i := range g {
			sink |= s.posOf.Touch(g[i].Page)
		}
		for i := range g {
			g[i].Depth = s.Reference(g[i].Page)
		}
		recs = recs[len(g):]
	}
	s.sink = sink
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
// the ghost region): the first live position at or above low.
func (s *StackSim) evictOldest() {
	w := s.low >> 6
	for s.live[w] == 0 {
		w++
	}
	p := w<<6 | bits.TrailingZeros64(s.live[w])
	s.kill(p)
	s.posOf.Delete(s.pageAt[p])
	s.count--
	s.low = p + 1
}

// compact renumbers live pages to positions 0..count-1, preserving
// order, growing the position space first if the tracked set would fill
// more than a quarter of it. Amortised O(1) per reference: it runs once
// the space is exhausted, and leaves at least half of it free.
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
	s.posOf.Rewrite(func(v int64) int64 {
		w := v >> 6
		return int64(s.wordRank[w]) + int64(bits.OnesCount64(s.live[w]&(1<<(v&63)-1)))
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

// Refs returns the total number of references seen.
func (s *StackSim) Refs() int64 { return s.refs }

// Colds returns the number of cold (untracked) references seen.
func (s *StackSim) Colds() int64 { return s.colds }

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
func RestoreStackSim(maxTracked int, pages []int64, refs, colds int64) *StackSim {
	s := NewStackSim(maxTracked)
	for _, p := range pages {
		s.Reference(p)
	}
	s.refs = refs
	s.colds = colds
	return s
}

// DropDeepest removes tracked pages deeper than keep, modelling a memory
// shrink in which both resident and ghost history beyond the new tracked
// window are forgotten. It is not used by the joint manager (which keeps
// the ghost region across resizes precisely so growth can be predicted)
// but supports policies that truly discard state.
func (s *StackSim) DropDeepest(keep int) {
	for s.count > keep {
		s.evictOldest()
	}
}
