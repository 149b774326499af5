// Package cache simulates the operating system's disk cache (page cache):
// an LRU-managed set of page frames in front of the disk, the component
// labelled "disk cache" in Fig. 6 of the paper. It supports the three
// operations the power-management policies need beyond plain lookup:
//
//   - live resizing (the joint method changes the cache capacity every
//     period; shrinking evicts the LRU tail, preserving the inclusion
//     property the stack-based predictor relies on);
//   - bank-granularity invalidation (the "timeout disable" memory policy
//     turns off idle banks, losing their contents);
//   - frame→bank mapping so the memory power model can meter per-bank
//     idleness.
//
// Frames are allocated lowest-first so occupancy stays packed into
// low-numbered banks, which keeps "enabled banks = ceil(capacity/bank)"
// an accurate power accounting for resizing policies.
//
// The implementation is flat-array based: residency is an open-addressed
// page→frame table (internal/intmap), the LRU list is a pair of
// frame-indexed prev/next arrays, and free frames sit in a bitmap tree
// whose lowest set bit is the next frame to fill — no per-page heap
// allocation on the per-access path, and allocating or freeing a frame
// costs at most one word per tree level (⌈log64 frames⌉ ≤ 6), however
// many frames are installed or free.
package cache

import (
	"math"
	"math/bits"

	"jointpm/internal/intmap"
)

// MaxFrames is the largest installed frame count New accepts: frame
// indices are int32. Callers that size a cache from configuration check
// against it and report an error instead of reaching New's panic.
const MaxFrames = 1<<31 - 1

// nilFrame terminates the LRU list and marks free frames in the
// frame-indexed arrays.
const nilFrame = -1

// PageCache is a frame-based LRU page cache.
type PageCache struct {
	totalFrames  int64
	capacity     int64 // usable frames (≤ totalFrames)
	pagesPerBank int64
	bankShift    int // log2(pagesPerBank) when it is a power of two, else -1

	table *intmap.Map // page -> frame
	pages []int64     // frame -> resident page, nilFrame when free
	prev  []int32     // frame -> more-recently-used neighbour
	next  []int32     // frame -> less-recently-used neighbour
	free  freeSet     // free frame indices
	head  int32       // MRU frame
	tail  int32       // LRU frame
	count int64
}

// New creates a cache with totalFrames frames grouped into banks of
// pagesPerBank frames. The initial capacity is all frames.
func New(totalFrames, pagesPerBank int64) *PageCache {
	if totalFrames <= 0 || pagesPerBank <= 0 {
		panic("cache: sizes must be positive")
	}
	if totalFrames > MaxFrames {
		panic("cache: frame count exceeds int32 frame index range")
	}
	c := &PageCache{
		totalFrames:  totalFrames,
		capacity:     totalFrames,
		pagesPerBank: pagesPerBank,
		bankShift:    -1,
		table:        intmap.New(1024),
		pages:        make([]int64, totalFrames),
		prev:         make([]int32, totalFrames),
		next:         make([]int32, totalFrames),
		free:         newFreeSet(totalFrames),
		head:         nilFrame,
		tail:         nilFrame,
	}
	if pagesPerBank&(pagesPerBank-1) == 0 {
		c.bankShift = bits.Len64(uint64(pagesPerBank)) - 1
	}
	for f := range c.pages {
		c.pages[f] = nilFrame
	}
	return c
}

// Len returns the number of resident pages.
func (c *PageCache) Len() int64 { return c.count }

// Capacity returns the current usable frame count.
func (c *PageCache) Capacity() int64 { return c.capacity }

// TotalFrames returns the installed frame count.
func (c *PageCache) TotalFrames() int64 { return c.totalFrames }

// PagesPerBank returns the bank granularity in frames.
func (c *PageCache) PagesPerBank() int64 { return c.pagesPerBank }

// Banks returns the number of banks covering all installed frames.
func (c *PageCache) Banks() int {
	return int((c.totalFrames + c.pagesPerBank - 1) / c.pagesPerBank)
}

// BankOf returns the bank containing the given frame.
func (c *PageCache) BankOf(frame int64) int { return int(c.bankOf(frame)) }

// bankOf maps a frame to its bank: a shift when a bank holds a power of
// two frames, a division otherwise.
func (c *PageCache) bankOf(frame int64) int64 {
	if c.bankShift >= 0 {
		return frame >> uint(c.bankShift)
	}
	return frame / c.pagesPerBank
}

// Lookup reports whether page is resident. On a hit the page becomes MRU
// and its frame is returned.
func (c *PageCache) Lookup(page int64) (frame int64, hit bool) {
	f, ok := c.table.Get(page)
	if !ok {
		return 0, false
	}
	c.moveToFront(int32(f))
	return f, true
}

// Peek reports residency and the frame without touching LRU order.
func (c *PageCache) Peek(page int64) (frame int64, hit bool) {
	f, ok := c.table.Get(page)
	if !ok {
		return 0, false
	}
	return f, true
}

// Promote makes the page resident in frame, as Peek returned it, the MRU
// entry: Lookup's LRU touch without probing the page table again.
func (c *PageCache) Promote(frame int64) { c.moveToFront(int32(frame)) }

// Run is a resident page range as ResidentRun finds it: its pages' banks
// and its end frames. A caller keeps one and reuses its Banks buffer.
type Run struct {
	// Banks lists the banks of the range's pages in page order, leaving
	// out a bank equal to the previous page's: the banks a per-page loop
	// over the range touches, less its repeats of the bank it just
	// touched.
	Banks    []int
	lru, mru int32 // the frames holding the first and the last page
}

// ResidentRun reports whether pages first..first+n−1 are all resident and
// hold n consecutive LRU positions with first least recent, page first+i
// i positions more recent than first. That is the order n Promote calls
// in page order leave a range in, so a repeated read of a whole file
// finds it. When they do, it fills r for PromoteRun. It costs one
// page-table probe and a walk along the LRU links, and changes nothing in
// the cache, so a caller may still decline and serve the range page by
// page.
func (c *PageCache) ResidentRun(r *Run, first, n int64) bool {
	f, ok := c.table.Get(first)
	if !ok {
		return false
	}
	b := c.bankOf(f)
	lo, hi := b*c.pagesPerBank, (b+1)*c.pagesPerBank // the frames of bank b
	r.Banks = append(r.Banks[:0], int(b))
	fr := int32(f)
	for page := first + 1; page < first+n; page++ {
		if fr = c.prev[fr]; fr == nilFrame || c.pages[fr] != page {
			return false
		}
		if g := int64(fr); g < lo || g >= hi {
			b = c.bankOf(g)
			lo, hi = b*c.pagesPerBank, (b+1)*c.pagesPerBank
			r.Banks = append(r.Banks, int(b))
		}
	}
	r.lru, r.mru = int32(f), fr
	return true
}

// PromoteRun moves the run ResidentRun found to the MRU end in one
// splice. The list it leaves is the one n Promote calls in page order
// leave, since the run already holds its pages in that order; no page
// changes frame and nothing is evicted.
func (c *PageCache) PromoteRun(r *Run) {
	lo, hi := r.lru, r.mru
	if c.head == hi {
		return
	}
	p, n := c.prev[hi], c.next[lo] // p exists: hi is not the head
	c.next[p] = n
	if n != nilFrame {
		c.prev[n] = p
	} else {
		c.tail = p
	}
	c.prev[hi] = nilFrame
	c.next[lo] = c.head
	c.prev[c.head] = lo
	c.head = hi
}

// Insert makes page resident (it must not already be resident), evicting
// the LRU page if the cache is full. It returns the frame assigned and
// the evicted page (or -1 if none).
func (c *PageCache) Insert(page int64) (frame int64, evicted int64) {
	evicted = -1
	if c.count >= c.capacity {
		// A resident page either is the LRU tail, which the eviction
		// would drop, or is found by the table insert below.
		if c.pages[c.tail] == page {
			panic("cache: Insert of resident page")
		}
		evicted = c.evictLRU()
	}
	f := c.free.pop()
	if _, found := c.table.Swap(page, int64(f)); found {
		panic("cache: Insert of resident page")
	}
	c.pages[f] = page
	c.pushFront(f)
	c.count++
	return int64(f), evicted
}

// Resize sets the usable capacity in frames, clamped to the installed
// total. Shrinking evicts LRU pages until the count fits; growth takes
// effect immediately. Returns the number of pages evicted.
func (c *PageCache) Resize(frames int64) int64 {
	if frames < 1 {
		frames = 1
	}
	if frames > c.totalFrames {
		frames = c.totalFrames
	}
	c.capacity = frames
	var n int64
	for c.count > c.capacity {
		c.evictLRU()
		n++
	}
	return n
}

// InvalidateBank removes every resident page whose frame lies in the
// given bank, returning how many pages were dropped. Used by the
// timeout-disable memory policy, where a bank losing power loses data.
func (c *PageCache) InvalidateBank(bank int) int64 {
	lo := int64(bank) * c.pagesPerBank
	hi := lo + c.pagesPerBank
	if hi > c.totalFrames {
		hi = c.totalFrames
	}
	var n int64
	for f := lo; f < hi; f++ {
		if c.pages[f] != nilFrame {
			c.remove(int32(f))
			n++
		}
	}
	return n
}

// BankOccupancy returns the number of resident pages in the given bank.
func (c *PageCache) BankOccupancy(bank int) int64 {
	lo := int64(bank) * c.pagesPerBank
	hi := lo + c.pagesPerBank
	if hi > c.totalFrames {
		hi = c.totalFrames
	}
	var n int64
	for f := lo; f < hi; f++ {
		if c.pages[f] != nilFrame {
			n++
		}
	}
	return n
}

func (c *PageCache) evictLRU() int64 {
	f := c.tail
	if f == nilFrame {
		return -1
	}
	page := c.pages[f]
	c.remove(f)
	return page
}

func (c *PageCache) remove(f int32) {
	c.unlink(f)
	c.table.Delete(c.pages[f])
	c.pages[f] = nilFrame
	c.free.push(f)
	c.count--
}

func (c *PageCache) pushFront(f int32) {
	c.prev[f] = nilFrame
	c.next[f] = c.head
	if c.head != nilFrame {
		c.prev[c.head] = f
	}
	c.head = f
	if c.tail == nilFrame {
		c.tail = f
	}
}

func (c *PageCache) unlink(f int32) {
	if p := c.prev[f]; p != nilFrame {
		c.next[p] = c.next[f]
	} else {
		c.head = c.next[f]
	}
	if n := c.next[f]; n != nilFrame {
		c.prev[n] = c.prev[f]
	} else {
		c.tail = c.prev[f]
	}
}

func (c *PageCache) moveToFront(f int32) {
	if c.head == f {
		return
	}
	c.unlink(f)
	c.pushFront(f)
}

// freeSet is the set of free frames as a bitmap tree: levels[0] holds
// one bit per frame, set while the frame is free, and each level above
// holds one bit per word of the level below, set while that word is
// nonzero, up to a single root word. The lowest free frame is kept in
// min, so pop hands it out at once — lowest-first is what keeps
// occupancy packed into low-numbered banks — and then finds the next
// one by climbing only until a word stays nonzero and descending along
// lowest set bits; push climbs only while a word turns nonzero.
type freeSet struct {
	levels [][]uint64
	min    int32 // lowest free frame; math.MaxInt32 while the set is empty
}

// newFreeSet returns a set holding every frame in [0, n).
func newFreeSet(n int64) freeSet {
	var s freeSet
	for size := n; ; {
		words := (size + 63) >> 6
		lv := make([]uint64, words)
		for i := range lv {
			lv[i] = ^uint64(0)
		}
		if r := size & 63; r != 0 {
			lv[words-1] = 1<<r - 1
		}
		s.levels = append(s.levels, lv)
		if words == 1 {
			return s
		}
		size = words
	}
}

// push marks frame f free.
func (s *freeSet) push(f int32) {
	if f < s.min {
		s.min = f
	}
	i := uint(f)
	for _, lv := range s.levels {
		w := lv[i>>6]
		lv[i>>6] = w | 1<<(i&63)
		if w != 0 {
			return
		}
		i >>= 6
	}
}

// pop removes and returns the lowest free frame; the set must not be
// empty.
func (s *freeSet) pop() int32 {
	f := s.min
	i := uint(f)
	for k, lv := range s.levels {
		w := lv[i>>6] &^ (1 << (i & 63))
		lv[i>>6] = w
		if w == 0 {
			i >>= 6
			continue
		}
		// Every bit left in this word lies above bit i, since f was the
		// lowest free frame, so the next lowest free frame is the one
		// reached by descending from this word's lowest set bit.
		for i >>= 6; k >= 0; k-- {
			i = i<<6 | uint(bits.TrailingZeros64(s.levels[k][i]))
		}
		s.min = int32(i)
		return f
	}
	s.min = math.MaxInt32
	return f
}
