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
// frame-indexed prev/next arrays, and free frames sit in an inline int32
// min-heap — no per-page heap allocation and no container/heap boxing on
// the per-access path.
package cache

import "jointpm/internal/intmap"

// nilFrame terminates the LRU list and marks free frames in the
// frame-indexed arrays.
const nilFrame = -1

// PageCache is a frame-based LRU page cache.
type PageCache struct {
	totalFrames  int64
	capacity     int64 // usable frames (≤ totalFrames)
	pagesPerBank int64

	table *intmap.Map // page -> frame
	pages []int64     // frame -> resident page, nilFrame when free
	prev  []int32     // frame -> more-recently-used neighbour
	next  []int32     // frame -> less-recently-used neighbour
	free  frameHeap   // free frame indices, min-heap
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
	if totalFrames >= 1<<31 {
		panic("cache: frame count exceeds int32 frame index range")
	}
	c := &PageCache{
		totalFrames:  totalFrames,
		capacity:     totalFrames,
		pagesPerBank: pagesPerBank,
		table:        intmap.New(1024),
		pages:        make([]int64, totalFrames),
		prev:         make([]int32, totalFrames),
		next:         make([]int32, totalFrames),
		free:         make(frameHeap, totalFrames),
		head:         nilFrame,
		tail:         nilFrame,
	}
	for f := int64(0); f < totalFrames; f++ {
		c.pages[f] = nilFrame
		c.free[f] = int32(f) // ascending order is already a valid min-heap
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
func (c *PageCache) BankOf(frame int64) int { return int(frame / c.pagesPerBank) }

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

// frameHeap is an inline min-heap of free frame indices; pop always
// returns the lowest free frame, which is what keeps occupancy packed
// into low-numbered banks.
type frameHeap []int32

func (h *frameHeap) push(f int32) {
	s := append(*h, f)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

func (h *frameHeap) pop() int32 {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s[r] < s[l] {
			min = r
		}
		if s[i] <= s[min] {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}
