package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// frameHeap is the free-frame store the bitmap tree replaced: an inline
// int32 min-heap whose pop returns the lowest free frame. It stays here
// as the oracle the free set is checked against.
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

// newFrameHeap returns a heap holding every frame in [0, n), as New
// built it.
func newFrameHeap(n int64) frameHeap {
	h := make(frameHeap, n)
	for f := range h {
		h[f] = int32(f) // ascending order is already a valid min-heap
	}
	return h
}

// freeSetSizes straddle every level boundary of the bitmap tree: one
// word, one word plus a bit, a full second level, and three and four
// levels with partial last words.
var freeSetSizes = []int64{1, 63, 64, 65, 4095, 4096, 4097, 262145, 1<<20 + 3}

// TestFreeSetMatchesHeap drives the free set and the retired heap
// through the same random push/pop sequence and requires the same frame
// from every pop.
func TestFreeSetMatchesHeap(t *testing.T) {
	for _, n := range freeSetSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(n))
			set, heap := newFreeSet(n), newFrameHeap(n)
			var used []int32 // frames popped and not yet pushed back
			for op := 0; op < 20000; op++ {
				if len(heap) > 0 && (len(used) == 0 || rng.Intn(3) > 0) {
					got, want := set.pop(), heap.pop()
					if got != want {
						t.Fatalf("op %d: pop = %d, heap pops %d", op, got, want)
					}
					used = append(used, got)
					continue
				}
				k := rng.Intn(len(used))
				f := used[k]
				used[k] = used[len(used)-1]
				used = used[:len(used)-1]
				set.push(f)
				heap.push(f)
			}
			// Drain: both yield the remaining frames in ascending order.
			for prev := int32(-1); len(heap) > 0; {
				got, want := set.pop(), heap.pop()
				if got != want || got <= prev {
					t.Fatalf("drain: pop = %d, heap pops %d after %d", got, want, prev)
				}
				prev = got
			}
			// Refill the emptied set out of order and drain it again.
			refill := map[int64]bool{n - 1: true, n / 2: true, 0: true, n / 3: true}
			for f := range refill {
				set.push(int32(f))
				heap.push(int32(f))
			}
			for len(heap) > 0 {
				if got, want := set.pop(), heap.pop(); got != want {
					t.Fatalf("refill: pop = %d, heap pops %d", got, want)
				}
			}
		})
	}
}

// TestInsertFramesMatchHeapOracle plays random Insert, Lookup, Resize
// (shrink and grow) and InvalidateBank sequences through a PageCache
// while a frameHeap tracks the frames the cache frees, and requires every
// Insert to land in the frame the heap would have handed out. Installed
// frames far exceed the capacity, so the free set spans several levels.
func TestInsertFramesMatchHeapOracle(t *testing.T) {
	for _, n := range []int64{64, 4097, 262145} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			const pagesPerBank, maxCap, pageSpace = 16, 600, 2000
			rng := rand.New(rand.NewSource(n))
			c := New(n, pagesPerBank)
			heap := newFrameHeap(n)
			resident := map[int64]int64{} // page -> frame
			free := func(page int64) {
				heap.push(int32(resident[page]))
				delete(resident, page)
			}
			for op := 0; op < 30000; op++ {
				switch r := rng.Intn(20); {
				case r == 0: // resize, shrinking or growing
					c.Resize(1 + rng.Int63n(min(n, maxCap)))
					for page := range resident {
						if _, hit := c.Peek(page); !hit {
							free(page)
						}
					}
				case r == 1: // invalidate a bank
					bank := rng.Intn(c.Banks())
					c.InvalidateBank(bank)
					for page, frame := range resident {
						if c.BankOf(frame) == bank {
							free(page)
						}
					}
				case r < 6:
					c.Lookup(rng.Int63n(pageSpace))
				default:
					page := rng.Int63n(pageSpace)
					if _, ok := resident[page]; ok {
						continue
					}
					full := c.Len() >= c.Capacity()
					frame, evicted := c.Insert(page)
					if full {
						free(evicted)
					}
					if want := int64(heap.pop()); frame != want {
						t.Fatalf("op %d: Insert(%d) got frame %d, heap oracle %d", op, page, frame, want)
					}
					resident[page] = frame
				}
				if c.Len() != int64(len(resident)) {
					t.Fatalf("op %d: Len = %d, oracle holds %d", op, c.Len(), len(resident))
				}
			}
		})
	}
}

// BenchmarkPageCacheChurn is the miss path of a full cache: each Insert
// evicts the LRU page and refills its frame. The capacity is fixed at
// 4096 frames while the installed frames vary (those past the capacity
// stay free), so the cost of finding the lowest free frame is what
// differs between the two cases.
func BenchmarkPageCacheChurn(b *testing.B) {
	const capacity = 1 << 12
	for _, installed := range []int64{1 << 12, 1 << 20} {
		b.Run(fmt.Sprintf("installed=%d", installed), func(b *testing.B) {
			c := New(installed, 64)
			c.Resize(capacity)
			page := int64(0)
			for ; page < capacity; page++ {
				c.Insert(page)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Insert(page)
				page++
			}
		})
	}
}
