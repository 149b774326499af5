package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// serveRun serves a read of pages first..first+n−1 as the simulator's
// request loops do: one splice when ResidentRun finds the range, page by
// page otherwise. It reports whether the splice served it.
func serveRun(c *PageCache, first, n int64, evicted *[]int64) bool {
	var r Run
	if c.ResidentRun(&r, first, n) {
		c.PromoteRun(&r)
		return true
	}
	servePages(c, first, n, evicted)
	return false
}

// servePages is the per-page twin: Peek, then Promote or Insert, for each
// page in order, recording the pages Insert evicts.
func servePages(c *PageCache, first, n int64, evicted *[]int64) {
	for p := first; p < first+n; p++ {
		if f, ok := c.Peek(p); ok {
			c.Promote(f)
			continue
		}
		if _, ev := c.Insert(p); ev >= 0 {
			*evicted = append(*evicted, ev)
		}
	}
}

// lruOrder returns the resident pages from MRU to LRU.
func lruOrder(c *PageCache) []int64 {
	var out []int64
	for f := c.head; f != nilFrame; f = c.next[f] {
		out = append(out, c.pages[f])
	}
	return out
}

// TestResidentRunMatchesPerPage holds the one-splice hit path to the
// per-page loop it replaces. Two caches of one geometry serve the same
// requests, one through serveRun and one through servePages only. The
// requests repeat, nest in, overlap, extend and shrink earlier ranges,
// run past the capacity, or replay an earlier range a page at a time in
// reverse, which leaves it resident but out of order; between them the
// capacity shrinks and grows and banks are invalidated. After every step
// both caches must agree on every page's frame, the order from MRU to LRU,
// Len and the evicted pages. Where ResidentRun accepts a range, its end
// frames must hold the range's ends, and Banks must list the banks of its
// pages in page order, each stretch of one bank once.
func TestResidentRunMatchesPerPage(t *testing.T) {
	taken, refused := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		totalFrames := int64(8 + rng.Intn(120))
		pagesPerBank := int64(1 + rng.Intn(16))
		space := totalFrames + int64(rng.Intn(3*int(totalFrames)))
		hit, twin := New(totalFrames, pagesPerBank), New(totalFrames, pagesPerBank)
		var hitEv, twinEv []int64
		type span struct{ first, n int64 }
		var past []span
		clamp := func(first, n int64) span {
			first = max(0, min(first, space-1))
			return span{first, max(1, min(n, space-first))}
		}
		for step := 0; step < 400; step++ {
			var s span
			switch r := rng.Intn(20); {
			case r == 0:
				frames := int64(1 + rng.Intn(int(totalFrames)+4))
				if a, b := hit.Resize(frames), twin.Resize(frames); a != b {
					t.Logf("seed %d step %d: Resize evicted %d and %d", seed, step, a, b)
					return false
				}
			case r == 1:
				bank := rng.Intn(hit.Banks())
				if a, b := hit.InvalidateBank(bank), twin.InvalidateBank(bank); a != b {
					t.Logf("seed %d step %d: InvalidateBank dropped %d and %d", seed, step, a, b)
					return false
				}
			case r == 2 && len(past) > 0:
				p := past[rng.Intn(len(past))]
				for q := p.first + p.n - 1; q >= p.first; q-- {
					serveRun(hit, q, 1, &hitEv)
					servePages(twin, q, 1, &twinEv)
				}
			default:
				switch k := rng.Intn(8); {
				case len(past) == 0 || k == 0:
					s = clamp(rng.Int63n(space), 1+rng.Int63n(24))
				case k == 1: // longer than the capacity
					s = clamp(rng.Int63n(space), hit.Capacity()+1+rng.Int63n(8))
				default:
					p := past[rng.Intn(len(past))]
					switch k {
					case 2: // nested
						lo := rng.Int63n(p.n)
						s = clamp(p.first+lo, 1+rng.Int63n(p.n-lo))
					case 3: // overlapping
						s = clamp(p.first+rng.Int63n(2*p.n+1)-p.n, p.n)
					case 4: // extended
						s = clamp(p.first-rng.Int63n(3), p.n+1+rng.Int63n(4))
					default: // repeated
						s = p
					}
				}
				if serveRun(hit, s.first, s.n, &hitEv) {
					taken++
				} else {
					refused++
				}
				servePages(twin, s.first, s.n, &twinEv)
				past = append(past, s)
			}
			if hit.Len() != twin.Len() || !slices.Equal(hitEv, twinEv) || !slices.Equal(lruOrder(hit), lruOrder(twin)) {
				t.Logf("seed %d step %d: Len %d/%d, evicted %v/%v, order %v/%v", seed, step,
					hit.Len(), twin.Len(), hitEv, twinEv, lruOrder(hit), lruOrder(twin))
				return false
			}
			for p := int64(0); p < space; p++ {
				a, aok := hit.Peek(p)
				b, bok := twin.Peek(p)
				if a != b || aok != bok {
					t.Logf("seed %d step %d: page %d in frame %d,%v and %d,%v", seed, step, p, a, aok, b, bok)
					return false
				}
			}
			if s.n == 0 {
				continue
			}
			var r Run
			if hit.ResidentRun(&r, s.first, s.n) {
				var want []int
				for p := s.first; p < s.first+s.n; p++ {
					f, _ := hit.Peek(p)
					if b := hit.BankOf(f); len(want) == 0 || want[len(want)-1] != b {
						want = append(want, b)
					}
				}
				first, _ := hit.Peek(s.first)
				last, _ := hit.Peek(s.first + s.n - 1)
				if int64(r.lru) != first || int64(r.mru) != last || !slices.Equal(r.Banks, want) {
					t.Logf("seed %d step %d: run %v in frames %d..%d, banks %v; pages in frames %d..%d, banks %v",
						seed, step, s, r.lru, r.mru, r.Banks, first, last, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if taken < 1000 || refused < 1000 {
		t.Fatalf("splice served %d requests and refused %d; both paths need exercise", taken, refused)
	}
	t.Logf("splice served %d requests and refused %d", taken, refused)
}

// TestResidentRunRefusesDisorder pins the rule's edges on a hand-built
// list: a range read page by page in order is accepted, one read in
// reverse or with a foreign page between its pages is not, nor is one
// with a page missing.
func TestResidentRunRefusesDisorder(t *testing.T) {
	c := New(16, 4)
	var ev []int64
	var r Run
	servePages(c, 10, 4, &ev) // MRU→LRU: 13 12 11 10
	if !c.ResidentRun(&r, 10, 4) {
		t.Fatal("in-order range refused")
	}
	if !c.ResidentRun(&r, 11, 2) {
		t.Fatal("nested in-order range refused")
	}
	for q := int64(13); q >= 10; q-- {
		servePages(c, q, 1, &ev) // MRU→LRU: 10 11 12 13
	}
	if c.ResidentRun(&r, 10, 4) {
		t.Fatal("reversed range accepted")
	}
	servePages(c, 10, 2, &ev)
	servePages(c, 30, 1, &ev)
	servePages(c, 12, 1, &ev) // MRU→LRU: 12 30 11 10 13
	if c.ResidentRun(&r, 10, 3) {
		t.Fatal("range with a foreign page between its pages accepted")
	}
	if c.ResidentRun(&r, 13, 2) {
		t.Fatal("range with a missing page accepted")
	}
	if !c.ResidentRun(&r, 30, 1) || r.lru != r.mru {
		t.Fatalf("one resident page: ResidentRun refused or found frames %d..%d", r.lru, r.mru)
	}
}

// BenchmarkPageCacheRepeat is the hit path the simulator's request loops
// take for a repeated whole-file read: 4096 eight-page files resident in
// a full cache, read round-robin, so each read finds its run at the LRU
// end, lists its banks and splices it to the MRU end. ci/alloc_budget.txt
// holds it at 0 allocs/op: the check reads the LRU links and reuses the
// bank buffer, and the splice rewrites at most six links.
func BenchmarkPageCacheRepeat(b *testing.B) {
	const files, pages = 4096, 8
	c := New(files*pages, 64)
	var ev []int64
	for f := int64(0); f < files; f++ {
		servePages(c, f*pages, pages, &ev)
	}
	var r Run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.ResidentRun(&r, int64(i%files)*pages, pages) {
			b.Fatal("resident run refused")
		}
		c.PromoteRun(&r)
	}
}
