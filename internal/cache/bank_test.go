package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestBankOfMatchesDivision holds the frame-to-bank map to the division
// it replaces with a shift when a bank holds a power of two frames: for
// every frame of power-of-two and other geometries, BankOf must equal
// frame / pagesPerBank, and the banks ResidentRun lists for a resident
// range must be those of its pages' frames by division. The per-page
// twin in TestResidentRunMatchesPerPage reads banks through the same
// BankOf, so a map that is wrong everywhere alike would pass it.
func TestBankOfMatchesDivision(t *testing.T) {
	for _, g := range []struct{ frames, perBank int64 }{
		{64, 1}, {64, 2}, {100, 4}, {1000, 8}, {4096, 64}, {5000, 1024},
		{63, 3}, {100, 5}, {1000, 6}, {999, 7}, {4097, 12}, {5000, 100},
	} {
		t.Run(fmt.Sprintf("%dx%d", g.frames, g.perBank), func(t *testing.T) {
			c := New(g.frames, g.perBank)
			for f := int64(0); f < g.frames; f++ {
				if got, want := c.BankOf(f), int(f/g.perBank); got != want {
					t.Fatalf("BankOf(%d) = %d, want %d", f, got, want)
				}
			}
			// Fill the cache with one long file, so it is resident in page
			// order, then check ResidentRun's banks over random ranges.
			servePages(c, 0, g.frames, new([]int64))
			rng := rand.New(rand.NewSource(g.frames*31 + g.perBank))
			var r Run
			for i := 0; i < 200; i++ {
				first := rng.Int63n(g.frames)
				n := 1 + rng.Int63n(g.frames-first)
				if !c.ResidentRun(&r, first, n) {
					t.Fatalf("pages %d..%d not found as a resident run", first, first+n-1)
				}
				var want []int
				for p := first; p < first+n; p++ {
					f, _ := c.Peek(p)
					if b := int(f / g.perBank); len(want) == 0 || want[len(want)-1] != b {
						want = append(want, b)
					}
				}
				if !slices.Equal(r.Banks, want) {
					t.Fatalf("pages %d..%d: ResidentRun banks %v, want %v", first, first+n-1, r.Banks, want)
				}
			}
		})
	}
}
