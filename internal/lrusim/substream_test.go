package lrusim

import (
	"math/rand"
	"slices"
	"testing"

	"jointpm/internal/simtime"
)

// TestPerDiskHistMatchesReplay: a DepthHist fed only one disk's depth
// runs must give, at every threshold 0..maxBanks, the idle intervals
// (values and order, through AppendGapsAt) and the disk-access count
// (Misses) that the per-size replay computes from that disk's per-page
// records, period after period across Reset. Two setups: every disk's
// requests run through one shared stack and each histogram sees a
// disjoint sub-stream of it (multidisk's Joint method), or each disk has
// a private stack (Partitioned, here with a window past the installed
// banks so depths reach the deep bucket too). Periods are [t−P, t) for
// boundaries t = P, 2P, …, the bounds multidisk passes; a period may
// open with a request at its start, and one period has no request.
func TestPerDiskHistMatchesReplay(t *testing.T) {
	const (
		bankPages = 4
		maxBanks  = 8
		disks     = 3
		period    = simtime.Seconds(10)
		periods   = 6
		empty     = 3 // the period with no request
		pageBytes = simtime.Bytes(3)
	)
	for _, window := range []simtime.Seconds{0, 0.5} {
		for _, shared := range []bool{true, false} {
			var gaps, misses, multi int
			for seed := int64(1); seed <= 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := newRangeTraffic(rng, 6+rng.Intn(12))
				stacks := make([]*StackSim, disks)
				hists := make([]*DepthHist, disks)
				recs := make([][]DepthRecord, disks)
				for d := range hists {
					switch {
					case !shared:
						stacks[d] = NewStackSim((maxBanks + 2) * bankPages)
					case d == 0:
						stacks[d] = NewStackSim(maxBanks * bankPages)
					default:
						stacks[d] = stacks[0]
					}
					hists[d] = NewDepthHist(bankPages, maxBanks, 0, window)
				}
				var runs []DepthRun
				for p := 0; p < periods; p++ {
					start := simtime.Seconds(p) * period
					end := start + period
					tm := start
					if rng.Intn(2) == 0 {
						tm += simtime.Seconds(rng.Float64())
					}
					for p != empty && tm < end {
						first, n := g.next()
						d := rng.Intn(disks)
						runs = stacks[d].ReferenceRange(runs[:0], tm, first, n)
						hists[d].ObserveRuns(runs, pageBytes)
						k := len(recs[d])
						recs[d] = AppendRecords(recs[d], runs, pageBytes)
						multi += len(recs[d]) - k - len(runs)
						if rng.Intn(3) > 0 { // else the next request shares tm
							tm += simtime.Seconds(rng.ExpFloat64() * 0.4)
						}
					}
					for d, h := range hists {
						log := h.FinishGaps(start, end)
						for b := 0; b <= maxBanks; b++ {
							want, nd := BoundedIdleIntervals(recs[d], int64(b)*bankPages, window, start, end)
							got := AppendGapsAt(nil, log, int32(b))
							if !slices.Equal(got, want) {
								t.Fatalf("window %v shared %v seed %d period %d disk %d threshold %d: gaps %v, replay %v",
									window, shared, seed, p, d, b, got, want)
							}
							if m := h.Misses(b); m != nd {
								t.Fatalf("window %v shared %v seed %d period %d disk %d threshold %d: %d misses, replay %d",
									window, shared, seed, p, d, b, m, nd)
							}
							gaps += len(got)
							misses += int(nd)
						}
						h.Reset()
						recs[d] = recs[d][:0]
					}
				}
			}
			if gaps == 0 || misses == 0 || multi == 0 {
				t.Errorf("window %v shared %v: %d gaps, %d misses, %d extra pages in multi-page runs; want all > 0",
					window, shared, gaps, misses, multi)
			}
		}
	}
}
