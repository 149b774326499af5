package lrusim

import (
	"math"
	"math/rand"
	"testing"

	"jointpm/internal/simtime"
)

// randEvents builds a time-ordered event stream with banks in
// [minBank+1, maxBanks+1] (the cold sentinel included) and occasional
// same-timestamp runs when dedup would be off.
func randEvents(rng *rand.Rand, n, maxBanks, minBank int, dupT bool) []SweepEvent {
	ev := make([]SweepEvent, 0, n)
	t := simtime.Seconds(0)
	for i := 0; i < n; i++ {
		if !dupT || len(ev) == 0 || rng.Intn(4) != 0 {
			t += simtime.Seconds(rng.ExpFloat64() * 0.2)
		}
		bank := int32(minBank + 1 + rng.Intn(maxBanks+1-minBank))
		if dupT {
			if m := len(ev); m > 0 && ev[m-1].T == t {
				// mirror the dedup the histogram applies
				if bank > ev[m-1].Bank {
					ev[m-1].Bank = bank
				}
				continue
			}
		}
		ev = append(ev, SweepEvent{T: t, Bank: bank})
	}
	return ev
}

// randSlate draws an ascending slate of up to kmax unique bank counts —
// kmax > 32 exercises the blocked multi-pass form of the gap kernels.
func randSlate(rng *rand.Rand, maxBanks, kmax int) []int32 {
	k := 1 + rng.Intn(kmax)
	if k > maxBanks {
		k = maxBanks
	}
	seen := map[int]bool{}
	slate := make([]int32, 0, k)
	for len(slate) < k {
		b := 1 + rng.Intn(maxBanks)
		if !seen[b] {
			seen[b] = true
			slate = append(slate, int32(b))
		}
	}
	for i := 1; i < len(slate); i++ {
		for j := i; j > 0 && slate[j] < slate[j-1]; j-- {
			slate[j], slate[j-1] = slate[j-1], slate[j]
		}
	}
	return slate
}

// randLightEvents builds a dedup-free event stream shaped like a light
// period over many installed banks: half the events fall in the first
// eighth of the banks, an eighth are cold (the sentinel maxBanks+1), and
// the rest anywhere on the bank axis.
func randLightEvents(rng *rand.Rand, n, maxBanks int) []SweepEvent {
	ev := make([]SweepEvent, 0, n)
	t := simtime.Seconds(0)
	for i := 0; i < n; i++ {
		t += simtime.Seconds(rng.ExpFloat64() * 0.2)
		var bank int
		switch r := rng.Intn(8); {
		case r < 4:
			bank = 1 + rng.Intn(maxBanks/8)
		case r == 4:
			bank = maxBanks + 1
		default:
			bank = 1 + rng.Intn(maxBanks)
		}
		ev = append(ev, SweepEvent{T: t, Bank: int32(bank)})
	}
	return ev
}

// sweepShape is one randomized SweepGaps input: an event stream, its
// bank-space gap log, and the slates to price from it.
type sweepShape struct {
	maxBanks   int
	window     simtime.Seconds
	start, end simtime.Seconds
	ev         []SweepEvent
	gaps       []Emission
	slates     [][]int32
}

// randSweepShapes draws n shapes. The first kind spans a few dozen banks
// with slates anywhere on the axis, up to 80 wide so the blocked kernel
// form runs. The second, every third shape, spans up to 4,096 banks with
// slates drawn from the first eighth, as a light period's search prices
// them: most emissions then reach past the slate's largest candidate,
// where the bound table stops.
func randSweepShapes(rng *rand.Rand, gs *GapStream, n int) []sweepShape {
	var shapes []sweepShape
	for trial := 0; trial < n; trial++ {
		var sh sweepShape
		sh.start, sh.end = -1, -1
		if trial%4 != 1 {
			sh.start, sh.end = 0, 600
		}
		light := trial%3 == 2
		if light {
			sh.maxBanks = 64 + rng.Intn(4096-63)
			sh.window = simtime.Seconds(rng.Float64() * 0.4)
			sh.ev = randLightEvents(rng, rng.Intn(600), sh.maxBanks)
		} else {
			sh.maxBanks = 4 + rng.Intn(60)
			dupT := trial%3 == 0
			if !dupT {
				sh.window = simtime.Seconds(rng.Float64() * 0.4)
			}
			sh.ev = randEvents(rng, rng.Intn(400), sh.maxBanks, 0, dupT)
		}
		sh.gaps = append([]Emission(nil), BuildGapLog(gs, sh.ev, sh.maxBanks, sh.window, sh.start, sh.end)...)
		for pass := 0; pass < 3; pass++ {
			kmax := 32
			if pass == 2 {
				kmax = 80 // wide slates take the blocked kernel form
			}
			span := sh.maxBanks
			if light {
				span = sh.maxBanks / 8
			}
			sh.slates = append(sh.slates, randSlate(rng, span, kmax))
		}
		shapes = append(shapes, sh)
	}
	return shapes
}

// sameStats fails the test unless a and b hold bit-identical Cnt, Sum and
// Min for a k-candidate slate.
func sameStats(t *testing.T, what string, trial int, slate []int32, a, b *EventSweeper) {
	t.Helper()
	for i := range slate {
		if a.Cnt[i] != b.Cnt[i] ||
			math.Float64bits(a.Sum[i]) != math.Float64bits(b.Sum[i]) ||
			math.Float64bits(a.Min[i]) != math.Float64bits(b.Min[i]) {
			t.Fatalf("trial %d slate[%d]=%d: %s (%d, %v, %v) vs (%d, %v, %v)",
				trial, i, slate[i], what, a.Cnt[i], a.Sum[i], a.Min[i],
				b.Cnt[i], b.Sum[i], b.Min[i])
		}
	}
}

// sameTails runs two to four TailStats calls on a and b, each with fresh
// timeouts, as the manager's refinement passes do after one sweep, and
// fails the test unless every call agrees bit for bit.
func sameTails(t *testing.T, what string, trial int, rng *rand.Rand, k int, a, b *EventSweeper) {
	t.Helper()
	kk := (k + 31) &^ 31
	to := make([]float64, k, kk)
	ts1 := make([]float64, k, kk)
	h1 := make([]int64, k, kk)
	ts2 := make([]float64, k, kk)
	h2 := make([]int64, k, kk)
	for call, calls := 0, 2+rng.Intn(3); call < calls; call++ {
		for i := range to {
			to[i] = rng.Float64() * 0.5
			if rng.Intn(8) == 0 {
				to[i] = math.Inf(1)
			}
			ts1[i], h1[i], ts2[i], h2[i] = 0, 0, 0, 0
		}
		a.TailStats(to, ts1, h1)
		b.TailStats(to, ts2, h2)
		for i := 0; i < k; i++ {
			if math.Float64bits(ts1[i]) != math.Float64bits(ts2[i]) || h1[i] != h2[i] {
				t.Fatalf("trial %d call %d tail[%d]: %s (%v, %d) vs (%v, %d)",
					trial, call, i, what, ts1[i], h1[i], ts2[i], h2[i])
			}
		}
	}
}

// TestSweepGapsMatchesSweep is the kernel-level half of the
// incremental/batch equivalence: pricing a slate from the bank-space gap
// log (GapStream + remapped fold, the incremental decide path) must be
// bit-identical — Cnt, Sum, Min, and every TailStats pass after it — to a
// dedicated slate sweep of the same events. Exercised across window/bound
// configurations, including window 0 (zero-length gaps emitted), missing
// period bounds, and slates confined to the shallow end of thousands of
// banks.
func TestSweepGapsMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var gs GapStream
	var ref, got EventSweeper
	for trial, sh := range randSweepShapes(rng, &gs, 240) {
		for _, slate := range sh.slates {
			ref.Sweep(sh.ev, slate, int32(sh.maxBanks), sh.window, sh.start, sh.end)
			got.SweepGaps(sh.gaps, slate)
			sameStats(t, "sweep vs gaps", trial, slate, &ref, &got)
			sameTails(t, "sweep vs gaps", trial, rng, len(slate), &ref, &got)
		}
	}
}

// TestGapStreamIncrementalMatchesBatch checks that feeding events one at
// a time (with the straggler finishing late, as DepthHist does) yields
// the same log as the one-shot BuildGapLog, and that Finish is idempotent.
func TestGapStreamIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var batch, inc GapStream
	for trial := 0; trial < 100; trial++ {
		maxBanks := 4 + rng.Intn(40)
		window := simtime.Seconds(rng.Float64() * 0.3)
		ev := randEvents(rng, rng.Intn(300), maxBanks, 0, true)
		start, end := simtime.Seconds(0), simtime.Seconds(500)
		want := BuildGapLog(&batch, ev, maxBanks, window, start, end)

		inc.Reset(window, maxBanks)
		for i := range ev {
			inc.Feed(ev[i])
		}
		got := inc.Finish(start, end)
		compareLogs(t, trial, want, got)
		got = inc.Finish(start, end) // idempotent
		compareLogs(t, trial, want, got)
	}
}

func compareLogs(t *testing.T, trial int, want, got []Emission) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("trial %d: log length %d vs %d", trial, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i].Gap) != math.Float64bits(got[i].Gap) ||
			want[i].Lo != got[i].Lo || want[i].Hi != got[i].Hi {
			t.Fatalf("trial %d emission %d: %+v vs %+v", trial, i, want[i], got[i])
		}
	}
}

// TestSweepGapsGenericMatchesAsm pins the asm gap kernels to the generic
// slate-space fold bit for bit, on the same inputs.
func TestSweepGapsGenericMatchesAsm(t *testing.T) {
	if !gapAsm {
		t.Skip("no AVX512 gap kernels on this machine")
	}
	defer func() { gapAsmEnabled(true) }()
	rng := rand.New(rand.NewSource(13))
	var gs GapStream
	var asmS, genS EventSweeper
	for trial, sh := range randSweepShapes(rng, &gs, 180) {
		for _, slate := range sh.slates {
			gapAsmEnabled(true)
			asmS.SweepGaps(sh.gaps, slate)
			gapAsmEnabled(false)
			genS.SweepGaps(sh.gaps, slate)
			sameStats(t, "asm vs generic", trial, slate, &asmS, &genS)
			sameTails(t, "asm vs generic", trial, rng, len(slate), &asmS, &genS)
		}
	}
}
