package lrusim

import (
	"errors"
	"fmt"
	"math"

	"jointpm/internal/simtime"
)

// GapStream maintains the slate-independent form of the idle-interval
// sweep incrementally, one event at a time. Where a direct slate sweep
// (the test oracle's EventSweeper.Sweep) reconstructs intervals for one
// candidate slate, GapStream runs the same
// segment-stack algorithm over the full threshold axis 0..maxBanks — each
// emission's [Lo, Hi) is a range of bank thresholds, not slate indices —
// so the resulting gap log prices EVERY slate: a candidate of B banks is
// covered by exactly the emissions with Lo ≤ B < Hi, and its covered
// gaps, in log order, are bit-identical in value and order to the
// interval stream a sequential replay (or a slate sweep) would produce
// for it. That holds because a threshold's idle intervals depend only on
// the events deeper than the threshold itself, never on which other
// thresholds share the slate.
//
// Two boundary conditions are only known at decision time and are
// resolved by Finish:
//
//   - the period-start seed: gaps that begin at the period start are
//     appended as placeholders during feeding (their closing time
//     recorded) and rewritten once the start is known. There is at most
//     one such gap per threshold — they appear only while the running
//     maximum miss bound is still growing — so the fix-up list stays
//     tiny;
//   - the period-end phase: one trailing gap per live segment, appended
//     after the last event.
//
// Finish is idempotent for a fixed (start, end), so a decision pass may
// materialise the log more than once. Reset starts the next period,
// keeping buffer capacity.
type GapStream struct {
	window   simtime.Seconds
	maxBound int32 // threshold count: maxBanks+1 (thresholds 0..maxBanks)

	segT  []simtime.Seconds
	segHi []int32
	emits []Emission
	seeds []SeedFix

	base     int // event-phase log length, set by the first Finish
	finished bool
}

// SeedFix records the placeholder emission at Idx, whose gap over the
// thresholds [Lo, Hi) starts at the (not yet known) period start and
// closes at T.
type SeedFix struct {
	Idx    int32
	Lo, Hi int32
	T      simtime.Seconds
}

// gapSentinel marks the period-start seed segment on the stack. It
// compares above every real miss bound, so the seed is never popped; the
// end phase clamps it to the threshold count.
const gapSentinel = math.MaxInt32

// Reset starts a new period for a geometry of maxBanks installed banks
// and the given aggregation window, retaining buffer capacity.
func (g *GapStream) Reset(window simtime.Seconds, maxBanks int) {
	g.window = window
	g.maxBound = int32(maxBanks) + 1
	g.segT = append(g.segT[:0], 0)
	g.segHi = append(g.segHi[:0], gapSentinel)
	g.emits = g.emits[:0]
	g.seeds = g.seeds[:0]
	g.base = 0
	g.finished = false
}

// Feed folds one finalized event into the sweep. Events must arrive in
// time order and already deduplicated (see DepthHist.push) — feeding must
// mirror the event stream the batch oracle builds, so the logs agree
// structurally, not just per candidate.
func (g *GapStream) Feed(e SweepEvent) {
	one := [1]SweepEvent{e}
	g.FeedBatch(one[:]) // FeedBatch only reads evs, so the array stays on the stack
}

// FeedBatch folds a time-ordered block of finalized events, hoisting the
// stream's field loads out of the per-event loop: the segment stack,
// emission log, and window bound live in registers/locals for the whole
// block. The per-event algorithm is identical to feeding the events one
// at a time, so the resulting state is too.
func (g *GapStream) FeedBatch(evs []SweepEvent) {
	segT, segHi := g.segT, g.segHi
	emits, seeds := g.emits, g.seeds
	window := g.window
	for i := range evs {
		// The event's miss bound on the full threshold axis: a reference
		// at bank depth b is a disk access for every threshold below b,
		// and the thresholds are 0..maxBanks, so the bound is b itself.
		bound := evs[i].Bank
		t := evs[i].T
		low := int32(0)
		n := len(segHi)
		for segHi[n-1] <= bound {
			hi := segHi[n-1]
			if gap := t - segT[n-1]; gap >= window {
				emits = append(emits, Emission{Gap: float64(gap), Lo: low, Hi: hi})
			}
			low = hi
			n--
		}
		if low < bound {
			if segHi[n-1] == gapSentinel {
				// The covered prefix [low, bound) has seen no event yet
				// this period: its gap starts at the period start. Log a
				// placeholder now to keep the position, resolve in Finish.
				emits = append(emits, Emission{})
				seeds = append(seeds, SeedFix{Idx: int32(len(emits) - 1), Lo: low, Hi: bound, T: t})
			} else if gap := t - segT[n-1]; gap >= window {
				emits = append(emits, Emission{Gap: float64(gap), Lo: low, Hi: bound})
			}
		}
		segT = append(segT[:n], t)
		segHi = append(segHi[:n], bound)
	}
	g.segT, g.segHi = segT, segHi
	g.emits, g.seeds = emits, seeds
}

// Finish resolves the boundary-dependent emissions and returns the
// complete gap log for the period. start and end follow the per-size
// replay's convention (misscurve.go): negative means "no bound", matching
// a batch sweep run without a seed segment or end phase. Placeholders that
// resolve to a dropped gap (below the window, or no period start) are
// neutralised to an empty [0, 0) range, which every downstream fold
// ignores. The returned slice is owned by the stream and invalidated by
// Reset; calling Finish again re-resolves against the new bounds.
func (g *GapStream) Finish(start, end simtime.Seconds) []Emission {
	if !g.finished {
		g.base = len(g.emits)
		g.finished = true
	}
	g.emits = g.emits[:g.base]
	for _, sf := range g.seeds {
		e := Emission{}
		if start >= 0 {
			if gap := sf.T - start; gap >= g.window {
				e = Emission{Gap: float64(gap), Lo: sf.Lo, Hi: sf.Hi}
			}
		}
		g.emits[sf.Idx] = e
	}
	if end >= 0 {
		low := int32(0)
		for j := len(g.segHi) - 1; j >= 0; j-- {
			t := g.segT[j]
			hi := g.segHi[j]
			if hi == gapSentinel {
				// The seed covers the thresholds no event ever reached;
				// without a period start there is no seed (the batch
				// sweep would not have pushed one).
				if start < 0 {
					break
				}
				hi = g.maxBound
				t = start
				if low >= hi {
					break
				}
			}
			if end > t {
				if gap := end - t; gap >= g.window {
					g.emits = append(g.emits, Emission{Gap: float64(gap), Lo: low, Hi: hi})
				}
			}
			low = hi
		}
	}
	return g.emits
}

// checkState reports the first way st's gap log breaks what FeedBatch
// keeps for events at banks in [lo, maxBound], none later than the
// pending one: the segment bounds fall and their times rise, oldest
// first; the seed fix-ups tile [0, the oldest segment's bound) in time
// order, each at a placeholder of its own; and every other emission
// covers a non-empty threshold range with a finite gap of at least the
// window.
func (g *GapStream) checkState(st *HistState, lo int32) error {
	last := st.Pending.T
	if len(st.SegT) != len(st.SegHi) || (len(st.SegT) > 0) != (len(st.Seeds) > 0) {
		return errors.New("segment stack and seed fix-ups disagree")
	}
	for i, hi := range st.SegHi {
		t := st.SegT[i]
		if hi < lo || hi > g.maxBound || !finite(float64(t)) || t > last || i > 0 && (hi >= st.SegHi[i-1] || t < st.SegT[i-1]) {
			return fmt.Errorf("segment %d at %v, bound %d, out of order", i, t, hi)
		}
	}
	prev := SeedFix{Idx: -1, T: simtime.Seconds(math.Inf(-1))}
	for i, sf := range st.Seeds {
		if sf.Lo != prev.Hi || sf.Lo >= sf.Hi || sf.Idx <= prev.Idx || int(sf.Idx) >= len(st.Emits) ||
			st.Emits[sf.Idx] != (Emission{}) || !finite(float64(sf.T)) || sf.T < prev.T || sf.T > last {
			return fmt.Errorf("seed fix-up %d %+v does not follow %+v", i, sf, prev)
		}
		prev = sf
	}
	if len(st.Seeds) > 0 && prev.Hi != st.SegHi[0] {
		return fmt.Errorf("seed fix-ups end at %d, the oldest segment at %d", prev.Hi, st.SegHi[0])
	}
	k := 0
	for i, e := range st.Emits {
		if k < len(st.Seeds) && int(st.Seeds[k].Idx) == i {
			k++
			continue
		}
		if e.Lo < 0 || e.Lo >= e.Hi || e.Hi > g.maxBound || !finite(e.Gap) || e.Gap < float64(g.window) {
			return fmt.Errorf("emission %d %+v out of range", i, e)
		}
	}
	return nil
}

// finite reports that x is neither infinite nor NaN.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// AppendGapsAt appends to dst the idle intervals of b banks in a finished
// gap log: the gaps of the emissions with Lo ≤ b < Hi, in log order, as a
// replay of the period at b banks reconstructs them, value for value.
func AppendGapsAt(dst []float64, log []Emission, b int32) []float64 {
	for i := range log {
		if e := &log[i]; e.Lo <= b && b < e.Hi {
			dst = append(dst, e.Gap)
		}
	}
	return dst
}
