package core

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"jointpm/internal/lrusim"
	"jointpm/internal/qmodel"
	"jointpm/internal/simtime"
)

// This file is the batch Decide oracle: the observation path that
// predates streaming ingest, kept as test code so the differential tests
// can check the production path (Ingest/IngestBatch + DecideIncremental)
// against an independent construction of the same decision. The oracle
// builds the kernel's input form (depth profile, gap log) in one fused
// pass over a whole period log and runs the same search (decideFrom);
// evaluate goes further and prices one size by replaying the log, the
// paper's literal procedure, against which the gap-log kernel's
// candidates must be bit-identical.

// batchObs is an oracle observation: the scalar calibration inputs plus
// the period's depth-annotated log. The log must be the complete depth
// stream of one lrusim.StackSim over the period, in reference order: the
// manager reads each page's first touch in the period off the depths
// (see lrusim.DepthHist).
type batchObs struct {
	Observation
	Log []lrusim.DepthRecord
}

// Decide evaluates one period's observation from its log and returns the
// sizing and timeout for the next period, as DecideIncremental does for
// the same references ingested.
func (m *Manager) Decide(o batchObs) Decision {
	hook := m.p.SpanHook
	if hook == nil {
		return m.decideBatch(o)
	}
	start := time.Now()
	d := m.decideBatch(o)
	hook(SpanDecide, time.Since(start).Nanoseconds())
	return d
}

// DecideLog is Decide for the external test package: o with the
// period's log.
func (m *Manager) DecideLog(o Observation, log []lrusim.DepthRecord) Decision {
	return m.Decide(batchObs{Observation: o, Log: log})
}

func (m *Manager) decideBatch(o batchObs) Decision {
	m.met.decisions.Inc()
	if len(o.Log) == 0 || o.CacheAccesses == 0 {
		// Nothing happened: the cheapest configuration is the smallest
		// cache with the disk allowed to sleep through the whole period.
		return m.emptyDecision(o.Observation, len(o.Log))
	}
	if o.CoalesceFactor < 1 {
		o.CoalesceFactor = 1
	}
	bufs := batchPool.Get().(*batchBufs)
	defer batchPool.Put(bufs)
	return m.decideFrom(m.buildInput(&o, bufs))
}

// batchBufs holds the oracle's event stream and gap-log sweep. They are
// pooled, not made per call, so that the oracle's benchmarks time a warm
// decision.
type batchBufs struct {
	events []lrusim.SweepEvent
	gs     lrusim.GapStream
}

var batchPool = sync.Pool{New: func() any { return new(batchBufs) }}

// checkReplay prices every candidate of d, a decision made from o by a
// manager in twin's state, by evaluate's per-size log replay on twin, and
// fails on the first that differs; then twin decides o, which keeps it in
// step for the next period. The search prices sizes only through the
// slate kernel, so equal candidates mean that a search pricing each size
// by replay, the paper's literal procedure, decides identically.
func checkReplay(t *testing.T, twin *Manager, o batchObs, d Decision) {
	t.Helper()
	for _, c := range d.Candidates {
		if want := twin.evaluate(o, c.Banks, nil); !reflect.DeepEqual(c, want) {
			t.Fatalf("%d banks: slate candidate %+v != replayed %+v", c.Banks, c, want)
		}
	}
	twin.Decide(o)
}

// buildInput reduces a batch observation log to the kernel's input form
// in one fused pass: depth profile, reference counts, max depth, and the
// compressed event stream, in the manager's profile scratch and bufs.
// The gap log stays valid while bufs is not reused. The event
// compression must match lrusim.DepthHist.Observe exactly — shallow
// references (at or below MinBanks, a miss-bound-zero no-op for every
// candidate the manager prices) are dropped, and with a positive
// aggregation window same-timestamp events collapse to the deepest.
func (m *Manager) buildInput(o *batchObs, bufs *batchBufs) *decideInput {
	s := &m.scratch
	bankPages := m.p.bankPages()
	maxBanks := m.p.TotalBanks
	prof := &s.prof
	prof.reset(bankPages, maxBanks)
	events := bufs.events[:0]
	dedup := m.p.Window > 0
	minKeep := int64(m.p.MinBanks)
	coldBank := int32(maxBanks) + 1
	maxDepth := int64(0)
	touched := int64(0) // first touches so far (lrusim.DepthHist's rule)
	for i := range o.Log {
		r := &o.Log[i]
		evBank := int32(0)
		if r.Depth == lrusim.Cold {
			prof.cold += r.Bytes
			prof.coldCount++
			touched++
			evBank = coldBank
		} else {
			d := int64(r.Depth)
			if d > maxDepth {
				maxDepth = d
			}
			b := (d-1)/bankPages + 1
			cb := b
			if cb > int64(maxBanks) {
				cb = int64(maxBanks)
			}
			prof.cumTotal[cb] += r.Bytes
			prof.total += r.Bytes
			if d > touched {
				touched++
				prof.cumFirst[cb] += r.Bytes
			}
			kb := b
			if kb > int64(maxBanks)+1 {
				kb = int64(maxBanks) + 1
			}
			prof.cumCount[kb]++
			prof.nonColdCount++
			if kb > minKeep {
				evBank = int32(kb)
			}
		}
		if evBank == 0 {
			continue
		}
		if dedup {
			if n := len(events); n > 0 && events[n-1].T == r.Time {
				if evBank > events[n-1].Bank {
					events[n-1].Bank = evBank
				}
				continue
			}
		}
		events = append(events, lrusim.SweepEvent{T: r.Time, Bank: evBank})
	}
	prof.finish()
	bufs.events = events
	start, end := m.bounds(o.Observation)
	bufs.gs.Reset(m.p.Window, maxBanks)
	for i := range events {
		bufs.gs.Feed(events[i])
	}
	in := &s.in
	*in = decideInput{obs: o.Observation, logLen: len(o.Log), maxDepth: maxDepth,
		gaps: bufs.gs.Finish(start, end), prof: prof}
	return in
}

// reset sizes the profile for a geometry and zeroes it, reusing capacity.
func (p *depthProfile) reset(bankPages int64, maxBanks int) {
	p.bankPages = bankPages
	p.cold = 0
	p.coldCount = 0
	p.total = 0
	p.nonColdCount = 0
	if cap(p.cumTotal) < maxBanks+1 || cap(p.cumFirst) < maxBanks+1 || cap(p.cumCount) < maxBanks+2 {
		p.cumTotal = make([]simtime.Bytes, maxBanks+1)
		p.cumFirst = make([]simtime.Bytes, maxBanks+1)
		p.cumCount = make([]int64, maxBanks+2)
	}
	p.cumTotal = p.cumTotal[:maxBanks+1]
	p.cumFirst = p.cumFirst[:maxBanks+1]
	p.cumCount = p.cumCount[:maxBanks+2]
	for i := range p.cumTotal {
		p.cumTotal[i] = 0
		p.cumFirst[i] = 0
	}
	for i := range p.cumCount {
		p.cumCount[i] = 0
	}
}

// finish turns the per-bucket tallies into prefix sums.
func (p *depthProfile) finish() {
	for b := 1; b < len(p.cumTotal); b++ {
		p.cumTotal[b] += p.cumTotal[b-1]
		p.cumFirst[b] += p.cumFirst[b-1]
	}
	for b := 1; b < len(p.cumCount); b++ {
		p.cumCount[b] += p.cumCount[b-1]
	}
}

// buildDepthProfile aggregates a whole period log over maxBanks banks.
func buildDepthProfile(log []lrusim.DepthRecord, bankPages int64, maxBanks int) *depthProfile {
	p := &depthProfile{}
	p.reset(bankPages, maxBanks)
	touched := int64(0) // first touches so far (lrusim.DepthHist's rule)
	for i := range log {
		r := &log[i]
		if r.Depth == lrusim.Cold {
			p.cold += r.Bytes
			p.coldCount++
			touched++
			continue
		}
		d := int64(r.Depth)
		b := (d-1)/bankPages + 1 // depth within the first b banks
		cb := b
		if cb > int64(maxBanks) {
			cb = int64(maxBanks)
		}
		p.cumTotal[cb] += r.Bytes
		p.total += r.Bytes
		if d > touched {
			touched++
			p.cumFirst[cb] += r.Bytes
		}
		if b > int64(maxBanks)+1 {
			b = int64(maxBanks) + 1
		}
		p.cumCount[b]++
		p.nonColdCount++
	}
	p.finish()
	return p
}

// evaluate prices one candidate size: replay the log at that size,
// reconstruct idle intervals (including the period-boundary gaps), fit
// the Pareto model to choose the timeout (eq. 5 with the eq. 6 floor),
// and assemble the power estimate.
//
// The timeout is chosen from the Pareto model as the paper derives; the
// candidate's power is then valued against the reconstructed intervals
// themselves rather than the fitted tail (see priceStats).
func (m *Manager) evaluate(obs batchObs, banks int, prof *depthProfile) Candidate {
	if prof == nil {
		prof = buildDepthProfile(obs.Log, m.p.bankPages(), m.p.TotalBanks)
	}
	start, end := m.bounds(obs.Observation)
	intervals, nd := lrusim.BoundedIdleIntervals(obs.Log, int64(banks)*m.p.bankPages(), m.p.Window, start, end)
	return m.price(obs.Observation, banks, prof, intervals, nd)
}

// evaluateSlate prices one refinement pass's candidate sizes (ascending)
// through the production kernel (evalSlate), building the kernel input
// from the observation log; a non-nil prof replaces the built profile.
func (m *Manager) evaluateSlate(obs batchObs, banks []int, prof *depthProfile) []Candidate {
	if obs.CoalesceFactor < 1 {
		obs.CoalesceFactor = 1
	}
	out := make([]Candidate, len(banks))
	bufs := batchPool.Get().(*batchBufs)
	defer batchPool.Put(bufs)
	in := m.buildInput(&obs, bufs)
	if prof != nil {
		in.prof = prof
	}
	m.evalSlate(in, banks, out)
	return out
}

// price is priceStats over the idle intervals and disk-access count a
// replay reconstructed for this size, with the same arithmetic in the
// same order. It must not retain or modify intervals.
func (m *Manager) price(obs Observation, banks int, prof *depthProfile, intervals []float64, nd int64) Candidate {
	p := m.p
	if obs.CoalesceFactor < 1 {
		obs.CoalesceFactor = 1
	}
	pages := int64(banks) * p.bankPages()
	c := Candidate{Banks: banks, Pages: pages}
	c.DiskAccesses = nd
	c.IdleCount = len(intervals)
	c.MissBytes = prof.missBytes(banks)
	// Refill band: distinct pages the stack model counts as hits but that
	// the real cache, currently holding only CurrentBanks banks, must
	// re-fetch once while re-populating the grown region.
	c.RefillBytes = prof.refillBytes(obs.CurrentBanks, banks)

	// Normalise rates over the observed span: the period length, or the
	// idle time actually covered by the log when it extends further (as
	// offline analyses over multi-period logs do).
	T := float64(p.Period)
	var covered float64
	for _, l := range intervals {
		covered += l
	}
	if covered > T {
		T = covered
	}
	spec := p.DiskSpec
	pd := float64(spec.StaticPower())
	tbe := float64(spec.BreakEven())

	// Disk dynamic power from predicted busy time. Seek/rotation costs are
	// paid per coalesced request, calibrated by the observed coalescing.
	// The refill cost of growing is a one-time transient: it is charged to
	// the energy estimate amortized over a few periods (so oscillating
	// does not look free), but NOT to the utilization feasibility test —
	// gating growth on a one-period burst would trap the manager at a
	// small size forever.
	requests := float64(nd) / obs.CoalesceFactor
	busy := requests*float64(spec.SeekTime+spec.RotationalLatency) +
		float64(c.MissBytes)/spec.TransferRate
	c.Utilization = busy / T
	if requests > 0 {
		es := busy / requests
		// SCV 1 (exponential-like service) is a conservative default for
		// the mixed request sizes the cache emits.
		if w, err := qmodel.MG1WaitSCV(requests/T, es, 1); err == nil {
			c.PredictedWait = simtime.Seconds(w)
		} else {
			c.PredictedWait = simtime.Seconds(math.Inf(1))
		}
	}
	refillPages := float64(c.RefillBytes) / float64(p.PageSize)
	refillBusy := (refillPages/obs.CoalesceFactor)*float64(spec.SeekTime+spec.RotationalLatency) +
		float64(c.RefillBytes)/spec.TransferRate
	c.DiskDynPower = simtime.Watts((busy + refillBusy/refillAmortizePeriods) / T * float64(spec.DynamicPower()))

	// Choose the timeout: t_o = α·t_be from the Pareto fit (eq. 5) under
	// the eq. 6 floor, then value it against the observed intervals;
	// spinning down must beat staying on or it is disabled.
	tc := m.ChooseTimeout(intervals, nd, obs.CacheAccesses, T)
	c.Fit = tc.Fit
	c.FitOK = tc.FitOK
	c.TimeoutFloor = tc.Floor
	c.FloorClamped = tc.Clamped
	c.SpanS = simtime.Seconds(T)
	c.Timeout = simtime.Seconds(math.Inf(1))
	c.DiskPMPower = simtime.Watts(pd) // always-on default
	ts, h := empiricalPMStats(intervals, float64(tc.Timeout))
	tailTS := ts // unclamped standby seconds, kept for the speed refinement
	if ts > T {
		ts = T
	}
	pm := pd*(T-ts)/T + pd*tbe*float64(h)/T
	if pm < pd {
		c.Timeout = tc.Timeout
		c.DiskPMPower = simtime.Watts(pm)
		c.SpinUps = int64(h)
		c.StandbyS = simtime.Seconds(ts)
	} else {
		m.met.spinDisabled.Inc()
		// Attribute the loss: if spin-down at the unconstrained
		// t_o = α·t_be would have won, the delay cap D is what priced
		// this candidate out of sleeping. The check re-walks the
		// intervals, so it only runs while the counter is live.
		if m.met.rejectedDelay != nil && delayCapCostSpinDown(intervals, tc, T, pd, tbe) {
			m.met.rejectedDelay.Inc()
		}
	}

	// Memory static power of the enabled banks (joint keeps them in nap).
	c.MemPower = p.MemSpec.NapPower() * simtime.Watts(banks)

	c.TotalPower = c.DiskPMPower + c.DiskDynPower + c.MemPower
	c.Feasible = c.Utilization <= p.UtilCap
	// A candidate whose pricing degenerated to NaN/Inf — a hostile trace
	// segment, a poisoned coalesce factor — must never win on a garbage
	// comparison: an Inf utilization already fails the cap above, but a
	// NaN power would sort unpredictably through better().
	if math.IsNaN(c.Utilization) || math.IsInf(c.Utilization, 0) ||
		math.IsNaN(float64(c.TotalPower)) || math.IsInf(float64(c.TotalPower), 0) ||
		math.IsNaN(float64(c.Timeout)) {
		c.Feasible = false
		m.met.nonFinite.Inc()
	}
	m.applyBudget(&c)
	m.met.candidates.Inc()
	if !c.Feasible {
		m.met.rejectedUtil.Inc()
	}
	// Speed refinement: re-price this size at every other ladder level and
	// keep the cheapest (see speed.go). Absent a multi-level ladder this
	// is a single branch and the candidate above is returned untouched.
	if m.speedEnabled() {
		c = m.refineReplayLevels(c, intervals, tc, requests,
			refillPages/obs.CoalesceFactor, T, tailTS, int64(h))
	}
	m.countOverBudget([]Candidate{c})
	return c
}

// refineReplayLevels is evaluate's counterpart of refineSlateLevels: the
// reference's whole-Candidate per-level valuation (refine_ref_test.go)
// fed from empiricalPMStats' chronological interval fold, so the two
// paths stay bit-identical with the speed slate enabled just as they are
// without it. tailTS/tailH are the level-0 fold results price already
// computed.
func (m *Manager) refineReplayLevels(c Candidate, intervals []float64, tc TimeoutChoice, requests, refillReqs, T, tailTS float64, tailH int64) Candidate {
	cur := m.curLevel()
	if cur != 0 {
		c = m.priceLevelRef(c, 0, cur, requests, refillReqs, T, tc, tailTS, tailH)
	}
	for lvl := 1; lvl < len(m.p.SpeedLevels); lvl++ {
		pd := float64(m.p.SpeedLevels[lvl].IdlePower) - float64(m.p.DiskSpec.StandbyPower)
		tbe := float64(m.p.DiskSpec.TransitionEnergy) / pd
		tcl := m.timeoutAtLevelRef(tc, tbe)
		ts, h := empiricalPMStats(intervals, float64(tcl.Timeout))
		cl := m.priceLevelRef(c, lvl, cur, requests, refillReqs, T, tcl, ts, int64(h))
		if m.betterLevelRef(cl, c) {
			c = cl
		}
	}
	return c
}

// delayCapCostSpinDown reports whether the eq. 6 floor is what priced
// this candidate out of spinning down: spin-down at the floored timeout
// loses to staying on, but at the unclamped t_o = α·t_be it would have
// won. Only called when the rejected_delay counter is live — it costs a
// second pass over the intervals.
func delayCapCostSpinDown(intervals []float64, tc TimeoutChoice, T, pd, tbe float64) bool {
	if !tc.Clamped {
		return false
	}
	return empiricalPMPower(intervals, float64(tc.Unclamped), T, pd, tbe) < pd
}
