package core

import (
	"fmt"
	"math"
	"time"

	"jointpm/internal/lrusim"
	"jointpm/internal/pareto"
	"jointpm/internal/qmodel"
	"jointpm/internal/simtime"
)

// This file is the incremental half of the manager: the streaming
// observation API (Ingest / DecideIncremental / DiscardPeriod), the
// compressed-event pricing kernel both Decide entry points share, and the
// persistent per-manager scratch that makes the hot path allocation-free.
//
// The design invariant: batch Decide and DecideIncremental never diverge,
// because both reduce their inputs to the SAME intermediate form — a
// depthProfile (integer prefix sums) plus a bank-space gap log — and hand
// it to one shared driver (decideFrom). Batch builds that form in a
// single fused pass over the period log; the incremental path has been
// accumulating it reference-by-reference in lrusim.DepthHist's per-bank
// buckets and gap stream, and at decide time sums only the buckets up to
// the deepest reference, so a boundary costs O(banks reached + gaps), not
// O(installed banks). Per-candidate floating-point reductions inside the
// kernel fold emissions in chronological order, which is exactly the
// order the sequential replay path visits intervals, so the equivalence
// is bit-exact, not approximate (see TestDecideIncrementalMatchesBatch
// and TestDecideSweepMatchesReplay).

// DecideMode selects which Decide entry point a host (simulator engine,
// daemon shard) drives the manager through. The zero value is the batch
// path, preserving the behaviour of configurations that predate the
// incremental path.
type DecideMode int

const (
	// ModeBatch collects the period's depth log and calls Decide once at
	// the period boundary.
	ModeBatch DecideMode = iota
	// ModeIncremental feeds every reference to Manager.Ingest as it
	// happens and calls DecideIncremental at the boundary.
	ModeIncremental
)

// String returns the flag spelling of the mode.
func (m DecideMode) String() string {
	if m == ModeIncremental {
		return "incremental"
	}
	return "batch"
}

// ParseDecideMode parses a -decide flag value.
func ParseDecideMode(s string) (DecideMode, error) {
	switch s {
	case "batch":
		return ModeBatch, nil
	case "incremental":
		return ModeIncremental, nil
	}
	return ModeBatch, fmt.Errorf("core: unknown decide mode %q (want batch or incremental)", s)
}

// decideInput is the mode-independent form of one period's observation:
// the scalar inputs, the integer depth profile, and the bank-space gap
// log. The raw log (obs.Log) is only consulted by the SequentialReplay
// ablation; the kernel never touches it.
type decideInput struct {
	obs      Observation
	logLen   int               // references observed (len(obs.Log) ≡ hist.Refs())
	maxDepth int64             // deepest non-cold reference, in pages
	gaps     []lrusim.Emission // bank-space gap log (see lrusim.GapStream)
	prof     *depthProfile
}

// decideScratch is the manager-owned memory the decision hot path runs
// in. Every slice is grown on first use and reused forever after, so a
// warm manager prices a full refinement search without allocating; the
// only per-decision allocation left is the right-sized Candidates slice
// the Decision hands to the caller.
type decideScratch struct {
	prof   depthProfile
	events []lrusim.SweepEvent
	gs     lrusim.GapStream // batch-mode gap-log materialisation
	sweep  lrusim.EventSweeper
	in     decideInput

	slateBanks []int32
	tcs        []TimeoutChoice
	nds        []int64
	to, ts     []float64 // chosen timeouts / tail excess per candidate
	to2, ts2   []float64 // unclamped-timeout attribution pass
	hcnt, h2   []int64

	seen  []bool // indexed by bank count; set by a search, cleared at its end
	slate []int
	all   []Candidate
}

// Ingest streams one depth-annotated reference into the incremental
// observation state. Records must arrive in time order. The accumulated
// state is consumed (and cleared) by the next DecideIncremental or
// DiscardPeriod call.
//
// With a SpanHook configured, Ingest accumulates its wall time into the
// period's "ingest" span, flushed to the hook at the boundary that
// consumes the references; without one it takes no clock readings.
func (m *Manager) Ingest(rec lrusim.DepthRecord) {
	if m.hist == nil {
		m.hist = lrusim.NewDepthHist(m.p.bankPages(), m.p.TotalBanks, m.p.MinBanks, m.p.Window)
	}
	if m.p.SpanHook == nil {
		m.hist.Observe(rec)
		return
	}
	start := time.Now()
	m.hist.Observe(rec)
	m.ingestNs += time.Since(start).Nanoseconds()
}

// IngestBatch streams a time-ordered block of depth runs, each page of
// which moved PageSize bytes, into the incremental observation state:
// Ingest with the per-call nil and hook checks hoisted out of the loop,
// and the per-page work done once per run (see
// lrusim.DepthHist.ObserveRuns). The resulting state is bit-identical to
// ingesting the runs' pages one record at a time.
func (m *Manager) IngestBatch(runs []lrusim.DepthRun) {
	if len(runs) == 0 {
		return
	}
	if m.hist == nil {
		m.hist = lrusim.NewDepthHist(m.p.bankPages(), m.p.TotalBanks, m.p.MinBanks, m.p.Window)
	}
	if m.p.SpanHook == nil {
		m.hist.ObserveRuns(runs, m.p.PageSize)
		return
	}
	start := time.Now()
	m.hist.ObserveRuns(runs, m.p.PageSize)
	m.ingestNs += time.Since(start).Nanoseconds()
}

// flushIngestSpan delivers the accumulated ingest span for the period
// being consumed and resets the accumulator.
func (m *Manager) flushIngestSpan() {
	if hook := m.p.SpanHook; hook != nil {
		hook(SpanIngest, m.ingestNs)
		m.ingestNs = 0
	}
}

// Hist exposes the incremental observation state for snapshot validation;
// nil until the first Ingest.
func (m *Manager) Hist() *lrusim.DepthHist { return m.hist }

// DiscardPeriod drops the references ingested since the last decision
// without deciding — the incremental equivalent of a host discarding a
// warmup period's log unexamined.
func (m *Manager) DiscardPeriod() {
	if m.hist != nil {
		m.hist.Reset()
	}
	m.flushIngestSpan()
}

// DecideIncremental is Decide over the references streamed through Ingest
// since the previous period boundary: obs carries the scalar calibration
// inputs (CacheAccesses, CoalesceFactor, period bounds, CurrentBanks) and
// obs.Log is ignored. It returns a Decision bit-identical to what batch
// Decide would return for the same references, in O(banks + events)
// instead of O(references), and clears the ingested state for the next
// period.
func (m *Manager) DecideIncremental(o Observation) Decision {
	hook := m.p.SpanHook
	if hook == nil {
		return m.decideIncremental(o)
	}
	m.flushIngestSpan()
	start := time.Now()
	d := m.decideIncremental(o)
	hook(SpanDecide, time.Since(start).Nanoseconds())
	return d
}

func (m *Manager) decideIncremental(o Observation) Decision {
	m.met.decisions.Inc()
	refs := int64(0)
	if m.hist != nil {
		refs = m.hist.Refs()
	}
	if refs == 0 || o.CacheAccesses == 0 {
		d := m.emptyDecision(o, int(refs))
		if m.hist != nil {
			m.hist.Reset()
		}
		return d
	}
	if o.CoalesceFactor < 1 {
		o.CoalesceFactor = 1
	}
	if d, ok := m.tryDriftHold(&o); ok {
		m.hist.Reset()
		return d
	}
	in := m.inputFromHist(&o)
	d := m.decideFrom(in)
	m.hist.Reset()
	return d
}

// tryDriftHold is the delta shortcut RefitDriftFrac enables: in steady
// state, re-evaluate only the previously chosen size against the fresh
// period's statistics, and when its estimated power has drifted less than
// the configured fraction from what last period's full search priced it
// at, keep that size (with the fresh period's re-fitted timeout) without
// re-running the slate search. Any larger drift — or an infeasible or
// distrusted re-evaluation — falls through to the full search. With the
// default RefitDriftFrac = 0 the shortcut is disabled and the incremental
// path stays bit-identical to batch Decide.
func (m *Manager) tryDriftHold(o *Observation) (Decision, bool) {
	f := m.p.RefitDriftFrac
	if f <= 0 {
		return Decision{}, false
	}
	prev := m.last
	if prev.Fallback || prev.Banks < m.p.MinBanks || prev.Banks > m.p.TotalBanks ||
		prev.Chosen.Banks != prev.Banks || !prev.Chosen.Feasible {
		return Decision{}, false
	}
	in := m.inputFromHist(o)
	s := &m.scratch
	s.all = growCandidates(s.all[:0], 1)
	m.evalSlate(in, s.slateInts(prev.Banks), s.all)
	c := s.all[0]
	// An over-budget re-evaluation never holds: the fleet coordinator may
	// have shrunk this shard's budget since the last full search, and only
	// the full slate knows whether a cheaper size now fits it.
	if !c.Feasible || c.OverBudget || (!c.FitOK && c.DiskAccesses > 0) || !finitePower(c) {
		return Decision{}, false
	}
	prevPower := float64(prev.Chosen.TotalPower)
	if prevPower <= 0 || math.Abs(float64(c.TotalPower)-prevPower) > f*prevPower {
		return Decision{}, false
	}
	m.met.hysteresis.Inc()
	d := Decision{
		Banks:      c.Banks,
		Pages:      c.Pages,
		Timeout:    c.Timeout,
		Level:      c.Level,
		Chosen:     c,
		Evaluated:  1,
		Candidates: append([]Candidate(nil), c),
		BudgetW:    m.budgetW,
	}
	m.last = d
	m.recordDecision(d)
	if m.p.DecisionTrace.Enabled() {
		m.emitTrace(in.obs, in.logLen, d, true)
	}
	return d, true
}

// slateInts returns a reusable single-entry slate.
func (s *decideScratch) slateInts(b int) []int {
	s.slate = append(s.slate[:0], b)
	return s.slate
}

// emptyDecision is the shared "nothing happened" path: the smallest cache
// with the disk allowed to sleep through the whole period.
func (m *Manager) emptyDecision(o Observation, logLen int) Decision {
	d := Decision{
		Banks:   m.p.MinBanks,
		Pages:   int64(m.p.MinBanks) * m.p.bankPages(),
		Timeout: m.p.DiskSpec.BreakEven(),
		// Hold the current speed level: with the disk asleep all period a
		// speed change buys nothing and would cost a transition. Always 0
		// (the zero value) without a ladder.
		Level:   m.curLevel(),
		BudgetW: m.budgetW,
	}
	m.last = d
	m.met.emptyDecisions.Inc()
	m.recordDecision(d)
	if m.p.DecisionTrace.Enabled() {
		m.emitEmptyTrace(o, logLen, d)
	}
	return d
}

// buildInput reduces a batch observation log to the kernel's input form
// in one fused pass: depth profile, reference counts, max depth, and the
// compressed event stream, all in manager-owned scratch. The event
// compression must match lrusim.DepthHist.Observe exactly — shallow
// references (at or below MinBanks, a miss-bound-zero no-op for every
// candidate the manager prices) are dropped, and with a positive
// aggregation window same-timestamp events collapse to the deepest.
func (m *Manager) buildInput(o *Observation) *decideInput {
	s := &m.scratch
	bankPages := m.p.bankPages()
	maxBanks := m.p.TotalBanks
	prof := &s.prof
	prof.reset(bankPages, maxBanks)
	s.events = s.events[:0]
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
			if n := len(s.events); n > 0 && s.events[n-1].T == r.Time {
				if evBank > s.events[n-1].Bank {
					s.events[n-1].Bank = evBank
				}
				continue
			}
		}
		s.events = append(s.events, lrusim.SweepEvent{T: r.Time, Bank: evBank})
	}
	prof.finish()
	start, end := m.bounds(*o)
	gaps := lrusim.BuildGapLog(&s.gs, s.events, maxBanks, m.p.Window, start, end)
	in := &s.in
	*in = decideInput{obs: *o, logLen: len(o.Log), maxDepth: maxDepth, gaps: gaps, prof: prof}
	return in
}

// inputFromHist materialises the kernel's input form from the ingested
// DepthHist: prefix sums of the buckets up to the deepest reference, and
// the bank-space gap log the histogram's GapStream has been folding at
// ingest (Finish only resolves the period-boundary emissions, and is
// idempotent, so re-materialising is cheap). This is the payoff of
// maintaining the state continuously — nothing here is proportional to
// the references in the period or to the installed banks.
//
// The profile stops at the deepest reached bank n: every deeper bucket is
// empty, so each prefix sum past n equals the one at n, and the profile's
// queries clamp to their length. The count prefix keeps one bucket more,
// the deep bucket when n is the installed banks, as batch's does.
func (m *Manager) inputFromHist(o *Observation) *decideInput {
	s := &m.scratch
	h := m.hist
	bankPages := m.p.bankPages()
	n := int(min((h.MaxDepth()+bankPages-1)/bankPages, int64(m.p.TotalBanks)))
	prof := &s.prof
	prof.bankPages = bankPages
	prof.coldCount, prof.cold = h.Cold()
	prof.nonColdCount, prof.total = h.NonCold()
	prof.cumTotal = h.AppendTotalPrefix(append(prof.cumTotal[:0], 0), n)
	prof.cumFirst = h.AppendFirstPrefix(append(prof.cumFirst[:0], 0), n)
	prof.cumCount = h.AppendCountPrefix(append(prof.cumCount[:0], 0), n+1)
	start, end := m.bounds(*o)
	in := &s.in
	*in = decideInput{obs: *o, logLen: int(h.Refs()), maxDepth: h.MaxDepth(),
		gaps: h.FinishGaps(start, end), prof: prof}
	return in
}

// decideFrom is the mode-independent decision driver: the coarse-to-fine
// slate search, hysteresis, candidate ordering, and the fallback ladder,
// exactly as Decide has always sequenced them, over a pre-reduced input.
func (m *Manager) decideFrom(in *decideInput) Decision {
	s := &m.scratch
	// Sizes beyond the deepest observed hit depth cannot remove further
	// misses; enumerate only up to one unit past it ("the size causing
	// different disk IOs", Section IV-B).
	unitBanks := int(m.p.EnumUnit / m.p.BankSize)
	usefulBanks := int((in.maxDepth + m.p.bankPages() - 1) / m.p.bankPages())
	hiBanks := usefulBanks + unitBanks
	if hiBanks > m.p.TotalBanks {
		hiBanks = m.p.TotalBanks
	}
	if hiBanks < m.p.MinBanks {
		hiBanks = m.p.MinBanks
	}

	if len(s.seen) < m.p.TotalBanks+1 {
		s.seen = make([]bool, m.p.TotalBanks+1)
	}
	s.all = s.all[:0]

	// Coarse-to-fine search at EnumUnit granularity. The energy curve is
	// evaluated on a shrinking grid around the best point; each pass costs
	// one multi-threshold sweep of the event stream for its whole
	// candidate slate (or one replay per candidate under the
	// SequentialReplay ablation).
	lo, hi := m.p.MinBanks, hiBanks
	var best Candidate
	bestSet := false
	evaluated := 0
	for {
		span := hi - lo
		stepBanks := unitBanks
		if per := m.p.MaxCandidatesPerPass; span/stepBanks+1 > per {
			stepBanks = span / (per - 1)
			// Round the step to the enumeration grid.
			stepBanks -= stepBanks % unitBanks
			if stepBanks < unitBanks {
				stepBanks = unitBanks
			}
		}
		s.slate = s.slate[:0]
		for b := lo; ; b += stepBanks {
			if b > hi {
				b = hi
			}
			if !s.seen[b] {
				s.seen[b] = true
				s.slate = append(s.slate, b)
			}
			if b == hi {
				break
			}
		}
		base := len(s.all)
		s.all = growCandidates(s.all, len(s.slate))
		m.evalSlate(in, s.slate, s.all[base:])
		for i := base; i < len(s.all); i++ {
			evaluated++
			if !bestSet || m.betterCand(s.all[i], best) {
				best, bestSet = s.all[i], true
			}
		}
		if stepBanks <= unitBanks {
			break
		}
		// Narrow to one step either side of the incumbent.
		lo = best.Banks - stepBanks
		hi = best.Banks + stepBanks
		if lo < m.p.MinBanks {
			lo = m.p.MinBanks
		}
		if hi > hiBanks {
			hi = hiBanks
		}
	}

	// Hysteresis: stay at the previous size unless the winner is a real
	// improvement over it, not estimate noise.
	held := false
	if h := m.p.HysteresisFrac; h >= 0 && best.Banks != m.last.Banks && m.last.Banks > 0 {
		if h == 0 {
			h = 0.05
		}
		prevBanks := m.last.Banks
		if prevBanks < m.p.MinBanks {
			prevBanks = m.p.MinBanks
		}
		if prevBanks > m.p.TotalBanks {
			prevBanks = m.p.TotalBanks
		}
		var prev Candidate
		if s.seen[prevBanks] {
			for i := range s.all {
				if s.all[i].Banks == prevBanks {
					prev = s.all[i]
					break
				}
			}
		} else {
			base := len(s.all)
			s.all = growCandidates(s.all, 1)
			m.evalSlate(in, s.slateInts(prevBanks), s.all[base:])
			prev = s.all[base]
			evaluated++
		}
		hold := prev.Feasible && best.Feasible &&
			float64(best.TotalPower) > (1-h)*float64(prev.TotalPower)
		if m.budgetActive() {
			// A power budget overrides size inertia in both directions:
			// never hold an over-budget previous size against a
			// within-budget winner, and always hold a within-budget
			// previous size when the winner itself blew the budget.
			if prev.OverBudget && !best.OverBudget {
				hold = false
			} else if prev.Feasible && !prev.OverBudget && best.OverBudget {
				hold = true
			}
		}
		if hold {
			best = prev
			held = true
			m.met.hysteresis.Inc()
		}
	}
	// Clear only what this search set: every size it priced is in s.all.
	for i := range s.all {
		s.seen[s.all[i].Banks] = false
	}

	// Candidates leave the scratch slab as one right-sized copy, sorted
	// ascending by size; bank counts are unique, so a simple insertion
	// sort is deterministic and allocation-free.
	cands := make([]Candidate, len(s.all))
	copy(cands, s.all)
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].Banks < cands[j-1].Banks; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	d := Decision{
		Banks:      best.Banks,
		Pages:      best.Pages,
		Timeout:    best.Timeout,
		Level:      best.Level,
		Chosen:     best,
		Evaluated:  evaluated,
		Candidates: cands,
		BudgetW:    m.budgetW,
		// Graceful slack-cap fallback: when even the winner is over
		// budget the shard cannot meet its share this period; proceed
		// with the best uncapped choice and flag the decision so fleet
		// cap-compliance accounting excludes it.
		OverBudget: best.OverBudget,
	}
	// Fallback ladder (graceful degradation): a winner whose Pareto fit
	// degenerated despite predicted disk activity has a made-up timeout,
	// and one whose pricing went non-finite won a garbage comparison.
	// Neither is worth acting on — hold the previous period's (m, t_o)
	// instead. Before any history exists, m.last is NewManager's safe
	// default: every bank enabled with the 2-competitive t_be timeout.
	//
	// A degenerate fit with zero predicted accesses is NOT degradation:
	// an over-provisioned cache legitimately leaves the whole period as
	// one idle interval, the sizing never consulted the tail, and the
	// 2-competitive t_be the candidate already carries is the honest
	// timeout for a disk with no observed idle structure.
	if (!best.FitOK && best.DiskAccesses > 0) || !finitePower(best) {
		d.Banks = m.last.Banks
		d.Pages = m.last.Pages
		d.Timeout = m.last.Timeout
		d.Level = m.last.Level
		d.Fallback = true
		m.met.fallbacks.Inc()
	}
	m.last = d
	m.recordDecision(d)
	if m.p.DecisionTrace.Enabled() {
		m.emitTrace(in.obs, in.logLen, d, held)
	}
	return d
}

// growCandidates extends s by n zero candidates, reusing capacity.
func growCandidates(s []Candidate, n int) []Candidate {
	need := len(s) + n
	if cap(s) >= need {
		s = s[:need]
		for i := need - n; i < need; i++ {
			s[i] = Candidate{}
		}
		return s
	}
	ns := make([]Candidate, need, need+need/2+8)
	copy(ns, s)
	return ns
}

// evalSlate prices one ascending candidate slate into out (len(out) ==
// len(banks)). The kernel path folds each candidate's idle-interval
// statistics straight out of the pre-built bank-space gap log (one
// remapped reduction per pass, O(kept gaps) regardless of slate), then
// prices every candidate from those reductions — no interval list is
// ever materialised and no per-slate sweep of the event stream runs.
// Under the SequentialReplay ablation (batch mode only: it needs the raw
// log) each candidate is priced by a full log replay, the paper's literal
// procedure; the paths produce bit-identical candidates.
func (m *Manager) evalSlate(in *decideInput, banks []int, out []Candidate) {
	if len(banks) == 0 {
		return
	}
	if m.p.SequentialReplay && in.obs.Log != nil {
		for i, b := range banks {
			out[i] = m.evaluate(in.obs, b, in.prof)
		}
		return
	}
	k := len(banks)
	s := &m.scratch
	if cap(s.slateBanks) < k {
		// Capacity rounded up to whole 32-lane blocks on the TailStats
		// operands keeps the register-resident gap kernel (which moves
		// full blocks) available for every slate width, down to the
		// single-candidate hysteresis probe.
		kk := (k + 31) &^ 31
		if kk < 32 {
			kk = 32
		}
		s.slateBanks = make([]int32, k, kk)
		s.tcs = make([]TimeoutChoice, k, kk)
		s.nds = make([]int64, k, kk)
		s.to = make([]float64, k, kk)
		s.ts = make([]float64, k, kk)
		s.to2 = make([]float64, k, kk)
		s.ts2 = make([]float64, k, kk)
		s.hcnt = make([]int64, k, kk)
		s.h2 = make([]int64, k, kk)
	}
	s.slateBanks = s.slateBanks[:k]
	s.tcs = s.tcs[:k]
	s.nds = s.nds[:k]
	s.to = s.to[:k]
	s.ts = s.ts[:k]
	s.to2 = s.to2[:k]
	s.ts2 = s.ts2[:k]
	s.hcnt = s.hcnt[:k]
	s.h2 = s.h2[:k]
	for i, b := range banks {
		s.slateBanks[i] = int32(b)
	}
	sw := &s.sweep
	sw.SweepGaps(in.gaps, s.slateBanks)

	// Phase 1: timeout choice per candidate from the folded (count, sum,
	// min) reductions — the same Pareto moments FitMoments computes from
	// an interval list.
	for i := 0; i < k; i++ {
		nd := in.prof.diskAccesses(banks[i])
		s.nds[i] = nd
		T := float64(m.p.Period)
		if covered := sw.Sum[i]; covered > T {
			T = covered
		}
		tc := m.chooseTimeoutStats(sw.Cnt[i], sw.Min[i], sw.Sum[i], nd, in.obs.CacheAccesses, T)
		s.tcs[i] = tc
		s.to[i] = float64(tc.Timeout)
		s.ts[i] = 0
		s.hcnt[i] = 0
	}

	// Phase 2: one conditional pass over the emission log values every
	// candidate's chosen timeout against the observed intervals.
	sw.TailStats(s.to, s.ts, s.hcnt)

	// Phase 3: assemble the candidates.
	needDelay := false
	for i := 0; i < k; i++ {
		c, attr := m.priceStats(in, banks[i], s.nds[i], sw.Cnt[i], sw.Sum[i], s.tcs[i], s.ts[i], s.hcnt[i])
		out[i] = c
		if attr {
			needDelay = true
			s.to2[i] = float64(s.tcs[i].Unclamped)
		} else {
			s.to2[i] = math.Inf(1)
		}
		s.ts2[i] = 0
		s.h2[i] = 0
	}

	// Phase 4 (metrics only): for candidates the eq. 6 floor priced out of
	// spinning down, re-value at the unclamped timeout to attribute the
	// loss to the delay cap. Runs only when the rejected_delay counter is
	// live, mirroring the batch path's lazily-paid second interval walk.
	if needDelay {
		sw.TailStats(s.to2, s.ts2, s.h2)
		pd := float64(m.p.DiskSpec.StaticPower())
		tbe := float64(m.p.DiskSpec.BreakEven())
		for i := 0; i < k; i++ {
			if math.IsInf(s.to2[i], 1) {
				continue
			}
			T := float64(m.p.Period)
			if covered := sw.Sum[i]; covered > T {
				T = covered
			}
			ts := s.ts2[i]
			if ts > T {
				ts = T
			}
			if pd*(T-ts)/T+pd*tbe*float64(s.h2[i])/T < pd {
				m.met.rejectedDelay.Inc()
			}
		}
	}

	// Speed refinement: price every slate slot at the other ladder levels
	// and keep each size's cheapest (m, t_o, l). Runs after phase 4 so it
	// can reuse the to2/ts2/h2 scratch; with a single-level ladder this
	// is one false branch and the slate above is untouched (see speed.go).
	if m.speedEnabled() {
		m.refineSlateLevels(in, banks, out)
	}
}

// chooseTimeoutStats is ChooseTimeout on pre-reduced interval statistics:
// ni intervals with minimum minGap and total sumGap, accumulated in
// chronological order. Shares finishTimeout with ChooseTimeout so the two
// entry points are bit-identical on the same sample.
func (m *Manager) chooseTimeoutStats(ni int64, minGap, sumGap float64, nd, cacheAccesses int64, span float64) TimeoutChoice {
	fit, err := pareto.FitStats(ni, minGap, sumGap, float64(m.p.Window))
	return m.finishTimeout(fit, err, ni, nd, cacheAccesses, span)
}

// priceStats is the kernel's counterpart of price: the identical
// valuation arithmetic fed from streaming reductions — nd and profile
// byte queries, ni/covered from the sweep fold, the timeout choice, and
// the tail excess (tailTS, tailH) from the emission pass — instead of a
// materialised interval list. The second return value asks the caller to
// run the delay-cap attribution pass for this candidate.
func (m *Manager) priceStats(in *decideInput, banks int, nd, ni int64, covered float64, tc TimeoutChoice, tailTS float64, tailH int64) (Candidate, bool) {
	p := m.p
	pages := int64(banks) * p.bankPages()
	c := Candidate{Banks: banks, Pages: pages}
	c.DiskAccesses = nd
	c.IdleCount = int(ni)
	c.MissBytes = in.prof.missBytes(banks)
	c.RefillBytes = in.prof.refillBytes(in.obs.CurrentBanks, banks)

	T := float64(p.Period)
	if covered > T {
		T = covered
	}
	spec := p.DiskSpec
	pd := float64(spec.StaticPower())
	tbe := float64(spec.BreakEven())

	requests := float64(nd) / in.obs.CoalesceFactor
	busy := requests*float64(spec.SeekTime+spec.RotationalLatency) +
		float64(c.MissBytes)/spec.TransferRate
	c.Utilization = busy / T
	if requests > 0 {
		es := busy / requests
		if w, err := qmodel.MG1WaitSCV(requests/T, es, 1); err == nil {
			c.PredictedWait = simtime.Seconds(w)
		} else {
			c.PredictedWait = simtime.Seconds(math.Inf(1))
		}
	}
	refillPages := float64(c.RefillBytes) / float64(p.PageSize)
	refillBusy := (refillPages/in.obs.CoalesceFactor)*float64(spec.SeekTime+spec.RotationalLatency) +
		float64(c.RefillBytes)/spec.TransferRate
	c.DiskDynPower = simtime.Watts((busy + refillBusy/refillAmortizePeriods) / T * float64(spec.DynamicPower()))

	c.Fit = tc.Fit
	c.FitOK = tc.FitOK
	c.TimeoutFloor = tc.Floor
	c.FloorClamped = tc.Clamped
	c.SpanS = simtime.Seconds(T)
	c.Timeout = simtime.Seconds(math.Inf(1))
	c.DiskPMPower = simtime.Watts(pd) // always-on default
	ts := tailTS
	if ts > T {
		ts = T
	}
	pm := pd*(T-ts)/T + pd*tbe*float64(tailH)/T
	attribute := false
	if pm < pd {
		c.Timeout = tc.Timeout
		c.DiskPMPower = simtime.Watts(pm)
		c.SpinUps = tailH
		c.StandbyS = simtime.Seconds(ts)
	} else {
		m.met.spinDisabled.Inc()
		if m.met.rejectedDelay != nil && tc.Clamped {
			attribute = true
		}
	}

	c.MemPower = p.MemSpec.NapPower() * simtime.Watts(banks)

	c.TotalPower = c.DiskPMPower + c.DiskDynPower + c.MemPower
	c.Feasible = c.Utilization <= p.UtilCap
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
	return c, attribute
}
