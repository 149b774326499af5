package core

import (
	"math"
	"slices"
	"time"

	"jointpm/internal/lrusim"
	"jointpm/internal/pareto"
	"jointpm/internal/simtime"
)

// This file is the manager's period loop and decision path: the stack
// and its ingest queue (Reference / Flush), the period boundary (Close),
// the streaming observation underneath them (IngestBatch /
// DecideIncremental / DiscardPeriod), the gap-log pricing kernel, and the
// persistent per-manager scratch that makes the hot path allocation-free.
//
// The period's references accumulate in lrusim.DepthHist's per-bank
// buckets and gap stream as they are ingested; at the boundary the
// manager reduces them to a depthProfile (integer prefix sums over only
// the reached banks) plus the bank-space gap log, so a boundary costs
// O(banks reached + gaps), neither O(references) nor O(installed banks).
// Per-candidate floating-point reductions inside the kernel fold
// emissions in chronological order, which is exactly the order a replay
// of the period at that size visits its idle intervals. The test oracle
// in oracle_test.go keeps both that replay and a batch Decide that
// rebuilds the same input form from a whole period log; the equivalence
// is bit-exact, not approximate (see TestDecideIncrementalMatchesBatch
// and TestDecideSweepMatchesReplay).

// DecideMode is deprecated and ignored: DecideIncremental is the only
// Decide. The type and ModeIncremental remain so that configurations
// naming them still compile.
type DecideMode int

// ModeIncremental is deprecated and ignored (see DecideMode).
const ModeIncremental DecideMode = 1

// decideInput is the kernel's form of one period's observation: the
// scalar inputs, the integer depth profile, and the bank-space gap log.
type decideInput struct {
	obs      Observation
	logLen   int               // references observed (hist.Refs())
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
	prof  depthProfile
	sweep lrusim.EventSweeper
	in    decideInput

	slateBanks []int32
	tcs        []TimeoutChoice
	nds        []int64
	to, ts     []float64 // chosen timeouts / tail excess per candidate
	to2, ts2   []float64 // unclamped-timeout attribution pass, then each ladder level's
	hcnt, h2   []int64
	clamp2     []bool // per candidate: the floor clamped the ladder level's timeout

	seen  []bool // indexed by bank count; set by a search, cleared at its end
	slate []int
	all   []Candidate
	order []int32 // s.all's indices in ascending bank order
}

// ingestBlock is how many depth runs Reference queues for IngestBatch:
// enough to amortise its per-call work, few enough that the queue stays
// a few KB per manager, which a daemon pays once per shard.
const ingestBlock = 256

// Reference runs one request of n pages from first, made at time t,
// through the extended-LRU stack and returns its depth runs
// (lrusim.StackSim.ReferenceRange) for the host's own hit model, valid
// until the next Reference, Flush or Close. It queues them for
// IngestBatch, which it calls first when the request might not fit in
// the queue: ingestBlock runs, or a larger request's. Requests must
// arrive in time order.
func (m *Manager) Reference(t simtime.Seconds, first int64, n int) []lrusim.DepthRun {
	if len(m.queue)+n > cap(m.queue) {
		m.Flush()
	}
	k := len(m.queue)
	m.queue = m.stack.ReferenceRange(m.queue, t, first, n)
	return m.queue[k:]
}

// Prefetch loads the stack's page-table slot of page, the first page of
// a request about to be referenced (lrusim.StackSim.Prefetch), so that
// a host prefetching the next lrusim.LookAhead requests overlaps their
// cache misses.
func (m *Manager) Prefetch(page int64) { m.stack.Prefetch(page) }

// Flush ingests the queued depth runs. A host that hands the manager a
// block of requests at a time may flush at the end of the block, so the
// block's ingest is done within it.
func (m *Manager) Flush() {
	m.IngestBatch(m.queue)
	m.queue = m.queue[:0]
}

// Close ends the period that ends at end, one Period after it began: it
// ingests the queued runs, then drops the period unexamined when the
// host's warmup verdict says so, returning the decision in force, or
// decides from the period's references. The host passes what only it
// measures: coalesce, pages per disk request, and curBanks, the banks
// enabled while the period ran (see Observation).
func (m *Manager) Close(end simtime.Seconds, warmup bool, coalesce float64, curBanks int) Decision {
	m.Flush()
	if warmup {
		m.DiscardPeriod()
		return m.last
	}
	var refs int64
	if m.hist != nil {
		refs = m.hist.Refs()
	}
	return m.DecideIncremental(Observation{
		CacheAccesses:  refs,
		CoalesceFactor: coalesce,
		PeriodStart:    end - m.p.Period,
		PeriodEnd:      end,
		CurrentBanks:   curBanks,
	})
}

// IngestBatch streams a time-ordered block of depth runs, each page of
// which moved PageSize bytes, into the incremental observation state,
// with the per-page work done once per run (see
// lrusim.DepthHist.ObserveRuns). The resulting state is bit-identical to
// ingesting the runs' pages one at a time, in any split into blocks. The
// accumulated state is consumed (and cleared) by the next
// DecideIncremental or DiscardPeriod call. Flush calls it with the runs
// Reference queued.
//
// With a SpanHook configured, IngestBatch accumulates its wall time into
// the period's "ingest" span, flushed to the hook at the boundary that
// consumes the references; without one it takes no clock readings.
func (m *Manager) IngestBatch(runs []lrusim.DepthRun) {
	if len(runs) == 0 {
		return
	}
	h := m.histogram()
	if m.p.SpanHook == nil {
		h.ObserveRuns(runs, m.p.PageSize)
		return
	}
	start := time.Now()
	h.ObserveRuns(runs, m.p.PageSize)
	m.ingestNs += time.Since(start).Nanoseconds()
}

// histogram returns the open period's depth histogram, creating it on
// first use.
func (m *Manager) histogram() *lrusim.DepthHist {
	if m.hist == nil {
		m.hist = lrusim.NewDepthHist(m.p.bankPages(), m.p.TotalBanks, m.p.MinBanks, m.p.Window)
	}
	return m.hist
}

// flushIngestSpan delivers the accumulated ingest span for the period
// being consumed and resets the accumulator.
func (m *Manager) flushIngestSpan() {
	if hook := m.p.SpanHook; hook != nil {
		hook(SpanIngest, m.ingestNs)
		m.ingestNs = 0
	}
}

// DiscardPeriod drops the references ingested since the last decision
// without deciding: how a host skips a warmup period unexamined.
func (m *Manager) DiscardPeriod() {
	if m.hist != nil {
		m.hist.Reset()
	}
	m.flushIngestSpan()
}

// DecideIncremental evaluates the references streamed through
// IngestBatch since the previous period boundary, with the scalar
// calibration inputs o carries (CacheAccesses, CoalesceFactor, period
// bounds, CurrentBanks), and returns the sizing and timeout for the next
// period. It costs O(banks reached + gaps), not O(references), and clears
// the ingested state for the next period.
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
// default RefitDriftFrac = 0 the shortcut is disabled and every period
// runs the full search.
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
	if !c.Feasible || c.OverBudget || (!c.FitOK && c.DiskAccesses > 0) || !finitePower(&c) {
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
	m.recordDecision(&d)
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
	m.recordDecision(&d)
	if m.p.DecisionTrace.Enabled() {
		m.emitEmptyTrace(o, logLen, d)
	}
	return d
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
// queries clamp to their length. The count prefix keeps one bucket more:
// the deep bucket when n is the installed banks.
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

// decideFrom is the decision driver: the coarse-to-fine slate search,
// hysteresis, candidate ordering, and the fallback ladder, over a
// pre-reduced input.
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

	// prevBanks is the size the hysteresis test weighs the winner
	// against: the previous decision's, clamped into range; -1 with
	// hysteresis off or no previous size.
	prevBanks := -1
	if m.p.HysteresisFrac >= 0 && m.last.Banks > 0 {
		prevBanks = min(max(m.last.Banks, m.p.MinBanks), m.p.TotalBanks)
	}

	// Coarse-to-fine search at EnumUnit granularity. The energy curve is
	// evaluated on a shrinking grid around the best point; each pass costs
	// one fold of the gap log for its whole candidate slate. The incumbent
	// is tracked by its index in s.all.
	lo, hi := m.p.MinBanks, hiBanks
	best, rider := -1, -1
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
		final := stepBanks <= unitBanks
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
		// The rider: when no pass has priced prevBanks, the final pass
		// prices it as one more lane, in ascending place, rather than a
		// fold of its own after the search. Each lane's reductions read
		// only its own emissions, in log order, so the rider and the
		// other lanes price exactly as they would apart. The rider takes
		// no part in the search, and the hysteresis test below always
		// reads it, since the winner cannot be m.last.Banks: the winner
		// is a priced size, prevBanks is not, and when the clamp moved
		// prevBanks, m.last.Banks lies outside the range of every size
		// priced.
		r := -1
		if final && prevBanks >= 0 && !s.seen[prevBanks] {
			r, _ = slices.BinarySearch(s.slate, prevBanks)
			s.slate = slices.Insert(s.slate, r, prevBanks)
		}
		base := len(s.all)
		s.all = growCandidates(s.all, len(s.slate))
		m.evalSlate(in, s.slate, s.all[base:])
		if r >= 0 {
			rider = base + r
		}
		for i := base; i < len(s.all); i++ {
			if i == rider {
				continue
			}
			evaluated++
			if best < 0 || m.betterCand(&s.all[i], &s.all[best]) {
				best = i
			}
		}
		if final {
			break
		}
		// Narrow to one step either side of the incumbent.
		lo = s.all[best].Banks - stepBanks
		hi = s.all[best].Banks + stepBanks
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
	if prevBanks >= 0 && s.all[best].Banks != m.last.Banks {
		h := m.p.HysteresisFrac
		if h == 0 {
			h = 0.05
		}
		prev := rider
		if prev >= 0 {
			evaluated++
		} else { // a pass priced prevBanks
			for i := range s.all {
				if s.all[i].Banks == prevBanks {
					prev = i
					break
				}
			}
		}
		pc, bc := &s.all[prev], &s.all[best]
		hold := pc.Feasible && bc.Feasible &&
			float64(bc.TotalPower) > (1-h)*float64(pc.TotalPower)
		if m.budgetActive() {
			// A power budget overrides size inertia in both directions:
			// never hold an over-budget previous size against a
			// within-budget winner, and always hold a within-budget
			// previous size when the winner itself blew the budget.
			if pc.OverBudget && !bc.OverBudget {
				hold = false
			} else if pc.Feasible && !pc.OverBudget && bc.OverBudget {
				hold = true
			}
		}
		if hold {
			best = prev
			held = true
			m.met.hysteresis.Inc()
		}
	}
	return m.finishDecision(in, &s.all[best], evaluated, held)
}

// finishDecision turns the search's outcome into the period's Decision:
// best is the chosen candidate (in s.all), evaluated the sizes priced
// and held whether hysteresis kept the previous size. It clears the
// search's seen marks, orders the candidates, applies the fallback
// ladder, and records, traces and keeps the decision.
func (m *Manager) finishDecision(in *decideInput, best *Candidate, evaluated int, held bool) Decision {
	s := &m.scratch
	// Clear only what this search set: every size it priced is in s.all.
	for i := range s.all {
		s.seen[s.all[i].Banks] = false
	}

	// Candidates leave the scratch slab as one right-sized copy, sorted
	// ascending by size. The insertion sort moves int32 indices, not whole
	// Candidates, and each candidate is then copied into place once; bank
	// counts are unique, so the order is deterministic.
	order := s.order[:0]
	for i := range s.all {
		order = append(order, int32(i))
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && s.all[order[j]].Banks < s.all[order[j-1]].Banks; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	s.order = order
	cands := make([]Candidate, len(order))
	for i, k := range order {
		cands[i] = s.all[k]
	}
	d := Decision{
		Banks:      best.Banks,
		Pages:      best.Pages,
		Timeout:    best.Timeout,
		Level:      best.Level,
		Chosen:     *best,
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
	m.recordDecision(&d)
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
// len(banks)). It folds each candidate's idle-interval statistics
// straight out of the pre-built bank-space gap log (one remapped
// reduction per pass, O(kept gaps) regardless of slate), then prices
// every candidate from those reductions — no interval list is ever
// materialised. The oracle's per-candidate log replay, the paper's
// literal procedure, prices bit-identical candidates.
func (m *Manager) evalSlate(in *decideInput, banks []int, out []Candidate) {
	if len(banks) == 0 {
		return
	}
	m.priceSlate(in, banks, out)
	// Speed refinement: price every slate slot at the other ladder levels
	// and keep each size's cheapest (m, t_o, l). Runs after phase 4 so it
	// can reuse the to2/ts2/h2 scratch; with a single-level ladder this
	// is one false branch and the slate above is untouched (see speed.go).
	if m.speedEnabled() {
		m.refineSlateLevels(in, out)
	}
	m.countOverBudget(out)
}

// priceSlate is evalSlate up to the ladder: the slate's gap-log folds
// and every candidate priced at full speed (level 0).
func (m *Manager) priceSlate(in *decideInput, banks []int, out []Candidate) {
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
		s.clamp2 = make([]bool, k, kk)
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
	s.clamp2 = s.clamp2[:k]
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
		if m.priceStats(&out[i], in, banks[i], s.nds[i], sw.Cnt[i], sw.Sum[i], &s.tcs[i], s.ts[i], s.hcnt[i]) {
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
	// live.
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
}

// chooseTimeoutStats is ChooseTimeout on pre-reduced interval statistics:
// ni intervals with minimum minGap and total sumGap, accumulated in
// chronological order. Shares finishTimeout with ChooseTimeout so the two
// entry points are bit-identical on the same sample.
func (m *Manager) chooseTimeoutStats(ni int64, minGap, sumGap float64, nd, cacheAccesses int64, span float64) TimeoutChoice {
	fit, err := pareto.FitStats(ni, minGap, sumGap, float64(m.p.Window))
	return m.finishTimeout(fit, err, ni, nd, cacheAccesses, span)
}

// priceStats prices one candidate into c — Pareto fit, timeout choice,
// M/G/1 wait (left to the refinement under a ladder), utilization test,
// and energy — from streaming reductions: nd and the profile's byte
// queries, ni/covered from the gap-log fold, the timeout choice, and the
// tail excess (tailTS, tailH) from the emission pass. The oracle's price
// does the identical arithmetic over a materialised interval list. The
// return value asks the caller to run the delay-cap attribution pass for
// this candidate.
//
// The timeout is chosen from the Pareto model as the paper derives; the
// candidate's power is then valued against the reconstructed intervals
// themselves rather than the fitted tail. With the small per-period
// interval counts a server sees at well-chosen memory sizes, the fitted
// tail's extrapolated off-time is far noisier than the intervals it was
// fitted from; valuing empirically keeps the size comparison honest while
// the closed-form optimum still sets the timeout. DiskPMPowerModel in
// this package exposes the pure eq. 4 valuation for analysis.
func (m *Manager) priceStats(c *Candidate, in *decideInput, banks int, nd, ni int64, covered float64, tc *TimeoutChoice, tailTS float64, tailH int64) bool {
	p := &m.p
	pages := int64(banks) * p.bankPages()
	*c = Candidate{Banks: banks, Pages: pages}
	c.DiskAccesses = nd
	c.IdleCount = int(ni)
	c.MissBytes = in.prof.missBytes(banks)
	// Refill band: distinct pages the stack model counts as hits but that
	// the real cache, currently holding only CurrentBanks banks, must
	// re-fetch once while re-populating the grown region.
	c.RefillBytes = in.prof.refillBytes(in.obs.CurrentBanks, banks)

	// Normalise rates over the observed span: the period length, or the
	// idle time actually covered when it extends further (as offline
	// analyses over multi-period streams do).
	T := float64(p.Period)
	if covered > T {
		T = covered
	}
	spec := &p.DiskSpec
	pd := float64(spec.StaticPower())
	tbe := float64(spec.BreakEven())

	// Disk dynamic power from predicted busy time. Seek/rotation costs are
	// paid per coalesced request, calibrated by the observed coalescing.
	// The refill cost of growing is a one-time transient: it is charged to
	// the energy estimate amortized over a few periods (so oscillating
	// does not look free), but NOT to the utilization feasibility test —
	// gating growth on a one-period burst would trap the manager at a
	// small size forever.
	requests := float64(nd) / in.obs.CoalesceFactor
	busy := busySeconds(requests, spec.SeekTime+spec.RotationalLatency, c.MissBytes, spec.TransferRate)
	c.Utilization = busy / T
	// Under a ladder the refinement sets the wait of the winning level.
	if requests > 0 && !m.speedEnabled() {
		c.PredictedWait = predictedWait(requests, busy, T)
	}
	refillPages := float64(c.RefillBytes) / float64(p.PageSize)
	refillBusy := busySeconds(refillPages/in.obs.CoalesceFactor, spec.SeekTime+spec.RotationalLatency,
		c.RefillBytes, spec.TransferRate)
	c.DiskDynPower = simtime.Watts((busy + refillBusy/refillAmortizePeriods) / T * float64(spec.DynamicPower()))

	// The timeout tc chose (t_o = α·t_be under the eq. 6 floor), valued
	// against the observed intervals: spinning down must beat staying on
	// or it is disabled.
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
		// Attribute the loss: if spin-down at the unclamped
		// t_o = α·t_be would have won, the delay cap D is what priced
		// this candidate out of sleeping (evalSlate's phase 4 checks).
		if m.met.rejectedDelay != nil && tc.Clamped {
			attribute = true
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
	m.applyBudget(c)
	m.met.candidates.Inc()
	if !c.Feasible {
		m.met.rejectedUtil.Inc()
	}
	return attribute
}
