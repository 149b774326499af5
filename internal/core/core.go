// Package core implements the paper's contribution: the joint power
// manager that, once per period, chooses the disk-cache size and the disk
// spin-down timeout minimising total (memory + disk) energy subject to
// performance constraints (Section IV).
//
// Inputs per period are exactly what the paper's manager collects: the
// previous period's disk-cache access log annotated with LRU stack depths
// (from the extended LRU list), which lets the manager reconstruct — for
// any candidate memory size — the disk accesses and idle intervals that
// size would have produced (Fig. 3/4). Idle intervals are modelled as a
// Pareto distribution (Fig. 5); the energy-optimal timeout is t_o = α·t_be
// (eq. 5) and the performance constraint of eq. 6 imposes a lower floor on
// the timeout. Candidate sizes are enumerated at the resize-unit
// granularity and the feasible minimum-energy pair (m, t_o) wins.
package core

import (
	"fmt"
	"math"
	"time"

	"jointpm/internal/disk"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/obs"
	"jointpm/internal/pareto"
	"jointpm/internal/qmodel"
	"jointpm/internal/simtime"
)

// Params holds the joint manager's configuration (paper Table II).
type Params struct {
	Period      simtime.Seconds // T: adaptation period
	Window      simtime.Seconds // w: aggregation window for idle intervals
	UtilCap     float64         // U: disk utilization limit
	DelayCap    float64         // D: limit on delayed-request ratio
	LongLatency simtime.Seconds // latency counted as "delayed" (0.5 s)

	PageSize   simtime.Bytes
	BankSize   simtime.Bytes
	TotalBanks int
	EnumUnit   simtime.Bytes // memory-size enumeration granularity (bank multiple)
	MinBanks   int           // smallest cache the manager will choose, in [0, TotalBanks]

	DiskSpec disk.Spec
	MemSpec  mem.Spec

	// SpeedLevels is the disk's DRPM speed ladder, fastest first; level 0
	// must carry the base DiskSpec's constants verbatim. With zero or one
	// level the speed dimension is absent from the slate and every code
	// path is bit-identical to a build without it; with ≥2 levels each
	// candidate size is additionally priced at every level (see speed.go)
	// and the winner carries its chosen level. Ladders are normally built
	// by drpm.DeriveLevels from the DiskSpec.
	SpeedLevels []disk.SpeedLevel
	// SpeedTransitionPerRPM is the time to change rotational speed per
	// RPM of difference, priced into cross-level candidates as a one-off
	// premium for the coming period (see priceLevel).
	SpeedTransitionPerRPM simtime.Seconds

	// MaxCandidatesPerPass bounds one enumeration pass (at least 2); the
	// search uses coarse-to-fine refinement to reach EnumUnit granularity
	// without replaying the log for thousands of sizes.
	MaxCandidatesPerPass int

	// EvalWorkers is retained for configuration compatibility. The slate
	// kernel now folds per-candidate statistics during the sweep itself,
	// so there is no per-candidate pricing fan-out left to parallelise;
	// the field is ignored.
	EvalWorkers int

	// RefitDriftFrac enables the incremental path's steady-state
	// shortcut: when positive, DecideIncremental first re-prices only the
	// previously chosen size and, if its estimated total power moved by
	// less than this fraction since the last full search, keeps that size
	// (with the fresh period's re-fitted timeout) without re-running the
	// slate search. Zero (the default) disables the shortcut, keeping
	// DecideIncremental bit-identical to batch Decide;
	// DefaultRefitDriftFrac is the recommended value for hosts that opt
	// in (the CLIs' -refit-drift flag).
	RefitDriftFrac float64

	// SequentialReplay restores the pre-sweep evaluation path — one full
	// log replay per candidate size instead of the shared multi-threshold
	// sweep — for ablation benchmarks and the equivalence tests. The two
	// paths produce bit-identical decisions.
	SequentialReplay bool

	// HysteresisFrac stabilises the sizing across periods: the manager
	// moves away from its previous size only when the best candidate's
	// estimated total power improves on the previous size's by more than
	// this fraction. Re-sizing is not free — a grown cache re-fetches its
	// new region, a shrunk cache sheds pages it may want back — so
	// chasing sub-percent estimate noise costs real energy. Negative
	// disables hysteresis; zero means the default (5%).
	HysteresisFrac float64

	// Ablation switches, used by the ablation benchmarks to isolate the
	// contribution of individual design elements. Both default off.
	//
	// FixedTimeout replaces the Pareto-derived t_o = α·t_be (eq. 5) with
	// the two-competitive timeout t_be. NoConstraintFloor drops the
	// eq. 6 performance floor on the timeout.
	FixedTimeout      bool
	NoConstraintFloor bool

	// Metrics receives the manager's decision telemetry (counters,
	// gauges, histograms; names in DESIGN.md). Nil disables collection:
	// every hook degrades to a nil-receiver no-op, adding nothing to the
	// decision hot path.
	Metrics *obs.Registry

	// DecisionTrace journals one structured JSONL record per Decide
	// call. Nil disables the journal; the sink itself is buffered and
	// non-blocking, so an attached journal never stalls a decision.
	DecisionTrace *obs.DecisionSink

	// SpanHook receives the manager's lifecycle span timings: one
	// ("decide", wall ns) per Decide/DecideIncremental call and one
	// ("ingest", accumulated wall ns) per period at the boundary that
	// consumes the ingested references. Nil disables span timing
	// entirely — the hot path takes no clock readings, so the disabled
	// configuration is byte-identical to a build without the hook.
	SpanHook func(span string, ns int64)
}

// Span names delivered to Params.SpanHook.
const (
	SpanDecide = "decide"
	SpanIngest = "ingest"
)

// DefaultParams returns the paper's Table II values for the given
// hardware shape.
func DefaultParams(pageSize, bankSize simtime.Bytes, totalBanks int, dspec disk.Spec, mspec mem.Spec) Params {
	return Params{
		Period:               600,
		Window:               0.1,
		UtilCap:              0.10,
		DelayCap:             0.001,
		LongLatency:          0.5,
		PageSize:             pageSize,
		BankSize:             bankSize,
		TotalBanks:           totalBanks,
		EnumUnit:             bankSize,
		MinBanks:             1,
		DiskSpec:             dspec,
		MemSpec:              mspec,
		MaxCandidatesPerPass: 32,
		HysteresisFrac:       0.05,
	}
}

func (p Params) bankPages() int64 { return int64(p.BankSize / p.PageSize) }

// refillAmortizePeriods spreads the one-time cost of re-populating a
// grown cache over this many future periods when pricing candidates.
// Charging it all to one period would make useful growth look worse than
// it is; charging nothing lets noisy periods oscillate the size for free.
const refillAmortizePeriods = 4

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.Period <= 0:
		return fmt.Errorf("core: period %v must be positive", p.Period)
	case p.Window < 0:
		return fmt.Errorf("core: window %v must be non-negative", p.Window)
	case p.UtilCap <= 0 || p.UtilCap > 1:
		return fmt.Errorf("core: utilization cap %g outside (0,1]", p.UtilCap)
	case p.DelayCap <= 0:
		return fmt.Errorf("core: delay cap %g must be positive", p.DelayCap)
	case p.PageSize <= 0 || p.BankSize < p.PageSize:
		return fmt.Errorf("core: bad page/bank sizes %v/%v", p.PageSize, p.BankSize)
	case p.BankSize%p.PageSize != 0:
		return fmt.Errorf("core: bank size %v not a page multiple", p.BankSize)
	case p.TotalBanks < 1:
		return fmt.Errorf("core: total banks %d", p.TotalBanks)
	case p.EnumUnit < p.BankSize || p.EnumUnit%p.BankSize != 0:
		return fmt.Errorf("core: enum unit %v not a bank multiple", p.EnumUnit)
	case p.MinBanks < 0 || p.MinBanks > p.TotalBanks:
		return fmt.Errorf("core: MinBanks %d outside [0, %d]", p.MinBanks, p.TotalBanks)
	case p.MaxCandidatesPerPass < 2:
		// A pass spans its range in MaxCandidatesPerPass-1 steps.
		return fmt.Errorf("core: MaxCandidatesPerPass %d must be at least 2", p.MaxCandidatesPerPass)
	}
	if len(p.SpeedLevels) > 0 {
		if p.SpeedTransitionPerRPM < 0 || math.IsNaN(float64(p.SpeedTransitionPerRPM)) {
			return fmt.Errorf("core: speed transition rate %v s/RPM must be non-negative", p.SpeedTransitionPerRPM)
		}
		for i, l := range p.SpeedLevels {
			if !(l.IdlePower > p.DiskSpec.StandbyPower) {
				return fmt.Errorf("core: speed level %d idle power %v must exceed standby power %v",
					i, l.IdlePower, p.DiskSpec.StandbyPower)
			}
			if !(l.TransferRate > 0) {
				return fmt.Errorf("core: speed level %d transfer rate %g must be positive", i, l.TransferRate)
			}
		}
	}
	return nil
}

// Observation is what the manager sees at a period boundary: the period's
// depth-annotated access log plus measured calibration inputs.
type Observation struct {
	// Log must be the complete depth stream of one lrusim.StackSim over
	// the period, in reference order: the manager reads each page's first
	// touch in the period off the depths (see lrusim.DepthHist).
	Log           []lrusim.DepthRecord
	CacheAccesses int64 // N: all accesses to the disk cache in the period
	// CoalesceFactor is pages-per-disk-request measured last period (≥ 1);
	// it calibrates how many seeks the predicted misses will cost.
	CoalesceFactor float64
	// PeriodStart/PeriodEnd bound the observation window so the idle time
	// before the first and after the last disk access counts as idleness.
	// Both zero means "use the log's own extent" (no boundary gaps).
	PeriodStart, PeriodEnd simtime.Seconds
	// CurrentBanks is the resident cache size while the log was recorded.
	// Growing beyond it is not free: ghost pages between the current size
	// and a larger candidate are NOT resident and must be re-fetched once,
	// a transition cost the stack model's inclusion assumption hides. The
	// manager charges candidates for it (see evaluate); without the
	// charge, noisy periods make the sizing oscillate and every regrowth
	// pays a refill storm. Zero means "no refill accounting".
	CurrentBanks int
}

// Candidate is the evaluation of one memory size (public for the
// capacity example and for tests).
type Candidate struct {
	Banks        int
	Pages        int64
	DiskAccesses int64 // predicted page misses n_d
	MissBytes    simtime.Bytes
	RefillBytes  simtime.Bytes // one-time re-fetch cost of growing to this size
	IdleCount    int           // n_i
	Fit          pareto.Dist
	FitOK        bool
	Timeout      simtime.Seconds // chosen t_o (after constraint floor)
	TimeoutFloor simtime.Seconds // eq. 6 lower bound
	// FloorClamped reports that the eq. 6 floor raised this candidate's
	// timeout above the unconstrained optimum t_o = α·t_be.
	FloorClamped bool
	Utilization  float64
	// PredictedWait is an M/G/1 (Pollaczek–Khinchine) estimate of the
	// mean disk queueing delay at this size — the quantitative form of
	// the paper's "high utilization causes long latency". Diagnostic
	// only; feasibility uses the paper's utilization cap.
	PredictedWait simtime.Seconds
	DiskPMPower   simtime.Watts // eq. 4: static + transition
	DiskDynPower  simtime.Watts
	MemPower      simtime.Watts // static nap power of enabled banks
	TotalPower    simtime.Watts
	Feasible      bool
	// OverBudget marks a candidate whose TotalPower exceeds the fleet
	// coordinator's per-shard power budget (see SetPowerBudget). Feasible
	// keeps its paper meaning (the utilization cap); the decision ordering
	// is what demotes over-budget candidates. Always false when no budget
	// is installed, so unbudgeted runs are bit-identical to before the
	// fleet layer existed.
	OverBudget bool
	// Energy-attribution inputs (see Decision.PricedLedger): the span the
	// powers were normalised over, and — when spin-down won — the
	// predicted spin-up count and standby seconds at the chosen timeout.
	// SpinUps/StandbyS stay zero when spin-down is disabled.
	SpanS    simtime.Seconds
	SpinUps  int64
	StandbyS simtime.Seconds
	// Level is the DRPM speed-ladder index this candidate was priced at
	// (0 = full speed, and always 0 without a ladder — see
	// Params.SpeedLevels).
	Level int
}

// Decision is the manager's output for the coming period.
type Decision struct {
	Banks      int
	Pages      int64
	Timeout    simtime.Seconds
	Chosen     Candidate
	Evaluated  int         // candidates examined across refinement passes
	Candidates []Candidate // all evaluated candidates, ascending by size
	// Fallback reports that degraded inputs — a degenerate Pareto fit on
	// a winner that predicted disk activity, or non-finite pricing — made
	// the manager distrust this period's search and hold its previous configuration
	// (or the initial all-banks/t_be default when there is no history).
	// Banks/Pages/Timeout carry the held configuration; Chosen still
	// carries the distrusted winner for introspection.
	Fallback bool
	// BudgetW echoes the per-shard power budget the decision was made
	// under (0: unconstrained), and OverBudget reports the graceful
	// slack-cap fallback: every candidate priced above the budget, so the
	// manager proceeded with the best uncapped choice rather than wedge.
	// Fleet cap-compliance accounting excludes such periods.
	BudgetW    float64
	OverBudget bool
	// Level is the DRPM speed level the disk should run the coming period
	// at (0 = full speed, and always 0 without a ladder). On a fallback
	// decision it holds the previous period's level, matching how
	// Banks/Timeout hold.
	Level int
}

// Manager evaluates observations into decisions. It is deterministic and
// stateless between periods apart from remembering its last decision and,
// on the incremental path, the depth histogram accumulated by Ingest. A
// Manager owns reusable decision scratch and must not be driven from
// multiple goroutines concurrently.
type Manager struct {
	p    Params
	last Decision
	met  coreMetrics

	hist    *lrusim.DepthHist // incremental observation state; nil until Ingest
	scratch decideScratch

	// budgetW is the fleet coordinator's per-shard power budget in watts;
	// 0 (the default) disables the constraint entirely. See budget.go.
	budgetW float64

	// ingestNs accumulates the current period's ingest span wall time;
	// only touched when p.SpanHook is set (see Ingest/flushIngestSpan).
	ingestNs int64
}

// NewManager validates params and creates a manager whose initial
// decision is "all banks enabled, two-competitive timeout" — the safe
// default the first period runs with.
func NewManager(p Params) (*Manager, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{p: p, met: newCoreMetrics(p.Metrics)}
	m.last = Decision{
		Banks:   p.TotalBanks,
		Pages:   int64(p.TotalBanks) * p.bankPages(),
		Timeout: p.DiskSpec.BreakEven(),
	}
	return m, nil
}

// Params returns the manager's configuration.
func (m *Manager) Params() Params { return m.p }

// DefaultRefitDriftFrac is the recommended drift-hold fraction for hosts
// that enable the steady-state refit shortcut: a held decision's
// re-priced power may drift up to 5% from the last full search before a
// full slate search is forced — tight enough that the energy left on the
// table is bounded by the same margin the sizing hysteresis already
// tolerates.
const DefaultRefitDriftFrac = 0.05

// SetRefitDriftFrac adjusts the drift-hold fraction of a live manager
// (negative is clamped to 0 = disabled). The daemon uses it on restore
// so a warm restart keeps the snapshot's decide mode.
func (m *Manager) SetRefitDriftFrac(f float64) {
	if f < 0 || math.IsNaN(f) {
		f = 0
	}
	m.p.RefitDriftFrac = f
}

// Last returns the most recent decision.
func (m *Manager) Last() Decision { return m.last }

// Decide evaluates one period's observation and returns the sizing and
// timeout for the next period. One fused pass over the log reduces it to
// the kernel's input form (depth profile, compressed event stream); the
// search itself is shared with DecideIncremental (see decideFrom).
func (m *Manager) Decide(obs Observation) Decision {
	hook := m.p.SpanHook
	if hook == nil {
		return m.decideBatch(obs)
	}
	start := time.Now()
	d := m.decideBatch(obs)
	hook(SpanDecide, time.Since(start).Nanoseconds())
	return d
}

func (m *Manager) decideBatch(obs Observation) Decision {
	m.met.decisions.Inc()
	if len(obs.Log) == 0 || obs.CacheAccesses == 0 {
		// Nothing happened: the cheapest configuration is the smallest
		// cache with the disk allowed to sleep through the whole period.
		return m.emptyDecision(obs, len(obs.Log))
	}
	if obs.CoalesceFactor < 1 {
		obs.CoalesceFactor = 1
	}
	return m.decideFrom(m.buildInput(&obs))
}

// depthProfile is the per-decision aggregation of a period log: bytes of
// all references and of first-per-page references, bucketed by the bank
// their depth falls in. It makes the per-candidate byte queries O(1):
//
//   - a candidate of b banks misses every cold reference plus every
//     reference deeper than b banks (missBytes);
//   - growing from r to b banks re-fetches each distinct page whose
//     depth lies in (r·bankPages, b·bankPages] exactly once, which the
//     first-access-per-page bytes approximate exactly (a page's first
//     reference in the period carries its true resident depth; later
//     references are shallow re-touches that would hit after the
//     refill).
//
// First accesses are told from the depths alone, by lrusim.DepthHist's
// rule, so the log must be the complete depth stream of one StackSim over
// the period, in reference order.
//
// The prefix arrays may stop at any n banks that hold every non-cold
// reference up to the deep bucket (batch fills all installed banks, the
// incremental path only the reached ones): the queries clamp past the
// arrays' length, so a shorter profile answers every size identically.
type depthProfile struct {
	bankPages    int64
	cold         simtime.Bytes
	coldCount    int64
	total        simtime.Bytes // all non-cold reference bytes
	nonColdCount int64
	cumTotal     []simtime.Bytes // cumTotal[b]: non-cold bytes at depth ≤ b banks
	cumFirst     []simtime.Bytes // cumFirst[b]: first-access bytes at depth ≤ b banks
	// cumCount[b]: non-cold references at depth ≤ b banks, with one extra
	// entry past the byte arrays' (the deep bucket, maxBanks+1, in a full
	// profile) so cumCount[n+1] == nonColdCount even when the stack tracks
	// pages beyond the installed banks. It makes the per-candidate
	// disk-access count an O(1) integer query.
	cumCount []int64
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

// missBytes returns the predicted bytes missed at a capacity of banks.
func (p *depthProfile) missBytes(banks int) simtime.Bytes {
	if banks >= len(p.cumTotal) {
		banks = len(p.cumTotal) - 1
	}
	if banks < 0 {
		banks = 0
	}
	return p.cold + p.total - p.cumTotal[banks]
}

// refillBytes returns the one-time re-fetch bytes of growing from
// current to banks.
func (p *depthProfile) refillBytes(current, banks int) simtime.Bytes {
	if current <= 0 || banks <= current {
		return 0
	}
	clamp := func(b int) int {
		if b >= len(p.cumFirst) {
			return len(p.cumFirst) - 1
		}
		return b
	}
	return p.cumFirst[clamp(banks)] - p.cumFirst[clamp(current)]
}

// diskAccesses returns the predicted page misses n_d at a capacity of
// banks: every cold reference plus every non-cold reference deeper than
// banks. Equals what replaying the log at that capacity would count.
func (p *depthProfile) diskAccesses(banks int) int64 {
	if banks > len(p.cumCount)-2 {
		banks = len(p.cumCount) - 2
	}
	if banks < 0 {
		banks = 0
	}
	return p.coldCount + p.nonColdCount - p.cumCount[banks]
}

// better orders candidates: feasibility first, then lower power, with a
// small-memory tie-break ("smaller memory size should be chosen for the
// same disk IO").
func better(a, b Candidate) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if a.Feasible {
		const eps = 1e-9
		if math.Abs(float64(a.TotalPower-b.TotalPower)) > eps {
			return a.TotalPower < b.TotalPower
		}
		return a.Banks < b.Banks
	}
	// Both infeasible: prefer the lower utilization (closest to feasible).
	return a.Utilization < b.Utilization
}

// evaluate prices one candidate size: replay the log at that size,
// reconstruct idle intervals (including the period-boundary gaps), fit
// the Pareto model to choose the timeout (eq. 5 with the eq. 6 floor),
// and assemble the power estimate.
//
// The timeout is chosen from the Pareto model as the paper derives; the
// candidate's power is then valued against the reconstructed intervals
// themselves rather than the fitted tail. With the small per-period
// interval counts a server sees at well-chosen memory sizes, the fitted
// tail's extrapolated off-time is far noisier than the intervals it was
// fitted from; valuing empirically keeps the size comparison honest while
// the closed-form optimum still sets the timeout. DiskPMPowerModel in
// this package exposes the pure eq. 4 valuation for analysis.
func (m *Manager) evaluate(obs Observation, banks int, prof *depthProfile) Candidate {
	if prof == nil {
		prof = buildDepthProfile(obs.Log, m.p.bankPages(), m.p.TotalBanks)
	}
	start, end := m.bounds(obs)
	intervals, nd := lrusim.BoundedIdleIntervals(obs.Log, int64(banks)*m.p.bankPages(), m.p.Window, start, end)
	return m.price(obs, banks, prof, intervals, nd)
}

// bounds resolves the observation window passed to the idle-interval
// reconstruction (both zero means "use the log's own extent").
func (m *Manager) bounds(obs Observation) (start, end simtime.Seconds) {
	if obs.PeriodStart == 0 && obs.PeriodEnd == 0 {
		return -1, -1
	}
	return obs.PeriodStart, obs.PeriodEnd
}

// evaluateSlate prices one refinement pass's candidate sizes (ascending)
// through the shared event-stream kernel (see evalSlate), building the
// kernel input from the observation log. Decide itself builds the input
// once and calls evalSlate directly; this wrapper serves callers holding
// a raw observation — tests, and the hysteresis re-pricing path under
// SequentialReplay.
func (m *Manager) evaluateSlate(obs Observation, banks []int, prof *depthProfile) []Candidate {
	if obs.CoalesceFactor < 1 {
		obs.CoalesceFactor = 1
	}
	out := make([]Candidate, len(banks))
	if m.p.SequentialReplay {
		for i, b := range banks {
			out[i] = m.evaluate(obs, b, prof)
		}
		return out
	}
	in := m.buildInput(&obs)
	if prof != nil {
		in.prof = prof
	}
	m.evalSlate(in, banks, out)
	return out
}

// price does the per-candidate valuation — Pareto fit, timeout choice,
// M/G/1 wait, utilization test, and energy pricing — given the idle
// intervals and disk-access count reconstructed for this size. It must
// not retain or modify intervals: slate evaluation hands every candidate
// a view into pooled sweep buffers.
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
	return c
}

// finitePower reports that a candidate's pricing stayed numerically sane
// (its timeout may legitimately be +Inf when spin-down is disabled).
func finitePower(c Candidate) bool {
	return !math.IsNaN(c.Utilization) && !math.IsInf(c.Utilization, 0) &&
		!math.IsNaN(float64(c.TotalPower)) && !math.IsInf(float64(c.TotalPower), 0) &&
		!math.IsNaN(float64(c.Timeout))
}

// TimeoutChoice is the outcome of the Pareto timeout analysis for one
// disk's idle intervals.
type TimeoutChoice struct {
	Fit       pareto.Dist
	FitOK     bool
	Timeout   simtime.Seconds // t_o after applying the eq. 6 floor
	Floor     simtime.Seconds // eq. 6 lower bound (0 when inactive)
	Unclamped simtime.Seconds // t_o before the floor was applied
	Clamped   bool            // the floor raised Timeout above Unclamped
}

// ChooseTimeout runs the paper's timeout analysis (Section IV-C/D) on a
// set of idle intervals: fit a Pareto distribution, take t_o = α·t_be
// (eq. 5, or t_be under the FixedTimeout ablation), and raise it to the
// eq. 6 performance floor given nd disk accesses out of cacheAccesses
// cache accesses over a span of span seconds. The multi-disk extension
// uses this directly, once per spindle.
func (m *Manager) ChooseTimeout(intervals []float64, nd, cacheAccesses int64, span float64) TimeoutChoice {
	fit, err := pareto.FitMoments(intervals, float64(m.p.Window))
	return m.finishTimeout(fit, err, int64(len(intervals)), nd, cacheAccesses, span)
}

// finishTimeout is the fit-independent tail of the timeout analysis,
// shared by ChooseTimeout (interval list) and chooseTimeoutStats
// (streaming reductions) so both produce bit-identical choices: apply
// eq. 5, derive the eq. 6 floor from the interval count ni, and clamp.
func (m *Manager) finishTimeout(fit pareto.Dist, err error, ni, nd, cacheAccesses int64, span float64) TimeoutChoice {
	p := m.p
	spec := p.DiskSpec
	tbe := float64(spec.BreakEven())
	tc := TimeoutChoice{Timeout: simtime.Seconds(tbe), Unclamped: simtime.Seconds(tbe)}
	if err != nil {
		// Degenerate sample (empty, or mean not exceeding the scale):
		// there is no Pareto tail to derive t_o from. The candidate keeps
		// the 2-competitive t_be; if it wins the slate, Decide falls back
		// to the previous period's decision rather than trusting it.
		m.met.fitDegenerate.Inc()
		return tc
	}
	if !fit.Valid() {
		// The clamped fitters cannot produce this today, but a non-finite
		// or sub-critical fit must never reach the timeout arithmetic.
		m.met.fitDegenerate.Inc()
		return tc
	}
	tc.Fit = fit
	tc.FitOK = true
	to := tbe
	if !p.FixedTimeout {
		to = fit.Alpha * tbe
	}
	// Performance floor from eq. 6: n_i·Tail(t_o)·(t_tr−0.5)·n_d/T ≤ D·N.
	delayPerTransition := (float64(spec.SpinUpTime) - float64(p.LongLatency)) * float64(nd) / span
	if delayPerTransition > 0 && nd > 0 && !p.NoConstraintFloor {
		x := p.DelayCap * float64(cacheAccesses) /
			(float64(ni) * delayPerTransition)
		if x > 0 && x < 1 {
			tc.Floor = simtime.Seconds(fit.Beta * math.Pow(x, -1/fit.Alpha))
		}
	}
	tc.Unclamped = simtime.Seconds(to)
	if simtime.Seconds(to) < tc.Floor {
		to = float64(tc.Floor)
		tc.Clamped = true
		m.met.clamped.Inc()
	}
	tc.Timeout = simtime.Seconds(to)
	return tc
}

// EmpiricalPMPower values a disk's static + transition power for timeout
// to over a span of T seconds, directly against a sample of idle
// intervals (see empiricalPMPower). It lets callers outside the manager —
// the multi-disk extension sets one timeout per spindle — apply the same
// "spinning down must beat staying on" test the manager applies.
func EmpiricalPMPower(intervals []float64, to, T float64, spec disk.Spec) float64 {
	return empiricalPMPower(intervals, to, T,
		float64(spec.StaticPower()), float64(spec.BreakEven()))
}

// empiricalPMPower values the disk's static + transition power for
// timeout to directly against a sample of idle intervals: the disk is off
// for max(0, ℓ−to) of each interval and pays one break-even's worth of
// transition energy for each interval longer than to.
func empiricalPMPower(intervals []float64, to, T, pd, tbe float64) float64 {
	ts, h := empiricalPMStats(intervals, to)
	if ts > T {
		ts = T
	}
	return pd*(T-ts)/T + pd*tbe*float64(h)/T
}

// empiricalPMStats folds the tail reductions behind empiricalPMPower:
// the unclamped standby seconds Σ max(0, ℓ−to) and the spin-up count
// |{ℓ > to}|, in the intervals' own (chronological) order so the sum is
// bit-identical to the streaming kernel's TailStats fold.
func empiricalPMStats(intervals []float64, to float64) (ts float64, h int) {
	for _, l := range intervals {
		if l > to {
			ts += l - to
			h++
		}
	}
	return ts, h
}

// DiskPMPowerModel evaluates eq. 4 of the paper: the disk's static +
// transition power for timeout to under a fitted Pareto idle-interval
// distribution with ni intervals per period of length T. Exposed for
// analysis tools and tests; Decide values candidates empirically.
func DiskPMPowerModel(fit pareto.Dist, ni int, to, T float64, spec disk.Spec) float64 {
	pd := float64(spec.StaticPower())
	tbe := float64(spec.BreakEven())
	ts := float64(ni) * fit.ExpectedOffTime(to) // eq. 2
	if ts > T {
		ts = T
	}
	h := float64(ni) * fit.Tail(to) // eq. 3
	return pd*(T-ts)/T + pd*tbe*h/T
}
