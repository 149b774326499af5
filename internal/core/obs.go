package core

import (
	"sort"

	"jointpm/internal/obs"
)

// coreMetrics caches the manager's instruments, resolved once at
// construction so the decision hot path never touches the registry's
// mutex. With a nil registry every field is a nil instrument and every
// hook below is a no-op (see internal/obs); the disabled configuration
// adds no allocations to Decide.
type coreMetrics struct {
	decisions      *obs.Counter // core.decide.calls
	emptyDecisions *obs.Counter // core.decide.empty
	candidates     *obs.Counter // core.decide.candidates_priced
	rejectedUtil   *obs.Counter // core.decide.rejected_util
	rejectedDelay  *obs.Counter // core.decide.rejected_delay
	clamped        *obs.Counter // core.decide.eq6_clamped
	spinDisabled   *obs.Counter // core.decide.spindown_disabled
	hysteresis     *obs.Counter // core.decide.hysteresis_holds
	refillBytes    *obs.Counter // core.decide.refill_bytes
	fitDegenerate  *obs.Counter // core.decide.fit_degenerate
	fallbacks      *obs.Counter // core.decide.fallback_decisions
	nonFinite      *obs.Counter // core.decide.nonfinite_candidates
	budgetOver     *obs.Counter // core.decide.budget_infeasible

	banks   *obs.Gauge // core.decide.banks
	timeout *obs.Gauge // core.decide.timeout_s
	power   *obs.Gauge // core.decide.total_power_w

	evaluated *obs.Histogram // core.decide.candidates_per_call
}

func newCoreMetrics(r *obs.Registry) coreMetrics {
	return coreMetrics{
		decisions:      r.Counter("core.decide.calls"),
		emptyDecisions: r.Counter("core.decide.empty"),
		candidates:     r.Counter("core.decide.candidates_priced"),
		rejectedUtil:   r.Counter("core.decide.rejected_util"),
		rejectedDelay:  r.Counter("core.decide.rejected_delay"),
		clamped:        r.Counter("core.decide.eq6_clamped"),
		spinDisabled:   r.Counter("core.decide.spindown_disabled"),
		hysteresis:     r.Counter("core.decide.hysteresis_holds"),
		refillBytes:    r.Counter("core.decide.refill_bytes"),
		fitDegenerate:  r.Counter("core.decide.fit_degenerate"),
		fallbacks:      r.Counter("core.decide.fallback_decisions"),
		nonFinite:      r.Counter("core.decide.nonfinite_candidates"),
		budgetOver:     r.Counter("core.decide.budget_infeasible"),
		banks:          r.Gauge("core.decide.banks"),
		timeout:        r.Gauge("core.decide.timeout_s"),
		power:          r.Gauge("core.decide.total_power_w"),
		evaluated:      r.Histogram("core.decide.candidates_per_call", []float64{8, 16, 32, 64, 128, 256}),
	}
}

// eachCounter visits every decision counter with its registry name, in a
// fixed order. Snapshot/Restore use it to carry counter values across a
// daemon restart without the registry having to know about checkpoints.
func (cm *coreMetrics) eachCounter(f func(name string, c *obs.Counter)) {
	f("core.decide.calls", cm.decisions)
	f("core.decide.empty", cm.emptyDecisions)
	f("core.decide.candidates_priced", cm.candidates)
	f("core.decide.rejected_util", cm.rejectedUtil)
	f("core.decide.rejected_delay", cm.rejectedDelay)
	f("core.decide.eq6_clamped", cm.clamped)
	f("core.decide.spindown_disabled", cm.spinDisabled)
	f("core.decide.hysteresis_holds", cm.hysteresis)
	f("core.decide.refill_bytes", cm.refillBytes)
	f("core.decide.fit_degenerate", cm.fitDegenerate)
	f("core.decide.fallback_decisions", cm.fallbacks)
	f("core.decide.nonfinite_candidates", cm.nonFinite)
	f("core.decide.budget_infeasible", cm.budgetOver)
}

// recordDecision publishes the decision-level gauges and counters.
func (m *Manager) recordDecision(d *Decision) {
	m.met.banks.Set(float64(d.Banks))
	m.met.timeout.Set(float64(d.Timeout))
	m.met.power.Set(float64(d.Chosen.TotalPower))
	m.met.evaluated.Observe(float64(d.Evaluated))
	m.met.refillBytes.Add(int64(d.Chosen.RefillBytes))
}

// Rejection-reason vocabulary for the decision-trace journal.
const (
	// ReasonUtilCap: infeasible — predicted utilization exceeds U.
	ReasonUtilCap = "util-cap"
	// ReasonHigherPower: feasible but priced above the winner.
	ReasonHigherPower = "higher-power"
	// ReasonLargerTie: same power as the winner; the paper's
	// smaller-memory tie-break applied.
	ReasonLargerTie = "larger-size-tie"
	// ReasonHysteresisHold: priced below the previous size's power, but
	// not by enough to overcome the re-sizing hysteresis.
	ReasonHysteresisHold = "hysteresis-hold"
	// ReasonOverBudget: priced above the fleet coordinator's per-shard
	// power budget while the winner stayed within it.
	ReasonOverBudget = "over-budget"
)

// rejectionReason names why c lost to winner.
func rejectionReason(c, winner Candidate, held bool) string {
	const eps = 1e-9
	switch {
	case c.OverBudget && !winner.OverBudget:
		return ReasonOverBudget
	case !c.Feasible:
		return ReasonUtilCap
	case held && float64(c.TotalPower) < float64(winner.TotalPower)-eps:
		return ReasonHysteresisHold
	case float64(c.TotalPower) > float64(winner.TotalPower)+eps:
		return ReasonHigherPower
	default:
		return ReasonLargerTie
	}
}

// traceTopK is how many runner-up candidates each journal record keeps.
const traceTopK = 4

// candidateSummary maps a priced candidate into its journal form.
func candidateSummary(c Candidate) obs.CandidateSummary {
	return obs.CandidateSummary{
		Banks:          c.Banks,
		DiskAccesses:   c.DiskAccesses,
		IdleCount:      c.IdleCount,
		Utilization:    obs.Float(c.Utilization),
		TimeoutS:       obs.Float(c.Timeout),
		TimeoutFloorS:  obs.Float(c.TimeoutFloor),
		FloorClamped:   c.FloorClamped,
		TotalPowerW:    obs.Float(c.TotalPower),
		DiskPMPowerW:   obs.Float(c.DiskPMPower),
		DiskDynPowerW:  obs.Float(c.DiskDynPower),
		MemPowerW:      obs.Float(c.MemPower),
		PredictedWaitS: obs.Float(c.PredictedWait),
		Feasible:       c.Feasible,
		OverBudget:     c.OverBudget,
		SpeedLevel:     c.Level,
	}
}

// emitTrace journals one Decide call: the observation summary, the
// winning candidate with its Pareto fit and eq. 6 floor, and the top-k
// runner-ups ranked by the same ordering Decide used, each annotated
// with why it lost. Callers guard with sink.Enabled() so the disabled
// path allocates nothing. logLen is the period's reference count.
func (m *Manager) emitTrace(o Observation, logLen int, d Decision, held bool) {
	rec := obs.DecisionRecord{
		Observation: obs.ObservationSummary{
			LogLen:         logLen,
			CacheAccesses:  o.CacheAccesses,
			CoalesceFactor: obs.Float(o.CoalesceFactor),
			CurrentBanks:   o.CurrentBanks,
			PeriodStart:    obs.Float(o.PeriodStart),
			PeriodEnd:      obs.Float(o.PeriodEnd),
		},
		Fit: obs.ParetoFitSummary{
			Alpha: obs.Float(d.Chosen.Fit.Alpha),
			Beta:  obs.Float(d.Chosen.Fit.Beta),
			OK:    d.Chosen.FitOK,
		},
		TimeoutFloorS:  obs.Float(d.Chosen.TimeoutFloor),
		Chosen:         candidateSummary(d.Chosen),
		Evaluated:      d.Evaluated,
		HysteresisHold: held,
	}
	if d.Fallback {
		rec.Fallback = true
		rec.FallbackBanks = d.Banks
		rec.FallbackTimeoutS = obs.Float(d.Timeout)
	}
	// Runner-ups: every other candidate, ranked best-first by the
	// decision ordering, truncated to traceTopK.
	losers := make([]Candidate, 0, len(d.Candidates))
	for _, c := range d.Candidates {
		if c.Banks != d.Banks {
			losers = append(losers, c)
		}
	}
	sort.SliceStable(losers, func(i, j int) bool { return m.betterCand(&losers[i], &losers[j]) })
	if len(losers) > traceTopK {
		losers = losers[:traceTopK]
	}
	for _, c := range losers {
		s := candidateSummary(c)
		s.Reason = rejectionReason(c, d.Chosen, held)
		rec.RunnersUp = append(rec.RunnersUp, s)
	}
	m.p.DecisionTrace.Emit(rec)
}

// emitEmptyTrace journals the degenerate "nothing happened" decision.
func (m *Manager) emitEmptyTrace(o Observation, logLen int, d Decision) {
	m.p.DecisionTrace.Emit(obs.DecisionRecord{
		Observation: obs.ObservationSummary{
			LogLen:         logLen,
			CacheAccesses:  o.CacheAccesses,
			CoalesceFactor: obs.Float(o.CoalesceFactor),
			CurrentBanks:   o.CurrentBanks,
			PeriodStart:    obs.Float(o.PeriodStart),
			PeriodEnd:      obs.Float(o.PeriodEnd),
		},
		Chosen: obs.CandidateSummary{
			Banks:    d.Banks,
			TimeoutS: obs.Float(d.Timeout),
			Feasible: true,
		},
	})
}
