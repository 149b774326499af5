package core

import "math"

// This file is the core half of the fleet power-capping layer
// (internal/fleet): the coordinator solves a fair split of the global
// cap and pushes each shard's share down here, where it becomes one
// extra constraint on the candidate slate. The contract that everything
// above relies on: with no budget installed (the default) every path in
// this file is inert and the manager is bit-identical to an unbudgeted
// one — cap=+Inf differential suites at the core, serve, and daemon
// levels pin that.

// budgetEps absorbs float noise when comparing a candidate's priced
// power against the shard budget, mirroring better()'s power slack.
const budgetEps = 1e-9

// SetPowerBudget installs (or clears) the per-shard power budget in
// watts. While a finite positive budget is set, candidates priced above
// it are marked OverBudget and lose to any feasible within-budget
// candidate; when every candidate is over budget the search degrades
// gracefully to the best uncapped choice and flags the decision (see
// Decision.OverBudget). Zero, negative, NaN, or +Inf all mean
// "unconstrained". The daemon re-applies the snapshot's budget on
// restore so a warm restart resumes capped decisions bit-identically.
func (m *Manager) SetPowerBudget(w float64) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
		w = 0
	}
	m.budgetW = w
}

// PowerBudget returns the installed budget in watts (0: unconstrained).
func (m *Manager) PowerBudget() float64 { return m.budgetW }

// budgetActive reports that a finite positive budget is installed.
func (m *Manager) budgetActive() bool { return m.budgetW > 0 }

// applyBudget stamps the budget verdict on a freshly priced candidate.
// Called from the tails of price and priceStats — the two valuation
// paths are bit-identical twins and must stay that way.
func (m *Manager) applyBudget(c *Candidate) {
	if m.budgetActive() && float64(c.TotalPower) > m.budgetW+budgetEps {
		c.OverBudget = true
	}
}

// countOverBudget counts the priced sizes whose final verdict, after the
// ladder refinement, is over budget (core.decide.budget_infeasible).
func (m *Manager) countOverBudget(cands []Candidate) {
	if !m.budgetActive() {
		return
	}
	for i := range cands {
		if cands[i].OverBudget {
			m.met.budgetOver.Inc()
		}
	}
}

// betterCand is the decision ordering. With no budget installed it is
// exactly better() — the bit-identity contract. With one installed, a
// feasible within-budget candidate beats everything that is not, and
// better() orders within each class, so the budget acts as a filter
// that never changes how surviving candidates compare to each other.
func (m *Manager) betterCand(a, b *Candidate) bool {
	if m.budgetActive() {
		aok := a.Feasible && !a.OverBudget
		bok := b.Feasible && !b.OverBudget
		if aok != bok {
			return aok
		}
	}
	return better(a, b)
}
