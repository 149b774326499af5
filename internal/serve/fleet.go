package serve

import (
	"encoding/json"
	"math"
	"net/http"

	"jointpm/internal/fleet"
)

// This file wires the fleet power-cap coordinator (internal/fleet) into
// the daemon: per-shard summary collection, the reallocation epoch, and
// the /debug/fleet query surface. Everything is a no-op when the server
// was built without a cap (s.coord == nil), so the uncapped daemon is
// byte-identical to a build without the layer.

// FleetEnabled reports whether a global power cap is active.
func (s *Server) FleetEnabled() bool { return s.coord != nil }

// setBudget installs a fleet budget on the shard: 0 or +Inf clears the
// constraint (the manager sanitises), anything else caps the slate.
func (sh *Shard) setBudget(w float64) {
	sh.mu.Lock()
	if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
		sh.budgetW = w
	} else {
		sh.budgetW = 0
	}
	sh.mgr.SetPowerBudget(w)
	sh.mu.Unlock()
}

// fleetEpochLocked drains an armed fleet reallocation at a period
// boundary. It runs between closePeriod calls — never mid-request — so
// the next period decides under the budget this epoch solved, at the
// same point in the stream regardless of how the caller batches ingest
// (one request, a ring drain block, or a FinishTo catch-up). The shard
// lock is released around the solve because FleetReallocate locks every
// shard to collect summaries; called with sh.mu held, returns with it
// held.
func (sh *Shard) fleetEpochLocked() {
	if !sh.fleetDue {
		return
	}
	sh.fleetDue = false
	sh.mu.Unlock()
	sh.srv.FleetReallocate()
	sh.mu.Lock()
}

// fleetSummary snapshots the shard's per-epoch report: the fairness
// floor and, as the demand, the last decision's priced power.
func (sh *Shard) fleetSummary(floorW float64) fleet.Summary {
	sh.mu.Lock()
	w := float64(sh.mgr.LastPower())
	sh.mu.Unlock()

	sum := fleet.Summary{Disk: sh.name, FloorW: floorW, DemandW: floorW}
	if w > floorW {
		sum.DemandW = w
	}
	return sum
}

// FleetReallocate runs one reallocation epoch: collect every shard's
// summary (respecting any injected drop/late faults), solve the cap
// into per-shard budgets, and push them down into each manager. Called
// from shard goroutines whenever a period boundary hits the epoch
// cadence, and explicitly by callers that want budgets installed before
// ingest begins; serialised so concurrent triggers cannot interleave a
// solve with its budget pushes. No-op without a coordinator.
func (s *Server) FleetReallocate() []fleet.Assignment {
	if s.coord == nil {
		return nil
	}
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()

	s.mu.Lock()
	names := append([]string(nil), s.order...)
	shards := make([]*Shard, 0, len(names))
	for _, n := range names {
		shards = append(shards, s.shards[n])
	}
	s.mu.Unlock()

	epoch := s.coord.Epoch() + 1
	inj := s.cfg.Injector
	var late []fleet.Summary
	for i, sh := range shards {
		if inj.SummaryDropped(epoch, i) {
			continue
		}
		sum := sh.fleetSummary(s.floorW)
		if inj.SummaryLate(epoch, i) {
			late = append(late, sum)
			continue
		}
		s.coord.Observe(sum)
	}
	asg := s.coord.Reallocate(names)
	for i, sh := range shards {
		sh.setBudget(asg[i].BudgetW)
	}
	// Late summaries land after the solve; the next epoch sees them.
	for _, sum := range late {
		s.coord.Observe(sum)
	}
	s.met.fleetEpochs.Inc()
	return asg
}

// FleetStatus is the /debug/fleet payload.
type FleetStatus struct {
	PowerCapW   float64            `json:"power_cap_w"`
	FloorW      float64            `json:"floor_w"`
	Epoch       int64              `json:"epoch"`
	Assignments []fleet.Assignment `json:"assignments"`
}

// FleetHandler serves the coordinator's latest solve as JSON (mounted
// at /debug/fleet). Without a cap it answers 404 — the endpoint only
// exists when the coordinator does. Nil-safe: a nil *Server also 404s,
// so a mux can mount it unconditionally.
func (s *Server) FleetHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if s == nil || s.coord == nil {
			http.Error(w, "fleet coordinator disabled (no -power-cap-w)", http.StatusNotFound)
			return
		}
		st := FleetStatus{
			PowerCapW:   s.coord.CapW(),
			FloorW:      s.floorW,
			Epoch:       s.coord.Epoch(),
			Assignments: s.coord.Assignments(),
		}
		if st.Assignments == nil {
			st.Assignments = []fleet.Assignment{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
}
