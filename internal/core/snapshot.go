package core

import (
	"fmt"
	"math"

	"jointpm/internal/lrusim"
	"jointpm/internal/obs"
	"jointpm/internal/simtime"
)

// State is the whole of a Manager's mutable state: the last decision,
// which is everything Decide reads across period boundaries (hysteresis
// weighs candidates against Banks, the fallback ladder holds
// Banks/Pages/Timeout/Level), the extended-LRU stack, the open period as
// the histogram holds it, and the lifetime decision counters. A manager
// restored from it references, ingests and decides exactly as the one it
// was taken from would have, mid-period included, and replays nothing.
type State struct {
	Banks    int
	Pages    int64
	Timeout  simtime.Seconds
	Fallback bool
	// Level is the DRPM speed level the last decision chose (0 = full
	// speed; always 0 without a ladder).
	Level int
	// Counters carries the core.decide.* counter values so telemetry
	// survives a restart; nil when the manager runs without a registry.
	Counters map[string]int64
	// StackPages is the extended-LRU stack in recency order, least
	// recently used first (lrusim.StackSim.SnapshotPages), and StackRefs
	// and StackColds its lifetime reference and cold-reference counters.
	StackPages            []int64
	StackRefs, StackColds int64
	// Open is the period in progress: every reference ingested since the
	// last boundary, as the depth histogram and its gap stream hold it.
	Open lrusim.HistState
}

// Snapshot ingests the queued depth runs and captures the manager's
// state.
func (m *Manager) Snapshot() State {
	m.Flush()
	st := State{
		Banks:    m.last.Banks,
		Pages:    m.last.Pages,
		Timeout:  m.last.Timeout,
		Fallback: m.last.Fallback,
		Level:    m.last.Level,
		Open:     m.histogram().State(m.p.PageSize),
	}
	st.StackPages = m.stack.SnapshotPages()
	st.StackRefs, st.StackColds = m.stack.Counters()
	m.met.eachCounter(func(name string, c *obs.Counter) {
		if v := c.Value(); v != 0 {
			if st.Counters == nil {
				st.Counters = make(map[string]int64)
			}
			st.Counters[name] = v
		}
	})
	return st
}

// Restore rehydrates a manager from a State captured by Snapshot on a
// manager with the same Params, rebuilding the stack from its page list
// and importing the open period. It validates the state against the
// current configuration and leaves the manager untouched on error.
func (m *Manager) Restore(st State) error {
	if st.Banks < m.p.MinBanks || st.Banks > m.p.TotalBanks {
		return fmt.Errorf("core: restore: banks %d outside [%d, %d]", st.Banks, m.p.MinBanks, m.p.TotalBanks)
	}
	maxPages := int64(m.p.TotalBanks) * m.p.bankPages()
	if st.Pages < 0 || st.Pages > maxPages {
		return fmt.Errorf("core: restore: pages %d outside [0, %d]", st.Pages, maxPages)
	}
	if math.IsNaN(float64(st.Timeout)) || st.Timeout < 0 {
		return fmt.Errorf("core: restore: invalid timeout %v", st.Timeout)
	}
	for name, v := range st.Counters {
		if v < 0 {
			return fmt.Errorf("core: restore: counter %s negative (%d)", name, v)
		}
	}
	maxLevel := len(m.p.SpeedLevels)
	if maxLevel == 0 {
		maxLevel = 1 // no ladder: only full speed is representable
	}
	if st.Level < 0 || st.Level >= maxLevel {
		return fmt.Errorf("core: restore: speed level %d outside ladder of %d", st.Level, maxLevel)
	}
	for i, p := range st.StackPages {
		if p < 0 {
			return fmt.Errorf("core: restore: stack page %d: negative page id %d", i, p)
		}
	}
	if err := m.histogram().Restore(st.Open, m.p.PageSize); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	m.queue = m.queue[:0]
	m.stack = lrusim.RestoreStackSim(m.p.stackWindow(), st.StackPages, st.StackRefs, st.StackColds)
	m.last = Decision{
		Banks:    st.Banks,
		Pages:    st.Pages,
		Timeout:  st.Timeout,
		Fallback: st.Fallback,
		Level:    st.Level,
	}
	m.met.eachCounter(func(name string, c *obs.Counter) {
		if want, ok := st.Counters[name]; ok {
			c.Add(want - c.Value())
		}
	})
	return nil
}

// MergeParams overlays the non-zero fields of o onto base. It is how
// callers (the simulator, the daemon) apply partial overrides on top of
// DefaultParams without having to re-state every field.
func MergeParams(base, o Params) Params {
	if o.Period > 0 {
		base.Period = o.Period
	}
	if o.Window > 0 {
		base.Window = o.Window
	}
	if o.UtilCap > 0 {
		base.UtilCap = o.UtilCap
	}
	if o.DelayCap > 0 {
		base.DelayCap = o.DelayCap
	}
	if o.LongLatency > 0 {
		base.LongLatency = o.LongLatency
	}
	if o.EnumUnit > 0 {
		base.EnumUnit = o.EnumUnit
	}
	if o.MinBanks > 0 {
		base.MinBanks = o.MinBanks
	}
	if o.MaxCandidatesPerPass > 0 {
		base.MaxCandidatesPerPass = o.MaxCandidatesPerPass
	}
	if o.RefitDriftFrac > 0 {
		base.RefitDriftFrac = o.RefitDriftFrac
	}
	if o.FixedTimeout {
		base.FixedTimeout = true
	}
	if o.NoConstraintFloor {
		base.NoConstraintFloor = true
	}
	if o.HysteresisFrac != 0 {
		base.HysteresisFrac = o.HysteresisFrac
	}
	if len(o.SpeedLevels) > 0 {
		base.SpeedLevels = o.SpeedLevels
	}
	if o.SpeedTransitionPerRPM > 0 {
		base.SpeedTransitionPerRPM = o.SpeedTransitionPerRPM
	}
	if o.Metrics != nil {
		base.Metrics = o.Metrics
	}
	if o.DecisionTrace != nil {
		base.DecisionTrace = o.DecisionTrace
	}
	if o.SpanHook != nil {
		base.SpanHook = o.SpanHook
	}
	return base
}
