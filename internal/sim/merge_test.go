package sim

import (
	"reflect"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/mem"
	"jointpm/internal/obs"
	"jointpm/internal/simtime"
)

func testJointBase() core.Params {
	return core.DefaultParams(64*simtime.KB, simtime.MB, 128, disk.Barracuda(), mem.RDRAM(simtime.MB))
}

// TestMergeJointParamsOverlaysEveryField sets every overridable field of
// core.Params to a distinctive non-zero value and checks each one lands
// in the params the engine builds from Config.Joint (core.MergeParams
// over the derived defaults).
func TestMergeJointParamsOverlaysEveryField(t *testing.T) {
	base := testJointBase()
	reg := obs.NewRegistry()
	sink := &obs.DecisionSink{}
	o := core.Params{
		Period:               777,
		Window:               6,
		UtilCap:              0.55,
		DelayCap:             0.033,
		LongLatency:          0.75,
		EnumUnit:             4 << 20,
		MinBanks:             3,
		MaxCandidatesPerPass: 9,
		FixedTimeout:         true,
		NoConstraintFloor:    true,
		HysteresisFrac:       0.125,
		Metrics:              reg,
		DecisionTrace:        sink,
	}
	got := core.MergeParams(base, o)

	checks := map[string]struct{ got, want any }{
		"Period":               {got.Period, o.Period},
		"Window":               {got.Window, o.Window},
		"UtilCap":              {got.UtilCap, o.UtilCap},
		"DelayCap":             {got.DelayCap, o.DelayCap},
		"LongLatency":          {got.LongLatency, o.LongLatency},
		"EnumUnit":             {got.EnumUnit, o.EnumUnit},
		"MinBanks":             {got.MinBanks, o.MinBanks},
		"MaxCandidatesPerPass": {got.MaxCandidatesPerPass, o.MaxCandidatesPerPass},
		"FixedTimeout":         {got.FixedTimeout, o.FixedTimeout},
		"NoConstraintFloor":    {got.NoConstraintFloor, o.NoConstraintFloor},
		"HysteresisFrac":       {got.HysteresisFrac, o.HysteresisFrac},
		"Metrics":              {got.Metrics, o.Metrics},
		"DecisionTrace":        {got.DecisionTrace, o.DecisionTrace},
	}
	for name, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("field %s: merged %v, want override %v", name, c.got, c.want)
		}
	}

	// Derived/config-owned fields must never be overlaid: the engine
	// computes them from the sim config, and a stray override would
	// desynchronise the manager from the cache geometry.
	if got.PageSize != base.PageSize || got.BankSize != base.BankSize || got.TotalBanks != base.TotalBanks {
		t.Errorf("geometry fields changed by merge: got %v/%v/%v", got.PageSize, got.BankSize, got.TotalBanks)
	}
}

// TestMergeJointParamsZeroKeepsBase checks a zero-value override leaves
// every base field untouched.
func TestMergeJointParamsZeroKeepsBase(t *testing.T) {
	base := testJointBase()
	base.FixedTimeout = true // non-zero flags must also survive
	base.HysteresisFrac = 0.07
	got := core.MergeParams(base, core.Params{})
	if !reflect.DeepEqual(got, base) {
		t.Errorf("zero overlay changed params:\nbase: %+v\ngot:  %+v", base, got)
	}
}
