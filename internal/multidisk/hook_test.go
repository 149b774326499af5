package multidisk

import (
	"math"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/simtime"
)

// TestPerDiskTimeoutsDiffer: the joint array manager really does decide
// per spindle — under a hot-cold layout the busy and cold disks must end
// up with different timeout decisions at least once.
func TestPerDiskTimeoutsDiffer(t *testing.T) {
	tr := arrayWorkload(t, 21)
	decided := map[int]map[string]bool{}
	debugHook = func(d, ni int, nd int64, tc core.TimeoutChoice, pm float64, to simtime.Seconds, _ int64) {
		if decided[d] == nil {
			decided[d] = map[string]bool{}
		}
		key := "finite"
		if math.IsInf(float64(to), 1) {
			key = "inf"
		}
		decided[d][key] = true
	}
	defer func() { debugHook = nil }()

	cfg := arrayConfig(tr, 4, HotCold, Joint)
	cfg.Joint.DelayCap = 0.02
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(decided) != 4 {
		t.Fatalf("timeout decisions observed for %d disks, want 4", len(decided))
	}
}
