package sim

import (
	"math"
	"testing"

	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
)

// TestFlightMeasuredLedger: the engine's flight records carry the
// measured per-period energy split, and the split sums — across every
// record and within each record — to what the power models actually
// charged the run; detaching the recorder leaves the run's result
// bit-identical.
func TestFlightMeasuredLedger(t *testing.T) {
	tr := testWorkload(t, float64(simtime.MB), 1800)
	rec := flight.New(64)
	reg := obs.NewRegistry()
	cfg := testConfig(tr, policy.Joint(128*simtime.MB))
	cfg.Flight = rec
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	periods := rec.Total()
	if periods < 10 {
		t.Fatalf("recorder cut %d records, want ≥ 10", periods)
	}
	if int(periods) != len(res.Periods) {
		t.Errorf("recorder has %d records, result has %d periods", periods, len(res.Periods))
	}

	// Every record: measured components are non-negative, standby floor
	// and nap accrue every window, and spans were measured (both ingest
	// and decide spans once traffic flows).
	recs := rec.Last(0)
	for i, r := range recs {
		l := r.Energy
		for name, v := range map[string]float64{
			"mem_active": l.MemActiveJ, "mem_nap": l.MemNapJ, "mem_transition": l.MemTransitionJ,
			"disk_active": l.DiskActiveJ, "disk_standby": l.DiskStandbyJ, "disk_spin": l.DiskSpinJ,
			"delay": l.DelayS,
		} {
			if v < 0 {
				t.Errorf("record %d: negative %s = %g", i, name, v)
			}
		}
		if l.DiskStandbyJ == 0 || l.MemNapJ == 0 {
			t.Errorf("record %d: floor components empty: %+v", i, l)
		}
		if r.Disk != "sim" {
			t.Errorf("record %d: disk %q", i, r.Disk)
		}
		if r.Refs > 0 && (r.IngestNs <= 0 || r.DecideNs <= 0) {
			t.Errorf("record %d: spans ingest=%dns decide=%dns with %d refs", i, r.IngestNs, r.DecideNs, r.Refs)
		}
		if i > 0 && r.Period != recs[i-1].Period+1 {
			t.Errorf("record %d: period %d after %d", i, r.Period, recs[i-1].Period)
		}
	}

	// The ledger sum reproduces the run's total measured energy (no
	// warmup window, trace length a whole number of periods — nothing
	// falls outside the recorded windows).
	sum := rec.Sum()
	wantTotal := float64(res.DiskEnergy.Total() + res.MemEnergy.Total())
	if rel := math.Abs(sum.TotalJ()-wantTotal) / wantTotal; rel > 1e-9 {
		t.Errorf("ledger sum %g J vs run total %g J (rel %g)", sum.TotalJ(), wantTotal, rel)
	}
	if want := float64(res.MemEnergy.Total()); math.Abs(sum.MemJ()-want) > 1e-9*want {
		t.Errorf("ledger mem %g J vs run mem %g J", sum.MemJ(), want)
	}
	if want := float64(res.DiskEnergy.Total()); math.Abs(sum.DiskJ()-want) > 1e-9*want {
		t.Errorf("ledger disk %g J vs run disk %g J", sum.DiskJ(), want)
	}
	if want := float64(res.TotalLatency); math.Abs(sum.DelayS-want) > 1e-9 {
		t.Errorf("ledger delay %g s vs run latency %g s", sum.DelayS, want)
	}

	// The /metrics split gauges hold the last window's components.
	lastRec := recs[len(recs)-1]
	if got := reg.Gauge("sim.period.mem_nap_j").Value(); got != lastRec.Energy.MemNapJ {
		t.Errorf("sim.period.mem_nap_j = %g, last record %g", got, lastRec.Energy.MemNapJ)
	}
	if got := reg.Gauge("sim.period.disk_standby_j").Value(); got != lastRec.Energy.DiskStandbyJ {
		t.Errorf("sim.period.disk_standby_j = %g, last record %g", got, lastRec.Energy.DiskStandbyJ)
	}

	// The pre-existing coarse gauges still agree with the split.
	coarseDisk := reg.Gauge("sim.period.disk_energy_j").Value()
	if want := lastRec.Energy.DiskJ(); math.Abs(coarseDisk-want) > 1e-9*want {
		t.Errorf("sim.period.disk_energy_j = %g, split disk = %g", coarseDisk, want)
	}

	bare, err := Run(testConfig(tr, policy.Joint(128*simtime.MB)))
	if err != nil {
		t.Fatal(err)
	}
	if bare.DiskEnergy != res.DiskEnergy || bare.MemEnergy != res.MemEnergy ||
		bare.TotalLatency != res.TotalLatency {
		t.Error("attaching a flight recorder changed the simulation result")
	}
}

// TestFlightWarmupMeansDiscarded: a record's warmup flag means the
// manager discarded the period unexamined, as it does in the daemon. With
// a two-period warmup the manager discards the first period and decides
// from the second, the one that ends at Warmup, so only the first record
// is warmup, and it alone carries no decide span.
func TestFlightWarmupMeansDiscarded(t *testing.T) {
	tr := testWorkload(t, float64(simtime.MB), 600)
	rec := flight.New(16)
	cfg := testConfig(tr, policy.Joint(128*simtime.MB))
	cfg.Warmup = 2 * cfg.Period
	cfg.Flight = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	recs := rec.Last(0)
	if len(recs) < 3 {
		t.Fatalf("recorder cut %d records, want ≥ 3", len(recs))
	}
	if r := recs[0]; !r.Warmup || r.DecideNs != 0 {
		t.Errorf("record 1: warmup %v, decide_ns %d; want a discarded period with no decide span", r.Warmup, r.DecideNs)
	}
	if r := recs[1]; r.Warmup || r.DecideNs <= 0 {
		t.Errorf("record 2: warmup %v, decide_ns %d; want the first decided period", r.Warmup, r.DecideNs)
	}
}
