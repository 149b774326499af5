package multidisk

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/drpm"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/obs"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

func arrayWorkload(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 64 * simtime.MB,
		PageSize:     16 * simtime.KB,
		Rate:         256 * float64(simtime.KB),
		Popularity:   0.1,
		Duration:     3600,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func arrayConfig(tr *trace.Trace, disks int, layout Layout, m DiskMethod) Config {
	return Config{
		Trace:        tr,
		Disks:        disks,
		Layout:       layout,
		Method:       m,
		InstalledMem: 128 * simtime.MB,
		BankSize:     simtime.MB,
		Period:       300,
	}
}

func TestRunBasicInvariants(t *testing.T) {
	tr := arrayWorkload(t, 1)
	res, err := Run(arrayConfig(tr, 4, Striped, TwoCompetitive))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Disks) != 4 {
		t.Fatalf("disks = %d", len(res.Disks))
	}
	if res.CacheAccesses == 0 || res.DiskAccesses == 0 {
		t.Fatal("no traffic")
	}
	var reqs int64
	for _, d := range res.Disks {
		reqs += d.Stats.Requests
	}
	if reqs == 0 {
		t.Fatal("no disk requests reached any spindle")
	}
	if res.TotalEnergy() <= 0 {
		t.Fatal("no energy accounted")
	}
	if res.MeanLatency() < 0 {
		t.Fatal("negative latency")
	}
}

func TestLayoutAssignsAllDisks(t *testing.T) {
	tr := arrayWorkload(t, 2)
	for _, l := range []Layout{Striped, Ranged, HotCold} {
		cfg, err := (&Config{Trace: tr, Disks: 4, Layout: l,
			InstalledMem: 128 * simtime.MB, BankSize: simtime.MB}).withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		assign := buildLayout(cfg)
		seen := map[int]bool{}
		for _, d := range assign {
			if d < 0 || d >= 4 {
				t.Fatalf("%v: file assigned to disk %d", l, d)
			}
			seen[d] = true
		}
		if len(seen) != 4 {
			t.Errorf("%v: only %d disks used", l, len(seen))
		}
	}
}

func TestHotColdConcentratesTraffic(t *testing.T) {
	tr := arrayWorkload(t, 3)
	hc, err := Run(arrayConfig(tr, 4, HotCold, AlwaysOn))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(arrayConfig(tr, 4, Striped, AlwaysOn))
	if err != nil {
		t.Fatal(err)
	}
	// Gini-style check: under hot-cold, the busiest disk carries a much
	// larger share of requests than under striping.
	share := func(r *Result) float64 {
		var max, total int64
		for _, d := range r.Disks {
			total += d.Stats.Requests
			if d.Stats.Requests > max {
				max = d.Stats.Requests
			}
		}
		if total == 0 {
			return 0
		}
		return float64(max) / float64(total)
	}
	if share(hc) <= share(st) {
		t.Errorf("hot-cold busiest share %.2f not above striped %.2f", share(hc), share(st))
	}
}

func TestHotColdSleepsMoreThanStriped(t *testing.T) {
	tr := arrayWorkload(t, 4)
	hc, err := Run(arrayConfig(tr, 4, HotCold, TwoCompetitive))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(arrayConfig(tr, 4, Striped, TwoCompetitive))
	if err != nil {
		t.Fatal(err)
	}
	var hcStandby, stStandby simtime.Seconds
	for i := range hc.Disks {
		hcStandby += hc.Disks[i].Stats.StandbyTime
		stStandby += st.Disks[i].Stats.StandbyTime
	}
	if hcStandby <= stStandby {
		t.Errorf("hot-cold standby %v not above striped %v", hcStandby, stStandby)
	}
	if hc.DiskEnergy() >= st.DiskEnergy() {
		t.Errorf("hot-cold disk energy %v not below striped %v", hc.DiskEnergy(), st.DiskEnergy())
	}
}

// scaledMem returns a memory spec with the paper's memory:disk power
// ratio at the tests' toy dimensions; with real RDRAM constants a 128 MB
// memory is energetically free and resizing it correctly never pays.
func scaledMem() mem.Spec {
	spec := mem.RDRAM(simtime.MB)
	spec.NapPowerPerMB *= 1024
	return spec
}

func TestJointMultiDiskAdapts(t *testing.T) {
	tr := arrayWorkload(t, 5)
	cfg := arrayConfig(tr, 4, HotCold, Joint)
	cfg.MemSpec = scaledMem()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Banks >= 128 {
		t.Errorf("joint never resized: %d banks", res.Banks)
	}
	// Per-disk timeout decisions are exercised by
	// TestPerDiskTimeoutsDiffer; whether they end finite depends on the
	// sizing regime (a deliberately small cache keeps spindles too busy
	// to spin down, and the empirical test correctly refuses).
}

func TestJointBeatsAlwaysOnOnArray(t *testing.T) {
	tr := arrayWorkload(t, 6)
	jcfg := arrayConfig(tr, 4, HotCold, Joint)
	jcfg.MemSpec = scaledMem()
	jcfg.Joint.DelayCap = 0.02 // scale the cap to the test's tiny N (see sim tests)
	jres, err := Run(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := arrayConfig(tr, 4, HotCold, AlwaysOn)
	acfg.MemSpec = scaledMem()
	ares, err := Run(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if jres.TotalEnergy() >= ares.TotalEnergy() {
		t.Errorf("joint %v not below always-on %v", jres.TotalEnergy(), ares.TotalEnergy())
	}
}

func TestAlwaysOnNeverSpinsDown(t *testing.T) {
	tr := arrayWorkload(t, 7)
	res, err := Run(arrayConfig(tr, 3, Ranged, AlwaysOn))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Disks {
		if d.Stats.SpinDowns != 0 {
			t.Errorf("disk %d spun down %d times under always-on", i, d.Stats.SpinDowns)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tr := arrayWorkload(t, 8)
	bad := []Config{
		{Trace: nil, Disks: 2},
		{Trace: tr, Disks: 0},
		{Trace: tr, Disks: 2, BankSize: 12345, InstalledMem: 128 * simtime.MB},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	// Fewer installed banks than partitions: the even split would give
	// each disk 0 banks and the knapsack has no feasible pick. The error
	// names both counts; the same memory is fine for a shared cache.
	cfg := Config{Trace: tr, Disks: 4, Method: Partitioned, BankSize: simtime.MB, InstalledMem: 2 * simtime.MB}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "2 installed banks for 4 disks") {
		t.Errorf("partitioned with 2 banks over 4 disks: err = %v, want both counts", err)
	}
	cfg.Method = AlwaysOn
	if _, err := Run(cfg); err != nil {
		t.Errorf("always-on with 2 banks over 4 disks: %v", err)
	}
}

func TestSingleDiskDegenerate(t *testing.T) {
	// One disk must behave like a sane single-spindle run.
	tr := arrayWorkload(t, 9)
	res, err := Run(arrayConfig(tr, 1, Striped, TwoCompetitive))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Disks) != 1 || res.Disks[0].Stats.Requests == 0 {
		t.Fatal("degenerate single-disk run broken")
	}
}

func TestStrings(t *testing.T) {
	if Striped.String() != "striped" || Ranged.String() != "ranged" ||
		HotCold.String() != "hot-cold" || Layout(9).String() != "unknown" {
		t.Error("layout strings")
	}
	if AlwaysOn.String() != "always-on" || TwoCompetitive.String() != "2T" ||
		Joint.String() != "joint" || DiskMethod(9).String() != "unknown" {
		t.Error("method strings")
	}
}

// TestJointOverlaySemantics pins the Joint override path: Run overlays
// cfg.Joint onto the derived defaults through core.MergeParams (the
// package used to carry its own partial copy of the merge), so zero
// override fields keep the defaults and non-zero fields win — including
// fields the deleted local copy silently dropped, like LongLatency and
// the DRPM speed ladder.
func TestJointOverlaySemantics(t *testing.T) {
	spec := disk.Barracuda()
	base := core.DefaultParams(16*simtime.KB, simtime.MB, 128, spec, mem.RDRAM(simtime.MB))
	base.Period = 300
	base.LongLatency = 2

	if got := core.MergeParams(base, core.Params{}); !reflect.DeepEqual(got, base) {
		t.Errorf("zero overlay changed params:\n got %+v\nwant %+v", got, base)
	}

	lad := drpm.DeriveLevels(spec, 0, 4)
	over := core.Params{
		Window:                1200,
		UtilCap:               0.4,
		DelayCap:              0.002,
		LongLatency:           5,
		MinBanks:              3,
		MaxCandidatesPerPass:  7,
		HysteresisFrac:        0.1,
		SpeedLevels:           lad.Levels,
		SpeedTransitionPerRPM: lad.TransitionPerRPM,
	}
	got := core.MergeParams(base, over)
	if got.Period != base.Period {
		t.Errorf("Period = %v, want base %v (zero override must hold)", got.Period, base.Period)
	}
	if got.Window != over.Window || got.UtilCap != over.UtilCap ||
		got.DelayCap != over.DelayCap || got.LongLatency != over.LongLatency ||
		got.MinBanks != over.MinBanks || got.MaxCandidatesPerPass != over.MaxCandidatesPerPass ||
		got.HysteresisFrac != over.HysteresisFrac {
		t.Errorf("overlay dropped scalar overrides: %+v", got)
	}
	if !reflect.DeepEqual(got.SpeedLevels, lad.Levels) || got.SpeedTransitionPerRPM != lad.TransitionPerRPM {
		t.Errorf("overlay dropped speed ladder: %+v", got)
	}
}

// TestJointIngestsEveryReference: Joint runs every request through the
// manager's stack, which ingests every depth run, so each global sizing
// decision's journaled reference count and cache accesses equal the
// period's pages summed from the trace. Every fourth request is
// lengthened by a page the stack has not seen, so those requests come
// back as several runs.
func TestJointIngestsEveryReference(t *testing.T) {
	base := arrayWorkload(t, 41)
	tr := *base
	tr.Requests = append([]trace.Request(nil), base.Requests...)
	for i := range tr.Requests {
		if r := &tr.Requests[i]; i%4 == 0 && r.FirstPage+int64(r.Pages) < tr.DataSetPages {
			r.Pages++
		}
	}
	st := lrusim.NewStackSim(int(128 * simtime.MB / tr.PageSize))
	var runs []lrusim.DepthRun
	multi := 0
	for _, r := range tr.Requests {
		if runs = st.ReferenceRange(runs[:0], r.Time, r.FirstPage, int(r.Pages)); len(runs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no request came back as several runs")
	}

	var buf bytes.Buffer
	sink := obs.NewDecisionSink(&buf, obs.DefaultSinkDepth)
	cfg := arrayConfig(&tr, 4, HotCold, Joint)
	cfg.MemSpec = scaledMem()
	cfg.Joint.DecisionTrace = sink
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for dec := json.NewDecoder(&buf); dec.More(); n++ {
		var rec obs.DecisionRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		o := rec.Observation
		var pages int64
		for _, r := range tr.Requests {
			if r.Time >= simtime.Seconds(o.PeriodStart) && r.Time < simtime.Seconds(o.PeriodEnd) {
				pages += int64(r.Pages)
			}
		}
		if int64(o.LogLen) != pages || o.CacheAccesses != pages {
			t.Fatalf("decision %d: manager ingested %d references (cache accesses %d) of the period's %d pages", n+1, o.LogLen, o.CacheAccesses, pages)
		}
	}
	if n < 10 {
		t.Fatalf("%d decisions journaled, want ≥ 10", n)
	}
}

// TestRejectsMemoryPastFrameLimit: an installed memory of 2^31 or more
// pages is refused with an error naming the page cache's limit, before
// any cache is sized per frame (only over-limit sizes are tried; one
// just under the limit would allocate tens of GB).
func TestRejectsMemoryPastFrameLimit(t *testing.T) {
	tr := arrayWorkload(t, 8)
	for _, m := range []DiskMethod{AlwaysOn, Joint, Partitioned} {
		cfg := arrayConfig(tr, 2, Striped, m)
		cfg.InstalledMem, cfg.BankSize = 32768*simtime.GB, 16*simtime.MB
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "at most 2147483647") {
			t.Errorf("%v: err = %v, want the frame limit", m, err)
		}
	}
}

// BenchmarkRun times one Run per method over arrayWorkload's hour on four
// hot-cold disks, at TestRunGolden's settings. ci/alloc_budget.txt holds
// its allocations: a Run builds its caches, stacks and histograms, and a
// period close its partition grid and knapsack tables, but nothing may
// allocate per request or per page, nor per size priced.
func BenchmarkRun(b *testing.B) {
	tr := arrayWorkload(b, 31)
	for _, m := range []DiskMethod{AlwaysOn, TwoCompetitive, Partitioned, Joint} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := arrayConfig(tr, 4, HotCold, m)
			cfg.MemSpec = scaledMem()
			cfg.Joint.DelayCap = 0.02
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
