package jointpm

import (
	"bytes"
	"encoding/json"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/obs"
	"jointpm/internal/policy"
	"jointpm/internal/serve"
	"jointpm/internal/sim"
)

// journal decodes a decision journal into its records.
func journal(t *testing.T, b []byte) []obs.DecisionRecord {
	t.Helper()
	var out []obs.DecisionRecord
	for dec := json.NewDecoder(bytes.NewReader(b)); dec.More(); {
		var rec obs.DecisionRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// TestSimDaemonIngestDifferential runs the golden-trace workload through
// the simulator's JOINT engine and through a one-shard daemon with the
// same manager parameters. Both hosts drive the same period loop
// (core.Manager's Reference and Close), so every decision sees the same
// references: each journal record's log_len, cache_accesses and period
// bounds are equal across the two. The simulator's Warmup of two periods
// discards one period, as the daemon's WarmupPeriods of one does. What
// the hosts measure themselves still differs and is logged: the coalesce
// factor (pages per disk request of the physical cache in the simulator,
// of the depth model at the applied size in the daemon) and the current
// banks (achieved in the simulator, decided in the daemon).
func TestSimDaemonIngestDifferential(t *testing.T) {
	s, tr := goldenWorkload(t)
	joint := core.Params{DelayCap: s.DelayCap}

	var simBuf bytes.Buffer
	simSink := obs.NewDecisionSink(&simBuf, obs.DefaultSinkDepth)
	if _, err := sim.Run(sim.Config{
		Trace:         tr,
		Method:        policy.Joint(s.InstalledMem),
		InstalledMem:  s.InstalledMem,
		BankSize:      s.BankSize,
		MemSpec:       s.MemSpec,
		DiskSpec:      s.DiskSpec,
		Period:        s.Period,
		Warmup:        s.Warmup,
		Joint:         &joint,
		DecisionTrace: simSink,
	}); err != nil {
		t.Fatal(err)
	}

	var srvBuf bytes.Buffer
	srvSink := obs.NewDecisionSink(&srvBuf, obs.DefaultSinkDepth)
	srv, err := serve.New(serve.Config{
		PageSize:      s.PageSize,
		BankSize:      s.BankSize,
		InstalledMem:  s.InstalledMem,
		Period:        s.Period,
		WarmupPeriods: int(s.Warmup/s.Period) - 1,
		DiskSpec:      s.DiskSpec,
		MemSpec:       s.MemSpec,
		Joint:         &joint,
		DecisionTrace: srvSink,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.IngestBatch(tr.Requests); err != nil {
		t.Fatal(err)
	}
	end := tr.Duration
	if last := tr.Requests[len(tr.Requests)-1].Time; last > end {
		end = last
	}
	if err := sh.FinishTo(end); err != nil {
		t.Fatal(err)
	}
	for _, sink := range []*obs.DecisionSink{simSink, srvSink} {
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if n := sink.Dropped(); n != 0 {
			t.Fatalf("sink dropped %d records", n)
		}
	}

	simRecs, srvRecs := journal(t, simBuf.Bytes()), journal(t, srvBuf.Bytes())
	if len(simRecs) == 0 || len(simRecs) != len(srvRecs) {
		t.Fatalf("simulator journaled %d decisions, daemon %d", len(simRecs), len(srvRecs))
	}
	coalesce, banks := 0, 0
	for i := range simRecs {
		a, b := simRecs[i].Observation, srvRecs[i].Observation
		if a.LogLen != b.LogLen || a.CacheAccesses != b.CacheAccesses ||
			a.PeriodStart != b.PeriodStart || a.PeriodEnd != b.PeriodEnd {
			t.Errorf("decision %d: simulator saw %d refs (%d accesses) over [%g, %g), daemon %d refs (%d accesses) over [%g, %g)",
				i+1, a.LogLen, a.CacheAccesses, a.PeriodStart, a.PeriodEnd, b.LogLen, b.CacheAccesses, b.PeriodStart, b.PeriodEnd)
		}
		if a.CoalesceFactor != b.CoalesceFactor {
			coalesce++
		}
		if a.CurrentBanks != b.CurrentBanks {
			banks++
		}
	}
	t.Logf("%d decisions: coalesce factor differs in %d, current banks in %d", len(simRecs), coalesce, banks)
}
