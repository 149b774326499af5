package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"jointpm/internal/lrusim"
	"jointpm/internal/obs"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// TestJointIngestsEveryReference: the JOINT engine runs every request
// through the manager, which ingests every depth run, so each decision's
// journaled reference count and cache accesses equal the period's pages
// summed from the trace. Every fourth request is lengthened by a page the
// stack has not seen, so those requests come back from ReferenceRange as
// several runs.
func TestJointIngestsEveryReference(t *testing.T) {
	base := testWorkload(t, float64(simtime.MB), 1800)
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
	cfg := testConfig(&tr, policy.Joint(128*simtime.MB))
	cfg.DecisionTrace = sink
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
