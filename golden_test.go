package jointpm

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/experiments"
	"jointpm/internal/obs"
	"jointpm/internal/policy"
	"jointpm/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of diffing against them")

// goldenWorkload is the fixed quick-scale workload of the golden decision
// trace: 1,500 s at quick scale, whose 600 s warmup is two 300 s periods.
func goldenWorkload(t *testing.T) (experiments.Scale, *Trace) {
	t.Helper()
	s := experiments.QuickScale(900)
	tr, err := GenerateWorkload(WorkloadConfig{
		DataSetBytes: 4 * s.Unit,
		PageSize:     s.PageSize,
		Rate:         5 * s.RateUnit,
		Popularity:   0.1,
		Duration:     s.Horizon + s.Warmup,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, tr
}

// TestDecisionTraceGolden replays a fixed quick-scale workload through
// the joint manager's incremental Decide with a decision-trace sink
// attached and compares the JSONL journal byte-for-byte against the
// checked-in snapshot, which the batch Decide recorded; the internal/core
// oracle tests hold the two to the same decisions. The journal is
// deterministic by construction — candidate pricing is pure IEEE
// arithmetic, records carry no timestamps, runner-ups are sorted by the
// decision ordering, and the sink assigns seq in write order — so any
// diff means the decision pipeline (or the journal schema) changed.
// Regenerate with:
//
//	go test -run TestDecisionTraceGolden -update .
func TestDecisionTraceGolden(t *testing.T) {
	s, tr := goldenWorkload(t)

	runTrace := func(t *testing.T) []byte {
		t.Helper()
		var buf bytes.Buffer
		sink := obs.NewDecisionSink(&buf, obs.DefaultSinkDepth)
		_, err := sim.Run(sim.Config{
			Trace:         tr,
			Method:        policy.Joint(s.InstalledMem),
			InstalledMem:  s.InstalledMem,
			BankSize:      s.BankSize,
			MemSpec:       s.MemSpec,
			DiskSpec:      s.DiskSpec,
			Period:        s.Period,
			Warmup:        s.Warmup,
			Joint:         &core.Params{DelayCap: s.DelayCap},
			DecisionTrace: sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("closing sink: %v", err)
		}
		if n := sink.Dropped(); n != 0 {
			t.Fatalf("sink dropped %d records; raise the depth", n)
		}
		return buf.Bytes()
	}

	golden := filepath.Join("testdata", "decision_trace.golden.jsonl")
	if *updateGolden {
		got := runTrace(t)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}

	t.Run("incremental", func(t *testing.T) {
		got := runTrace(t)

		// Every line must round-trip as a DecisionRecord with contiguous
		// seq — schema rot fails here before the byte diff confuses
		// anyone.
		lines := bytes.Split(bytes.TrimRight(got, "\n"), []byte("\n"))
		if len(lines) == 0 || len(lines[0]) == 0 {
			t.Fatal("journal is empty; the run made no decisions")
		}
		for i, line := range lines {
			var rec obs.DecisionRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("line %d does not parse as a DecisionRecord: %v", i+1, err)
			}
			if rec.Seq != int64(i+1) {
				t.Fatalf("line %d has seq %d, want %d", i+1, rec.Seq, i+1)
			}
		}

		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden file (regenerate with -update): %v", err)
		}
		if bytes.Equal(got, want) {
			return
		}
		// Point at the first differing record, not just "bytes differ".
		wantLines := bytes.Split(bytes.TrimRight(want, "\n"), []byte("\n"))
		n := len(lines)
		if len(wantLines) < n {
			n = len(wantLines)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(lines[i], wantLines[i]) {
				t.Fatalf("decision trace diverges at record %d:\n got: %s\nwant: %s", i+1, lines[i], wantLines[i])
			}
		}
		t.Fatalf("decision trace length changed: got %d records, want %d", len(lines), len(wantLines))
	})
}
