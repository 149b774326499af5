package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the command must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "ingest,boundary,sweep"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, command has %s", got, want)
	}
	same := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

// runOnce runs the command in-process and decodes its last output line.
func runOnce(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if code != 2 && len(lines) > 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: last line %q: %v\nstderr: %s", args, lines[len(lines)-1], err, stderr.String())
		}
	}
	return code, res, stdout.String() + stderr.String()
}

// TestSmoke runs every workload briefly, untraced and traced: every
// output check passes and every metric of the run's list is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"ingest", "boundary", "sweep"} {
		for _, traced := range []string{"0", "1"} {
			code, res, out := runOnce(t, "--workload", wl, "--seed", "1", "--seconds", "0.1", "--trace", traced)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d correct %v attempted %d failed %d\n%s", wl, traced, code, res.Correct, res.Attempted, res.Failed, out)
			}
			defs := endToEnd
			if traced == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", wl, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s missing or unit %q", wl, traced, d.name, m.Unit)
				}
				if traced == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, m.Value)
				}
			}
			if traced == "1" {
				wall := res.Metrics["wall_s"].Value
				var sum float64
				for _, d := range perLayer {
					if strings.HasPrefix(d.name, "self.") || d.name == "unattributed_s" {
						sum += res.Metrics[d.name].Value
					}
				}
				if wall <= 0 || sum < wall*0.999 || sum > wall*1.001 {
					t.Errorf("%s: self times and unattributed sum to %vs, wall %vs", wl, sum, wall)
				}
			}
		}
	}
}

// TestChecksFail corrupts each workload's recorded reference and expects
// the run to fail its output check.
func TestChecksFail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	refs, err := loadReferences(filepath.Join("testdata", "reference.json"))
	if err != nil {
		t.Fatal(err)
	}
	set, err := refs.forSet(inputSet(1))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string]func(){
		"ingest":   func() { set.Ingest.Digest = "0" },
		"boundary": func() { set.Boundary.Refs++ },
		"sweep":    func() { set.Sweep.Points[2].JointTotalPct += 1e-9 },
	}
	for wl, spoil := range corrupt {
		saved := *set
		saved.Sweep.Points = append([]pointRef(nil), set.Sweep.Points...)
		spoil()
		path := filepath.Join(t.TempDir(), "reference.json")
		b, err := json.Marshal(refs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		*set = saved
		code, res, out := runOnce(t, "--workload", wl, "--seed", "1", "--seconds", "0.1", "--refs", path)
		if code == 0 || res.Correct || !strings.Contains(out, "CHECK FAILED") {
			t.Errorf("%s: corrupted reference passed (exit %d, correct %v)\n%s", wl, code, res.Correct, out)
		}
	}
}
