// Command perfbench is the repository benchmark. It drives one of three
// workloads through the public entry points of the daemon and the
// experiment harness, checks their outputs, and prints the end-to-end
// metrics (untraced run) or the per-layer breakdown (traced run), with
// one JSON object as the last line of standard output:
//
//	perfbench --workload ingest --seed 3 --seconds 25 --trace 0
//
// Workloads:
//
//   - ingest: one binary disk stream through Server.ServeStream (block
//     decode, SPSC ring, Shard.IngestBatch, core ingest) at jointpmd's
//     defaults.
//   - boundary: 32 shards of 8192 banks in one capped server, driven
//     period by period from one goroutine; every Shard.FinishTo is timed.
//     Traced rounds also checkpoint.
//   - sweep: the Fig. 7 quick-scale sweep and the extarray experiment
//     through the experiments registry.
//
// A run repeats rounds for -seconds; round k uses input set
// inputSet(seed+k), one of 32 whose outputs testdata/reference.json
// records, and every round is checked against it. Spans of a traced run
// are written under -out when it ends. run.sh in this directory builds
// and runs the command from a source checkout; README.md gives the
// reasoning behind every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// inputSets is how many distinct input sets the seed maps onto; each has
// a recorded reference output.
const inputSets = 32

// inputSet maps a seed onto an input set, the workload generator seed.
func inputSet(seed int64) int64 { return 1 + ((seed%inputSets)+inputSets)%inputSets }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	refs     *references
}

// workloads maps a workload name to its driver.
var workloads = map[string]func(options, *report) error{
	"ingest":   runIngest,
	"boundary": runBoundary,
	"sweep":    runSweep,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "workload to run: ingest, boundary or sweep")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 20, "length of the timed phase in seconds")
		traced  = fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
		out     = fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
		refPath = fs.String("refs", "", "reference file (default: testdata/reference.json next to the sources)")
		record  = fs.String("record-refs", "", "compute the reference outputs of every input set, write them to this file, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordReferences(*record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *wl, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	refs, err := loadReferences(*refPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	opt := options{
		workload: *wl,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
		out:      *out,
		refs:     refs,
	}
	rep := newReport()
	start := time.Now()
	if err := drive(opt, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	res := rep.result(defs)
	fmt.Fprintf(stdout, "workload %s  seed %d (input set %d)  trace %d  GOMAXPROCS %d  run %.1fs\n",
		*wl, *seed, inputSet(*seed), *traced, runtime.GOMAXPROCS(0), time.Since(start).Seconds())
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-32s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stdout, "  attempted %d  failed %d\n", res.Attempted, res.Failed)
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// liveHeapMB forces two collections (the second drops what sync.Pool
// caches kept through the first) and returns the heap still in use. The
// caller keeps whatever the metric should cover reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memDelta tracks allocation and GC counts over a phase.
type memDelta struct{ bytes, gcs uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, uint64(ms.NumGC)}
}

func (m memDelta) since(before memDelta) memDelta {
	return memDelta{m.bytes - before.bytes, m.gcs - before.gcs}
}

// inputs hands out the input of each round. Input k is built from input
// set inputSet(seed+k), so a run's medians cover several input sets and
// two seeds differ in which set a run starts from. Set-up builds inputs
// 0, 1, 2, ..., each one timed: at least setupMinReps of them, and more
// while setupMinSeconds have not passed, up to setupMaxReps. Their median
// build time is setup_s. The first setupKeep are kept for the first
// rounds; every other input is built between rounds, outside the timed
// calls.
type inputs[T any] struct {
	seed  int64
	build func(set int64) (T, error)
	ready map[int64]T
	setup float64
}

const (
	setupMinReps    = 3
	setupMaxReps    = 25
	setupKeep       = 3
	setupMinSeconds = time.Second
)

func newInputs[T any](seed int64, build func(set int64) (T, error)) (*inputs[T], error) {
	in := &inputs[T]{seed: seed, build: build, ready: map[int64]T{}}
	var times []float64
	start := time.Now()
	for k := int64(0); k < setupMinReps || (time.Since(start) < setupMinSeconds && k < setupMaxReps); k++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build(inputSet(seed + k))
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if k < setupKeep {
			in.ready[k] = v
		}
	}
	in.setup = median(times)
	return in, nil
}

// get returns input k and its input set, building it if need be.
func (in *inputs[T]) get(k int64) (T, int64, error) {
	set := inputSet(in.seed + k)
	if v, ok := in.ready[k]; ok {
		return v, set, nil
	}
	v, err := in.build(set)
	if err == nil {
		in.ready[k] = v
	}
	return v, set, err
}

// drop releases input k once no round needs it.
func (in *inputs[T]) drop(k int64) { delete(in.ready, k) }

// rounds plans a run's rounds. An untraced run gives every round its own
// input. A traced run alternates plain and traced rounds on the same
// input, so the tracing overhead compares like with like. The timed
// phase ends once the rounds' timed calls have run for the requested
// seconds (work between rounds does not count), after at least one round
// of each kind.
type rounds struct {
	traced bool
	want   time.Duration
	spent  time.Duration
}

func newRounds(opt options) *rounds {
	return &rounds{traced: opt.trace, want: time.Duration(opt.seconds * float64(time.Second))}
}

// next reports whether round i runs, which input it uses, whether it is
// traced, and whether it is the last round on that input.
func (r *rounds) next(i int64) (run bool, input int64, traced, lastUse bool) {
	if !r.traced {
		return i == 0 || r.spent < r.want, i, false, true
	}
	if i%2 == 1 {
		return true, i / 2, true, true
	}
	return i == 0 || r.spent < r.want, i / 2, false, false
}

// add counts a round's timed calls towards the phase.
func (r *rounds) add(d time.Duration) { r.spent += d }

// finishTraced fills the reconciliation metrics of a traced run from the
// main lane's spans. Every traced round is a root "round" span; its self
// time (inside the round, outside every layer span) is unattributed_s,
// so layer self times plus unattributed_s add back to wall_s. Spans that
// overlap show up as negative self time, bounded by reconcileTolPct.
func finishTraced(opt options, rep *report, tr *tracer) error {
	wall := tr.total("round")
	self := tr.selfTimes(laneMain)
	unattributed := self["round"]
	var attributed, negative float64
	for name, s := range self {
		if name == "round" {
			continue
		}
		metric, ok := selfSpans[name]
		if !ok {
			return fmt.Errorf("span %q has no self-time metric", name)
		}
		rep.set(metric, rep.values[metric]+s)
		attributed += s
		if s < 0 {
			negative -= s
		}
	}
	rep.set("wall_s", wall)
	rep.set("unattributed_s", unattributed)
	gap := 100 * ratio(negative, wall)
	rep.set("reconcile_gap_pct", gap)
	rep.check(gap <= reconcileTolPct, "layer self times overlap by %.2f%% of wall time, tolerance %.1f%%", gap, reconcileTolPct)
	rep.note("traced wall %.3fs = layer self times %.3fs + unattributed %.3fs (overlap %.2f%%, tolerance %.1f%%)",
		wall, attributed, unattributed, gap, reconcileTolPct)
	path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.json", opt.workload, opt.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}
