package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jointpm/internal/mem"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// fmSizesMB mirrors the paper's five FM sizes at the test scale.
var testFMSizes = []simtime.Bytes{8 * simtime.MB, 16 * simtime.MB, 32 * simtime.MB, 64 * simtime.MB, 128 * simtime.MB}

// TestSplitMatchesFusedComparisonSet proves the tentpole equivalence:
// for the full comparison method set, recording each distinct memory
// configuration once and replaying every disk policy from the stream
// produces results reflect.DeepEqual to the fused engine — including
// float energy totals, per-period stats, and warmup windowing.
func TestSplitMatchesFusedComparisonSet(t *testing.T) {
	tr := testWorkload(t, float64(simtime.MB), 1800)
	if len(tr.Requests) == 0 {
		t.Fatal("the workload generated no requests")
	}
	methods := policy.Comparison(128*simtime.MB, testFMSizes)

	recordings := map[CacheKey]*Recording{}
	defer func() {
		for _, rec := range recordings {
			rec.Release()
		}
	}()

	shared := 0
	for _, m := range methods {
		cfg := testConfig(tr, m)
		cfg.Warmup = 240

		key, ok := SharedCacheKey(m, cfg.InstalledMem)
		if !ok {
			if !m.IsJoint() {
				t.Fatalf("non-joint method %s not shareable", m.Name())
			}
			continue
		}
		shared++

		fused, err := Run(cfg)
		if err != nil {
			t.Fatalf("fused %s: %v", m.Name(), err)
		}
		rec := recordings[key]
		if rec == nil {
			rec, err = Record(cfg)
			if err != nil {
				t.Fatalf("record %s: %v", m.Name(), err)
			}
			recordings[key] = rec
		}
		split, err := rec.Replay(m)
		if err != nil {
			t.Fatalf("replay %s: %v", m.Name(), err)
		}
		if !reflect.DeepEqual(fused, split) {
			t.Errorf("%s: split result differs from fused engine\nfused: %+v\nsplit: %+v", m.Name(), fused, split)
		}
	}
	if shared != len(methods)-1 {
		t.Fatalf("expected all but the joint method shareable, got %d of %d", shared, len(methods))
	}
	// The comparison set collapses to six distinct memory configurations:
	// FM-8/16/32/64, the full-size nap image (FM-128, PD, ALWAYS-ON), and
	// the disable image.
	if len(recordings) != 6 {
		t.Errorf("comparison set produced %d recordings, want 6", len(recordings))
	}
}

// TestSplitPropertyRandomTraces is the testing/quick half of the
// equivalence proof: randomized traces, memory geometries, and method
// picks, with the disable timeout shortened so lazy invalidation and
// period sweeps actually fire.
func TestSplitPropertyRandomTraces(t *testing.T) {
	pageSize := 16 * simtime.KB
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, pageSize)

		installed := simtime.Bytes(8+rng.Intn(3)*8) * simtime.MB
		spec := mem.RDRAM(simtime.MB)
		spec.DisableTimeout = simtime.Seconds(60 + rng.Intn(300))
		// Warmup is a reporting window inherited from the recording, so
		// it is fixed per sweep point, like the runner does.
		warmup := simtime.Seconds(rng.Intn(3)) * 120

		var methods []policy.Method
		for _, dk := range []policy.DiskKind{policy.DiskTwoCompetitive, policy.DiskAdaptive, policy.DiskPredictive, policy.DiskAlwaysOn} {
			sz := installed / simtime.Bytes(1<<rng.Intn(3))
			methods = append(methods,
				policy.Method{Disk: dk, Mem: policy.MemFixedNap, MemBytes: sz},
				policy.Method{Disk: dk, Mem: policy.MemPowerDown, MemBytes: installed},
				policy.Method{Disk: dk, Mem: policy.MemDisable, MemBytes: installed},
			)
		}
		// A random subset keeps each iteration cheap while still mixing
		// configurations within one recording set.
		rng.Shuffle(len(methods), func(i, j int) { methods[i], methods[j] = methods[j], methods[i] })
		methods = methods[:4]

		recordings := map[CacheKey]*Recording{}
		defer func() {
			for _, rec := range recordings {
				rec.Release()
			}
		}()
		for _, m := range methods {
			cfg := Config{
				Trace:        tr,
				Method:       m,
				InstalledMem: installed,
				BankSize:     simtime.MB,
				MemSpec:      spec,
				Period:       120,
				Warmup:       warmup,
			}
			fused, err := Run(cfg)
			if err != nil {
				t.Logf("seed %d: fused %s: %v", seed, m.Name(), err)
				return false
			}
			key, _ := SharedCacheKey(m, installed)
			rec := recordings[key]
			if rec == nil {
				rec, err = Record(cfg)
				if err != nil {
					t.Logf("seed %d: record %s: %v", seed, m.Name(), err)
					return false
				}
				recordings[key] = rec
			}
			split, err := rec.Replay(m)
			if err != nil {
				t.Logf("seed %d: replay %s: %v", seed, m.Name(), err)
				return false
			}
			if !reflect.DeepEqual(fused, split) {
				t.Logf("seed %d: %s differs\nfused: %+v\nsplit: %+v", seed, m.Name(), fused, split)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// randomTrace builds a valid random trace: sorted times, page ranges
// inside the data set, byte sizes consistent with page counts. Half the
// requests repeat an earlier request's whole range, as a re-read file
// does, so the cache's one-splice hit path serves many of them, and under
// the disable policy some find a bank of their range dead.
func randomTrace(rng *rand.Rand, pageSize simtime.Bytes) *trace.Trace {
	dataPages := int64(256 + rng.Intn(1024))
	n := 50 + rng.Intn(300)
	dur := simtime.Seconds(400 + rng.Float64()*1000)

	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * float64(dur)
	}
	sortFloats(times)

	reqs := make([]trace.Request, n)
	for i := range reqs {
		first := rng.Int63n(dataPages)
		pages := int32(1 + rng.Intn(16))
		if max := dataPages - first; int64(pages) > max {
			pages = int32(max)
		}
		if i > 0 && rng.Intn(2) == 0 {
			prev := reqs[rng.Intn(i)]
			first, pages = prev.FirstPage, prev.Pages
		}
		reqs[i] = trace.Request{
			Time:      simtime.Seconds(times[i]),
			FirstPage: first,
			Pages:     pages,
			Bytes:     simtime.Bytes(pages) * pageSize,
		}
	}
	return &trace.Trace{
		PageSize:     pageSize,
		DataSetBytes: simtime.Bytes(dataPages) * pageSize,
		DataSetPages: dataPages,
		Files:        1,
		Duration:     dur,
		Requests:     reqs,
	}
}

func sortFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestRecordReplayRejections covers the guard rails: the joint method
// cannot record or replay, the zoned model cannot record, and a replay
// against the wrong memory configuration is refused.
func TestRecordReplayRejections(t *testing.T) {
	tr := testWorkload(t, 10, 600)

	joint := testConfig(tr, policy.Joint(128*simtime.MB))
	if _, err := Record(joint); err == nil {
		t.Error("Record accepted the joint method")
	}

	cfg := testConfig(tr, policy.Method{Disk: policy.DiskTwoCompetitive, Mem: policy.MemFixedNap, MemBytes: 32 * simtime.MB})
	rec, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Release()
	if _, err := rec.Replay(policy.Joint(128 * simtime.MB)); err == nil {
		t.Error("Replay accepted the joint method")
	}
	if _, err := rec.Replay(policy.Method{Disk: policy.DiskAdaptive, Mem: policy.MemFixedNap, MemBytes: 64 * simtime.MB}); err == nil {
		t.Error("Replay accepted a method with a different cache size")
	}
	if _, err := rec.Replay(policy.Method{Disk: policy.DiskAdaptive, Mem: policy.MemDisable, MemBytes: 128 * simtime.MB}); err == nil {
		t.Error("Replay accepted a disable method on a nap recording")
	}
	if _, err := rec.Replay(policy.Method{Disk: policy.DiskAdaptive, Mem: policy.MemFixedNap, MemBytes: 32 * simtime.MB}); err != nil {
		t.Errorf("Replay rejected a matching method: %v", err)
	}
}

// BenchmarkFrontEndReplay measures the split path end to end: one
// front-end pass plus two policy replays, the unit of work the sweep
// runner executes per memory-configuration group. The CI perf smoke job
// budgets its allocs/op.
func BenchmarkFrontEndReplay(b *testing.B) {
	tr := testWorkload(b, float64(simtime.MB), 1800)
	if len(tr.Requests) == 0 {
		b.Fatal("the workload generated no requests")
	}
	cfg := testConfig(tr, policy.Method{Disk: policy.DiskTwoCompetitive, Mem: policy.MemFixedNap, MemBytes: 32 * simtime.MB})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := Record(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, dk := range []policy.DiskKind{policy.DiskTwoCompetitive, policy.DiskAdaptive} {
			if _, err := rec.Replay(policy.Method{Disk: dk, Mem: policy.MemFixedNap, MemBytes: 32 * simtime.MB}); err != nil {
				b.Fatal(err)
			}
		}
		rec.Release()
	}
}
