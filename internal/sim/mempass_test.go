package sim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"jointpm/internal/mem"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
)

// TestOneMemoryPassPerMemoryConfig replays the comparison set from
// shared recordings, twice over, and checks that memory is metered once
// per distinct (bank policy, enabled banks): FM at 8, 16, 32 and 64 MB,
// nap and power-down at the installed 128 MB, and disable — seven passes
// for fourteen replays, each made once (a second run of a pass would
// append a second set of boundaries). Every replay stays
// reflect.DeepEqual to the fused engine.
func TestOneMemoryPassPerMemoryConfig(t *testing.T) {
	tr := testWorkload(t, float64(simtime.MB), 1800)
	methods := policy.Comparison(128*simtime.MB, testFMSizes)

	recordings := map[CacheKey]*Recording{}
	defer func() {
		for _, rec := range recordings {
			rec.Release()
		}
	}()
	for round := 0; round < 2; round++ {
		for _, m := range methods {
			cfg := testConfig(tr, m)
			cfg.Warmup = 240
			key, ok := SharedCacheKey(m, cfg.InstalledMem)
			if !ok {
				continue
			}
			rec := recordings[key]
			if rec == nil {
				var err error
				if rec, err = Record(cfg); err != nil {
					t.Fatalf("record %s: %v", m.Name(), err)
				}
				recordings[key] = rec
			}
			split, err := rec.Replay(m)
			if err != nil {
				t.Fatalf("replay %s: %v", m.Name(), err)
			}
			fused, err := Run(cfg)
			if err != nil {
				t.Fatalf("fused %s: %v", m.Name(), err)
			}
			if !reflect.DeepEqual(fused, split) {
				t.Errorf("round %d: %s: split result differs from fused engine", round, m.Name())
			}
		}
	}

	passes := map[memKey]bool{}
	for _, rec := range recordings {
		for _, mp := range rec.mems {
			if passes[mp.key] {
				t.Errorf("memory pass %+v made twice", mp.key)
			}
			passes[mp.key] = true
			if len(mp.bounds) != len(rec.periods) {
				t.Errorf("memory pass %+v holds %d boundaries for %d periods", mp.key, len(mp.bounds), len(rec.periods))
			}
		}
	}
	want := map[memKey]bool{
		{mem.AlwaysNap, 8}: true, {mem.AlwaysNap, 16}: true, {mem.AlwaysNap, 32}: true, {mem.AlwaysNap, 64}: true,
		{mem.AlwaysNap, 128}: true, {mem.TimeoutPowerDown, 128}: true, {mem.TimeoutDisable, 128}: true,
	}
	if !reflect.DeepEqual(passes, want) {
		t.Errorf("memory passes %v, want %v", passes, want)
	}
}

// TestConcurrentReplayMatchesSequential replays one recording from
// several goroutines at once, each walking the recording's methods in its
// own random order, so replays race to make and to read the memory
// passes; every result must equal a sequential replay of a separate
// recording. Run under -race it checks the memo's locking too.
func TestConcurrentReplayMatchesSequential(t *testing.T) {
	tr := testWorkload(t, float64(simtime.MB), 1800)
	var methods []policy.Method
	for _, dk := range []policy.DiskKind{policy.DiskAlwaysOn, policy.DiskTwoCompetitive, policy.DiskAdaptive, policy.DiskPredictive} {
		methods = append(methods,
			policy.Method{Disk: dk, Mem: policy.MemFixedNap, MemBytes: 128 * simtime.MB},
			policy.Method{Disk: dk, Mem: policy.MemPowerDown, MemBytes: 128 * simtime.MB})
	}
	cfg := testConfig(tr, methods[0])
	cfg.Warmup = 240

	seq, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(methods))
	for i, m := range methods {
		if want[i], err = seq.Replay(m); err != nil {
			t.Fatalf("sequential %s: %v", m.Name(), err)
		}
	}
	seq.Release()

	rec, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Release()
	const workers = 6
	got := make([][]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*Result, len(methods))
		order := rand.New(rand.NewSource(int64(w))).Perm(len(methods))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range order {
				res, err := rec.Replay(methods[i])
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = res
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i, m := range methods {
			if !reflect.DeepEqual(want[i], got[w][i]) {
				t.Errorf("worker %d: %s: concurrent replay differs from sequential", w, m.Name())
			}
		}
	}
	if len(rec.mems) != 2 {
		t.Errorf("%d memory passes for the nap and power-down policies, want 2", len(rec.mems))
	}
}
