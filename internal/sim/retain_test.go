package sim

import (
	"runtime"
	"testing"
	"time"

	"jointpm/internal/policy"
	"jointpm/internal/simtime"
)

// collected returns a channel that is closed once obj is garbage. obj
// must be a leaf, on no cycle (Go runs no finalizer on a cycle), so the
// finalizer runs as soon as nothing points at it.
func collected(obj any) <-chan struct{} {
	freed := make(chan struct{})
	runtime.SetFinalizer(obj, func(any) { close(freed) })
	return freed
}

func waitCollected(t *testing.T, what string, freed <-chan struct{}) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatalf("%s: engine state is still reachable while its Result is held", what)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestResultOwnsNoEngineState holds the Result of a JOINT run and of a
// replay while their engine and back end become garbage: a Result must
// not keep the page cache, power models, stack, manager or recording
// reachable.
func TestResultOwnsNoEngineState(t *testing.T) {
	tr := testWorkload(t, float64(simtime.MB), 600)

	cfg, err := (&Config{Trace: tr, Method: policy.Joint(128 * simtime.MB),
		InstalledMem: 128 * simtime.MB, BankSize: simtime.MB, Period: 120}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	freed := collected(e.mem)
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	e = nil
	waitCollected(t, "JOINT run", freed)
	if len(res.Periods) == 0 || res.Periods[len(res.Periods)-1].Decision == nil {
		t.Fatal("the held JOINT Result lost its periods")
	}

	// The replay leg's finalizer sits on the memory pass, a leaf that the
	// recording's memo and the back end both point at, and that the back
	// end's disk model reaches through its idle recorder (the disk and the
	// back end form a cycle, so neither can carry the finalizer). Its
	// collection shows the Result holds no power model, memory pass or
	// recording. The memory model lives only inside the pass.
	rec, err := Record(testConfig(tr, policy.AlwaysOn(128*simtime.MB)))
	if err != nil {
		t.Fatal(err)
	}
	rres, err := rec.Replay(policy.AlwaysOn(128 * simtime.MB))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.mems) != 1 {
		t.Fatalf("one replay made %d memory passes, want 1", len(rec.mems))
	}
	freed = collected(rec.mems[0])
	rec = nil
	waitCollected(t, "replay", freed)
	if rres.CacheAccesses == 0 {
		t.Fatal("the held replay Result lost its counters")
	}
}
