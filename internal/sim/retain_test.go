package sim

import (
	"runtime"
	"testing"
	"time"

	"jointpm/internal/mem"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
)

// collected returns a channel that is closed once the memory model m is
// garbage. The finalizer sits on the mem.Memory, which no cycle reaches,
// so it runs as soon as nothing points at the model.
func collected(m *mem.Memory) <-chan struct{} {
	freed := make(chan struct{})
	runtime.SetFinalizer(m, func(*mem.Memory) { close(freed) })
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
			t.Fatalf("%s: the memory model is still reachable while its Result is held", what)
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

	rcfg := testConfig(tr, policy.AlwaysOn(128*simtime.MB))
	rec, err := Record(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Release()
	if rcfg, err = rcfg.withDefaults(); err != nil {
		t.Fatal(err)
	}
	b := newBackEnd(rcfg, rec)
	freed = collected(b.mem)
	rres, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	b = nil
	waitCollected(t, "replay", freed)
	if rres.CacheAccesses == 0 {
		t.Fatal("the held replay Result lost its counters")
	}
}
