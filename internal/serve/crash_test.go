package serve

import (
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"jointpm/internal/fault"
	"jointpm/internal/trace"
)

// runUntilCrash feeds the trace into a crash-scheduled server and
// returns the decisions published before the injected kill. The server
// is deliberately not Closed: a crash writes no shutdown checkpoint,
// so whatever the periodic cadence last wrote is all that survives.
func runUntilCrash(t *testing.T, tr *trace.Trace, cfg Config) []Decision {
	t.Helper()
	log := &decisionLog{}
	cfg.OnDecision = log.add
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Requests {
		if err := sh.IngestBatch(tr.Requests[i : i+1]); err != nil {
			if errors.Is(err, ErrCrashInjected) {
				return log.list()
			}
			t.Fatal(err)
		}
	}
	err = sh.FinishTo(tr.Duration)
	if !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("crash never fired: FinishTo = %v", err)
	}
	return log.list()
}

// TestCrashRecoveryConvergence is the crash-recovery harness: across 50
// seeds, kill the daemon at a scripted period boundary, restart from
// the last periodic checkpoint, and require the restarted decision
// stream to re-converge with the uninterrupted run within one period —
// every period the restarted daemon closes must decide exactly what the
// uninterrupted run decided for that period index.
func TestCrashRecoveryConvergence(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tr := testTrace(t, 100+seed)
		ref := runUninterrupted(t, tr, testConfig(nil))
		if len(ref) < 4 {
			t.Fatalf("seed %d: reference run closed only %d periods", seed, len(ref))
		}
		// Crash period ranges over the whole run, including period 1
		// (before any checkpoint exists: restart is a cold start).
		crashAt := 1 + seed%int64(len(ref))

		snap := filepath.Join(t.TempDir(), "daemon.snap")
		cfg := testConfig(nil)
		cfg.SnapshotPath = snap
		cfg.SnapshotEvery = 2
		cfg.Injector = fault.NewInjector(fault.Plan{
			Daemon: fault.DaemonPlan{CrashAtPeriod: crashAt},
		}, cfg.Period, nil)
		before := runUntilCrash(t, tr, cfg)
		if int64(len(before)) != crashAt-1 {
			t.Fatalf("seed %d: crashed run published %d decisions before crash at period %d", seed, len(before), crashAt)
		}

		// Restart: the fault does not recur; restore whatever checkpoint
		// survived and replay the rest of the stream from its position.
		log2 := &decisionLog{}
		cfg2 := testConfig(log2)
		cfg2.SnapshotPath = snap
		srv2, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv2.Restore(); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		sh2, err := srv2.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		for i := sh2.Consumed(); i < int64(len(tr.Requests)); i++ {
			if err := sh2.IngestBatch(tr.Requests[i : i+1]); err != nil {
				t.Fatalf("seed %d: replay: %v", seed, err)
			}
		}
		if err := sh2.FinishTo(tr.Duration); err != nil {
			t.Fatalf("seed %d: replay finish: %v", seed, err)
		}
		if err := srv2.Close(); err != nil {
			t.Fatal(err)
		}

		after := log2.list()
		if len(after) == 0 {
			t.Fatalf("seed %d: restarted run published no decisions", seed)
		}
		// Re-convergence within one period: the restart resumes at the
		// checkpointed period (at worst SnapshotEvery-1 periods before
		// the crash, or period 1 on a cold start) and every decision it
		// publishes — including the re-decided periods between checkpoint
		// and crash — matches the uninterrupted run at that period index.
		first := after[0].Period
		if first > crashAt {
			t.Fatalf("seed %d: restarted run skipped periods: first decision at %d, crash at %d", seed, first, crashAt)
		}
		if last := after[len(after)-1].Period; last != int64(len(ref)) {
			t.Fatalf("seed %d: restarted run ended at period %d, reference at %d", seed, last, len(ref))
		}
		for i, d := range after {
			if want := first + int64(i); d.Period != want {
				t.Fatalf("seed %d: restarted decision %d closes period %d, want %d", seed, i, d.Period, want)
			}
			if !reflect.DeepEqual(d, ref[d.Period-1]) {
				t.Fatalf("seed %d: period %d: restarted decision diverges from uninterrupted run\n got %+v\nwant %+v", seed, d.Period, d, ref[d.Period-1])
			}
		}
		// And the pre-crash prefix matched the reference too.
		for i, d := range before {
			if !reflect.DeepEqual(d, ref[i]) {
				t.Fatalf("seed %d: pre-crash decision for period %d diverges from reference", seed, d.Period)
			}
		}
	}
}

// TestConcurrentIngestAndCheckpoint drives two shards from separate
// goroutines with the periodic cadence on, while a third goroutine
// forces extra checkpoints — the combination that deadlocked when the
// cadence ran under the shard lock. Run under -race in CI.
func TestConcurrentIngestAndCheckpoint(t *testing.T) {
	trA, trB := testTrace(t, 201), testTrace(t, 202)
	cfg := testConfig(&decisionLog{})
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "daemon.snap")
	cfg.SnapshotEvery = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shA, err := srv.Shard("a")
	if err != nil {
		t.Fatal(err)
	}
	shB, err := srv.Shard("b")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	feed := func(sh *Shard, tr *trace.Trace) {
		defer wg.Done()
		for i := range tr.Requests {
			if err := sh.IngestBatch(tr.Requests[i : i+1]); err != nil {
				t.Error(err)
				return
			}
		}
		if err := sh.FinishTo(tr.Duration); err != nil {
			t.Error(err)
		}
	}
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	wg.Add(2)
	go feed(shA, trA)
	go feed(shB, trB)
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
				if err := srv.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-ckptDone
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The final checkpoint must restore both shards at end of stream.
	cfg2 := testConfig(&decisionLog{})
	cfg2.SnapshotPath = cfg.SnapshotPath
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	names, err := srv2.Restore()
	if err != nil || len(names) != 2 {
		t.Fatalf("Restore = (%v, %v), want both shards", names, err)
	}
	a2, _ := srv2.Shard("a")
	b2, _ := srv2.Shard("b")
	if a2.Consumed() != int64(len(trA.Requests)) || b2.Consumed() != int64(len(trB.Requests)) {
		t.Fatalf("restored positions a=%d b=%d, want %d/%d", a2.Consumed(), b2.Consumed(), len(trA.Requests), len(trB.Requests))
	}
}
