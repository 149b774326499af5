package serve

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestIncrementalWarmRestartParity replays the warm-restart acceptance
// criterion: stopping at an arbitrary request (mid-
// period included) and restarting from the checkpoint must reproduce the
// uninterrupted incremental run's decision stream exactly. Mid-period
// cuts restore the streaming histogram and gap log from the snapshot's
// open-period state.
func TestIncrementalWarmRestartParity(t *testing.T) {
	tr := testTrace(t, 11)
	base := testConfig(nil)
	want := runUninterrupted(t, tr, base)
	if len(want) < 10 {
		t.Fatalf("reference run closed only %d periods", len(want))
	}

	cuts := []int{1, len(tr.Requests) / 3, len(tr.Requests) / 2}
	for _, cut := range cuts {
		snap := filepath.Join(t.TempDir(), "daemon.snap")

		log1 := &decisionLog{}
		cfg := testConfig(log1)
		cfg.SnapshotPath = snap
		srv1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh1, err := srv1.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			if err := sh1.IngestBatch(tr.Requests[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv1.Close(); err != nil {
			t.Fatal(err)
		}

		log2 := &decisionLog{}
		cfg2 := testConfig(log2)
		cfg2.SnapshotPath = snap
		srv2, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv2.Restore(); err != nil {
			t.Fatal(err)
		}
		sh2, err := srv2.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		for i := sh2.Consumed(); i < int64(len(tr.Requests)); i++ {
			if err := sh2.IngestBatch(tr.Requests[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh2.FinishTo(tr.Duration); err != nil {
			t.Fatal(err)
		}
		if err := srv2.Close(); err != nil {
			t.Fatal(err)
		}

		got := append(log1.list(), log2.list()...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: restarted incremental decision stream diverges (got %d, want %d decisions)",
				cut, len(got), len(want))
		}
	}
}
