package serve

import (
	"path/filepath"
	"reflect"
	"testing"
)

// speedConfig is testConfig with a four-level DRPM ladder.
func speedConfig(log *decisionLog) Config {
	cfg := testConfig(log)
	cfg.SpeedLevels = 4
	return cfg
}

// TestSpeedSingleLevelDaemonIdentical is the daemon-level half of the
// bit-identity contract: SpeedLevels 0 and 1 must produce DeepEqual
// decision streams over the same trace — the one-level ladder build is
// indistinguishable from a build without the speed dimension.
func TestSpeedSingleLevelDaemonIdentical(t *testing.T) {
	tr := testTrace(t, 31)
	want := runUninterrupted(t, tr, testConfig(nil))
	cfg := testConfig(nil)
	cfg.SpeedLevels = 1
	got := runUninterrupted(t, tr, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-level ladder daemon diverged (got %d, want %d decisions)", len(got), len(want))
	}
}

// TestSpeedWarmRestartParity re-runs the daemon re-exec acceptance
// criterion with the speed slate on: stop at arbitrary cuts, restore
// from the checkpoint (snapshot v5 carries the level), replay the rest,
// and the combined decision stream — levels included — must match the
// uninterrupted multi-speed run exactly.
func TestSpeedWarmRestartParity(t *testing.T) {
	tr := testTrace(t, 11)
	want := runUninterrupted(t, tr, speedConfig(nil))
	if len(want) < 10 {
		t.Fatalf("reference run closed only %d periods", len(want))
	}
	sawSlow := false
	for _, d := range want {
		if d.Decision.Level > 0 {
			sawSlow = true
			break
		}
	}
	if !sawSlow {
		t.Fatal("reference multi-speed run never left full speed; the cut test would not exercise level carry-over")
	}

	cuts := []int{1, len(tr.Requests) / 3, 2 * len(tr.Requests) / 3}
	for _, cut := range cuts {
		snap := filepath.Join(t.TempDir(), "daemon.snap")

		log1 := &decisionLog{}
		cfg := speedConfig(log1)
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
		cfg2 := speedConfig(log2)
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
			t.Fatalf("cut %d: restarted multi-speed decision stream diverges (got %d, want %d decisions)",
				cut, len(got), len(want))
		}
	}
}
