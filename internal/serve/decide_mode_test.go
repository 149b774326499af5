package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jointpm/internal/core"
)

// TestIncrementalWarmRestartParity replays the warm-restart acceptance
// criterion: stopping at an arbitrary request (mid-
// period included) and restarting from the checkpoint must reproduce the
// uninterrupted incremental run's decision stream exactly. Mid-period
// cuts force restore to rebuild the streaming histogram by replaying the
// snapshot's partial-period log, validated against the v2 snapshot's
// recorded ingested-reference count.
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

// TestBatchSnapshotRestoresIntoIncremental covers snapshots cut by a
// daemon that ran the retired batch path: they carry observation mode 0
// and no ingested-reference count. A snapshot cut mid-period, rewritten
// to that form, must still restore — the shard rebuilds its histogram
// from the stored partial-period log, without the count check — and the
// combined decision stream must match the uninterrupted run's.
func TestBatchSnapshotRestoresIntoIncremental(t *testing.T) {
	tr := testTrace(t, 11)
	want := runUninterrupted(t, tr, testConfig(nil))

	cut := len(tr.Requests) / 2
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

	states, err := readSnapshotFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range states {
		st := &states[i]
		if st.Mode != snapModeIncremental || st.IngestedRefs == 0 {
			t.Fatalf("shard %s wrote mode %d with %d ingested refs, want mode %d mid-period",
				st.Name, st.Mode, st.IngestedRefs, snapModeIncremental)
		}
		st.Mode, st.IngestedRefs = 0, 0
	}
	if _, err := writeSnapshotFile(snap, states); err != nil {
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
		t.Fatalf("mode-0 snapshot restore diverges (got %d, want %d decisions)", len(got), len(want))
	}
}

// TestSnapshotV1Read pins backward compatibility: a version-1 snapshot —
// the v2 payload minus the per-shard incremental section — still decodes,
// with the new fields at their zero values.
func TestSnapshotV1Read(t *testing.T) {
	states := []shardState{{
		Name:         "d0",
		PeriodIdx:    3,
		Consumed:     120,
		NextBoundary: 480,
		CurBanks:     64,
		CurPages:     1024,
		Core: core.State{
			Banks: 64, Pages: 1024, Timeout: 5,
			StackPages: []int64{9, 4, 7}, StackRefs: 120, StackColds: 10,
		},
		Log: []logRecord{{Time: 361.5, Page: 7, Depth: -1, Bytes: 65536}},
	}}
	v1 := encodePayload(states, 1)

	path := filepath.Join(t.TempDir(), "v1.snap")
	var f bytes.Buffer
	f.WriteString(snapshotMagic)
	f.WriteByte(1)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(v1)))
	f.Write(lenBuf[:])
	f.Write(v1)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(v1))
	f.Write(crcBuf[:])
	if err := os.WriteFile(path, f.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-v3 files decode the drift field as the keep-config sentinel.
	states[0].RefitDrift = -1
	if !reflect.DeepEqual(got, states) {
		t.Fatalf("v1 snapshot decodes differently:\n got %+v\nwant %+v", got, states)
	}
}
