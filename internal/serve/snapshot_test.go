package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"jointpm/internal/trace"
)

// snapshotWorkloads are the warm-restart workloads the snapshot tests
// cut: the plain daemon, a capped one whose shard runs under a fleet
// budget, and one with a four-level speed ladder.
var snapshotWorkloads = []struct {
	name string
	cfg  func() Config
}{
	{"plain", func() Config { return testConfig(&decisionLog{}) }},
	{"capped", func() Config {
		cfg := testConfig(&decisionLog{})
		cfg.PowerCapW = 8
		return cfg
	}},
	{"ladder", func() Config { return speedConfig(&decisionLog{}) }},
}

// checkpointAt returns the states a server of cfg checkpoints after its
// shard d0 served the first cut requests of tr.
func checkpointAt(t testing.TB, cfg Config, tr *trace.Trace, cut int) []shardState {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.IngestBatch(tr.Requests[:cut]); err != nil {
		t.Fatal(err)
	}
	return srv.snapshotState()
}

// TestSnapshotCheckpointRestoreCheckpoint: at random cuts of the
// warm-restart workloads, a checkpoint restored into a fresh server
// checkpoints again to the same bytes.
func TestSnapshotCheckpointRestoreCheckpoint(t *testing.T) {
	tr := testTrace(t, 11)
	for _, w := range snapshotWorkloads {
		cfg := w.cfg()
		cfg.SnapshotPath = filepath.Join(t.TempDir(), "daemon.snap")
		trial := func(at uint16) bool {
			cut := int(at) * len(tr.Requests) / (1 << 16)
			if _, err := writeSnapshotFile(cfg.SnapshotPath, checkpointAt(t, cfg, tr, cut)); err != nil {
				t.Fatal(err)
			}
			first, err := os.ReadFile(cfg.SnapshotPath)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Restore(); err != nil {
				t.Fatalf("%s cut %d: %v", w.name, cut, err)
			}
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			second, err := os.ReadFile(cfg.SnapshotPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Logf("%s cut %d: the restored server checkpoints %d bytes, the original %d", w.name, cut, len(second), len(first))
				return false
			}
			return true
		}
		if err := quick.Check(trial, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestRestoreAllOrNothing: a file of three shards whose middle one the
// server cannot hold restores no shard at all; the same file with that
// shard mended restores all three.
func TestRestoreAllOrNothing(t *testing.T) {
	tr := testTrace(t, 12)
	srv, err := New(testConfig(&decisionLog{}))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c"} {
		sh, err := srv.Shard(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.IngestBatch(tr.Requests[:(i+1)*len(tr.Requests)/4]); err != nil {
			t.Fatal(err)
		}
	}
	states := srv.snapshotState()
	cfg := testConfig(&decisionLog{})
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "daemon.snap")
	banks := states[1].Core.Banks
	states[1].Core.Banks = srv.Params().TotalBanks + 1
	if _, err := writeSnapshotFile(cfg.SnapshotPath, states); err != nil {
		t.Fatal(err)
	}
	bad, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := bad.Restore(); err == nil || names != nil || !strings.Contains(err.Error(), "shard b") {
		t.Fatalf("Restore = (%v, %v), want an error naming shard b", names, err)
	}
	if n := len(bad.shards); n != 0 {
		t.Fatalf("a refused restore left %d shards", n)
	}

	states[1].Core.Banks = banks
	if _, err := writeSnapshotFile(cfg.SnapshotPath, states); err != nil {
		t.Fatal(err)
	}
	good, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := good.Restore(); err != nil || !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Fatalf("Restore = (%v, %v), want all three shards", names, err)
	}
}

// TestSnapshotDecoderLimitsCounts: a count the bytes left cannot hold is
// refused before anything is allocated for it. Each prefix of a real
// checkpoint's payload is followed by a count of 2^32 and three bytes;
// where the decoder reads the length of a list or a string — the shards,
// the name, the counters, the stack, the two bucket lists, the segments,
// the emissions and the seed fix-ups — the count is what fails.
func TestSnapshotDecoderLimitsCounts(t *testing.T) {
	tr := testTrace(t, 11)
	payload := encodePayload(checkpointAt(t, testConfig(&decisionLog{}), tr, len(tr.Requests)/3))
	var big [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(big[:], 1<<32)
	counts := 0
	for i := range payload {
		p := append(append(append([]byte(nil), payload[:i]...), big[:n]...), 1, 2, 3)
		if _, err := decodePayload(p); err != nil && strings.Contains(err.Error(), "count 4294967296 exceeds") {
			counts++
		}
	}
	if counts < 9 {
		t.Fatalf("%d of the payload's list and string lengths refused the count of 2^32, want 9", counts)
	}
}

// FuzzSnapshotPayload hands the decoder arbitrary payloads, seeded with
// real mid-period checkpoints of the three warm-restart workloads and
// the payload-level cases of TestSnapshotRejectsCorruption (truncated,
// a flipped byte, trailing junk). No input may panic. A payload that
// decodes is either refused by the restore, which then leaves the server
// without shards, or restored; then every restored shard's next period
// closes with one decision the manager could make: banks in [MinBanks,
// TotalBanks], a timeout that is not NaN and a level inside the ladder.
func FuzzSnapshotPayload(f *testing.F) {
	tr := testTrace(f, 11)
	for i, w := range snapshotWorkloads {
		payload := encodePayload(checkpointAt(f, w.cfg(), tr, len(tr.Requests)/3+97*i))
		f.Add(uint8(i), payload)
		f.Add(uint8(i), payload[:len(payload)-3])
		f.Add(uint8(i), flipByte(payload, 7))
		f.Add(uint8(i), append(append([]byte(nil), payload...), 0xAB))
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		states, err := decodePayload(payload)
		if err != nil {
			return
		}
		log := &decisionLog{}
		cfg := snapshotWorkloads[int(which)%len(snapshotWorkloads)].cfg()
		cfg.OnDecision = log.add
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		names, err := srv.restore(states)
		if err != nil {
			if n := len(srv.shards); n != 0 {
				t.Fatalf("a refused restore left %d shards: %v", n, err)
			}
			return
		}
		p := srv.Params()
		levels := max(len(p.SpeedLevels), 1)
		for _, name := range names {
			sh, err := srv.Shard(name)
			if err != nil {
				t.Fatal(err)
			}
			before := len(log.list())
			if err := sh.FinishTo(sh.nextBoundary); err != nil {
				t.Fatal(err)
			}
			decs := log.list()[before:]
			if len(decs) != 1 {
				t.Fatalf("shard %q closed %d periods at its next boundary, want 1", name, len(decs))
			}
			d := decs[0].Decision
			if d.Banks < p.MinBanks || d.Banks > p.TotalBanks || math.IsNaN(float64(d.Timeout)) || d.Level < 0 || d.Level >= levels {
				t.Fatalf("shard %q decided %d banks, timeout %v, level %d", name, d.Banks, d.Timeout, d.Level)
			}
		}
	})
}
