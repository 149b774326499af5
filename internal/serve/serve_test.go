package serve

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

func testTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 64 * simtime.MB,
		PageSize:     64 * simtime.KB,
		Rate:         0.3 * float64(simtime.MB),
		Popularity:   0.1,
		Duration:     1800,
		Classes:      workload.SPECWeb99Classes(64),
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// splitRangeTrace derives from tr, with a fixed seed, a trace whose page
// ranges no longer repeat whole: some requests are cut in two at the same
// time, some are merged with the start of the range after them, which
// nests or overlaps its extent, and some lose their first pages.
func splitRangeTrace(tr *trace.Trace, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := *tr
	out.Requests = make([]trace.Request, 0, len(tr.Requests)*9/8)
	for _, req := range tr.Requests {
		switch k := rng.Intn(8); {
		case k == 0 && req.Pages > 1:
			head, tail := req, req
			head.Pages = 1 + rng.Int31n(req.Pages-1)
			tail.FirstPage += int64(head.Pages)
			tail.Pages -= head.Pages
			out.Requests = append(out.Requests, head, tail)
			continue
		case k == 1:
			req.Pages += 1 + rng.Int31n(8)
		case k == 2 && req.Pages > 1:
			drop := 1 + rng.Int31n(req.Pages-1)
			req.FirstPage += int64(drop)
			req.Pages -= drop
		}
		out.Requests = append(out.Requests, req)
	}
	return &out
}

type decisionLog struct {
	mu   sync.Mutex
	decs []Decision
}

func (l *decisionLog) add(d Decision) {
	l.mu.Lock()
	l.decs = append(l.decs, d)
	l.mu.Unlock()
}

func (l *decisionLog) list() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Decision(nil), l.decs...)
}

func testConfig(log *decisionLog) Config {
	return Config{
		PageSize:     64 * simtime.KB,
		BankSize:     simtime.MB,
		InstalledMem: 128 * simtime.MB,
		Period:       120,
		OnDecision:   log.add,
	}
}

// runUninterrupted feeds the whole trace through a fresh server and
// returns its decision stream.
func runUninterrupted(t testing.TB, tr *trace.Trace, cfg Config) []Decision {
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
			t.Fatal(err)
		}
	}
	if err := sh.FinishTo(tr.Duration); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return log.list()
}

// TestWarmRestartDecisionParity is the tentpole acceptance criterion:
// stop the daemon gracefully at an arbitrary request (mid-period
// included), restart from its shutdown checkpoint, replay the rest of
// the stream, and the combined decision sequence must be DeepEqual to
// the uninterrupted run's. It runs on the generated trace and on a
// split-range version of it, whose checkpointed period logs hold runs
// of split and merged ranges.
func TestWarmRestartDecisionParity(t *testing.T) {
	tr := testTrace(t, 11)
	t.Run("whole-ranges", func(t *testing.T) { testWarmRestartDecisionParity(t, tr) })
	t.Run("split-ranges", func(t *testing.T) { testWarmRestartDecisionParity(t, splitRangeTrace(tr, 1)) })
}

func testWarmRestartDecisionParity(t *testing.T, tr *trace.Trace) {
	want := runUninterrupted(t, tr, testConfig(nil))
	if len(want) < 10 {
		t.Fatalf("reference run closed only %d periods", len(want))
	}

	cuts := []int{0, 1, len(tr.Requests) / 3, len(tr.Requests) / 2, len(tr.Requests) - 1}
	for _, cut := range cuts {
		snap := filepath.Join(t.TempDir(), "daemon.snap")

		// First daemon life: ingest up to the cut, then shut down
		// gracefully (Close writes the checkpoint).
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

		// Second life: restore, skip what the checkpoint already
		// consumed, stream the rest.
		log2 := &decisionLog{}
		cfg2 := testConfig(log2)
		cfg2.SnapshotPath = snap
		srv2, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		names, err := srv2.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if cut > 0 && (len(names) != 1 || names[0] != "d0") {
			t.Fatalf("cut %d: restored shards %v, want [d0]", cut, names)
		}
		sh2, err := srv2.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		skip := sh2.Consumed()
		if skip != int64(cut) {
			t.Fatalf("cut %d: checkpoint consumed %d", cut, skip)
		}
		for i := skip; i < int64(len(tr.Requests)); i++ {
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
			t.Fatalf("cut %d: restarted decision stream diverges from uninterrupted run (got %d, want %d decisions)", cut, len(got), len(want))
		}
	}
}

// TestNewRejectsWindowAboveStackLimit: installed memory of more pages
// than the extended-LRU stack can track is a configuration error, not a
// panic when the first shard starts.
func TestNewRejectsWindowAboveStackLimit(t *testing.T) {
	cfg := testConfig(&decisionLog{})
	cfg.PageSize = simtime.KB
	cfg.BankSize = simtime.GB
	cfg.InstalledMem = 2048 * simtime.GB
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "stack's limit") {
		t.Fatalf("New with %d pages installed = %v, want the stack-limit error", cfg.InstalledMem/cfg.PageSize, err)
	}
	cfg.InstalledMem = 1024 * simtime.GB
	if _, err := New(cfg); err != nil {
		t.Fatalf("New with %d pages installed: %v", cfg.InstalledMem/cfg.PageSize, err)
	}
}

// TestMultiDiskCheckpoint: one snapshot file covers every shard, and a
// restore brings them all back at their own stream positions.
func TestMultiDiskCheckpoint(t *testing.T) {
	trA, trB := testTrace(t, 21), testTrace(t, 22)
	snap := filepath.Join(t.TempDir(), "daemon.snap")

	cfg := testConfig(&decisionLog{})
	cfg.SnapshotPath = snap
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shA, _ := srv.Shard("a")
	shB, _ := srv.Shard("b")
	for i := 0; i < 200; i++ {
		if err := shA.IngestBatch(trA.Requests[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 137; i++ {
		if err := shB.IngestBatch(trB.Requests[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := testConfig(&decisionLog{})
	cfg2.SnapshotPath = snap
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	names, err := srv2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("restored %v, want two shards", names)
	}
	shA2, _ := srv2.Shard("a")
	shB2, _ := srv2.Shard("b")
	if shA2.Consumed() != 200 || shB2.Consumed() != 137 {
		t.Fatalf("restored positions a=%d b=%d, want 200/137", shA2.Consumed(), shB2.Consumed())
	}
}

// TestSnapshotRoundTrip: the codec reproduces the exact payload,
// including the bit patterns of times, +Inf timeouts, and Cold depths.
func TestSnapshotRoundTrip(t *testing.T) {
	in := []shardState{{
		Name:         "sda",
		PeriodIdx:    7,
		Consumed:     12345,
		NextBoundary: 960.0000000001,
		CurBanks:     12,
		CurPages:     3072,
		Core: core.State{
			Banks: 12, Pages: 3072,
			Timeout:    simtime.Seconds(math.Inf(1)),
			Fallback:   true,
			Counters:   map[string]int64{"core.decide.calls": 7},
			StackPages: []int64{5, 9, 1, 0, 42},
			StackRefs:  999,
			StackColds: 40,
		},
		CacheAcc: 17,
		Misses:   3,
		ReqRuns:  2,
		Log: []logRecord{
			{Time: 841.0000000000001, Page: 42, Depth: -1, Bytes: 65536},
			{Time: 842.5, Page: 43, Depth: 17, Bytes: 65536},
		},
		RefitDrift: 0.0625,
	}, {
		Name: "sdb",
	}}
	path := filepath.Join(t.TempDir(), "s.snap")
	if _, err := writeSnapshotFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize empty-vs-nil slices the decoder materializes.
	for i := range out {
		if len(out[i].Core.StackPages) == 0 {
			out[i].Core.StackPages = nil
		}
		if len(out[i].Log) == 0 {
			out[i].Log = nil
		}
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

// TestSnapshotRejectsCorruption: every structural violation is detected
// and reported, never silently restored.
func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap")
	if _, err := writeSnapshotFile(path, []shardState{{Name: "d0", NextBoundary: 120}}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := map[string][]byte{
		"bad magic":     append([]byte("XXXX"), good[4:]...),
		"bad version":   append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"short header":  good[:8],
		"truncated":     good[:len(good)-3],
		"flipped body":  flipByte(good, 20),
		"flipped crc":   flipByte(good, len(good)-1),
		"length lies":   flipByte(good, 5),
		"trailing junk": append(append([]byte{}, good...), 0xAB),
	}
	for name, b := range corrupt {
		p := filepath.Join(dir, "c.snap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshotFile(p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Missing file is a cold start, not an error.
	if _, err := readSnapshotFile(filepath.Join(dir, "absent.snap")); !errors.Is(err, errNoSnapshot) {
		t.Errorf("missing file: err = %v, want errNoSnapshot", err)
	}
	srvLog := &decisionLog{}
	cfg := testConfig(srvLog)
	cfg.SnapshotPath = filepath.Join(dir, "absent.snap")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names, err := srv.Restore()
	if err != nil || len(names) != 0 {
		t.Fatalf("cold start Restore = (%v, %v), want no shards, nil", names, err)
	}
}

// TestRestoreRejectsOutOfRangeState: a CRC-valid snapshot whose state
// the shard cannot hold — a log depth that is neither Cold nor at least
// 1, a negative stack or log page, log bytes other than the page size —
// makes Restore return an error naming the shard, without panicking and
// without changing the shard. The snapshot is a real mid-period
// checkpoint, edited and rewritten through writeSnapshotFile.
func TestRestoreRejectsOutOfRangeState(t *testing.T) {
	tr := testTrace(t, 11)
	dir := t.TempDir()
	cfg := testConfig(&decisionLog{})
	cfg.SnapshotPath = filepath.Join(dir, "good.snap")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range tr.Requests[:len(tr.Requests)/3] {
		if err := sh.IngestBatch([]trace.Request{req}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := readSnapshotFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 1 || len(good[0].Log) < 2 || len(good[0].Core.StackPages) < 2 {
		t.Fatalf("checkpoint holds %d shards; want one with a partial period and a stack", len(good))
	}
	mutations := []struct {
		name string
		edit func(st *shardState)
	}{
		{"log-depth-0", func(st *shardState) { st.Log[1].Depth = 0 }},
		{"log-depth-negative", func(st *shardState) { st.Log[1].Depth = -7 }},
		{"stack-page-negative", func(st *shardState) { st.Core.StackPages[1] = -3 }},
		{"log-bytes", func(st *shardState) { st.Log[1].Bytes = int64(cfg.PageSize) / 2 }},
		{"log-page-negative", func(st *shardState) { st.Log[1].Page = -1 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			st := good[0]
			st.Log = append([]logRecord(nil), st.Log...)
			st.Core.StackPages = append([]int64(nil), st.Core.StackPages...)
			m.edit(&st)
			cfg2 := cfg
			cfg2.SnapshotPath = filepath.Join(t.TempDir(), "bad.snap")
			if _, err := writeSnapshotFile(cfg2.SnapshotPath, []shardState{st}); err != nil {
				t.Fatal(err)
			}
			srv2, err := New(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Restore panicked: %v", r)
				}
			}()
			_, err = srv2.Restore()
			if err == nil || !strings.Contains(err.Error(), "shard d0") {
				t.Fatalf("Restore = %v, want an error naming shard d0", err)
			}
			sh2, err := srv2.Shard("d0")
			if err != nil {
				t.Fatal(err)
			}
			if stack := sh2.mgr.Snapshot().StackPages; sh2.Consumed() != 0 || sh2.Periods() != 0 || len(stack) != 0 {
				t.Fatalf("a rejected restore changed the shard: consumed %d, periods %d, stack %d", sh2.Consumed(), sh2.Periods(), len(stack))
			}
		})
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}
