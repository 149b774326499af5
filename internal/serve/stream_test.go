package serve

import (
	"bufio"
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// encodeTrace renders a trace in its binary stream form, as a socket
// client would send it, and re-decodes it: the codec quantizes times to
// microseconds, so differentials against the stream pipeline must use
// the decoded requests as their reference input, not the generator's
// raw floats.
func encodeTrace(t *testing.T, tr *trace.Trace) ([]byte, *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), dec
}

// runServeStream pumps the encoded trace through the full batched
// pipeline — block decode, ring, drain — and returns the decisions.
func runServeStream(t *testing.T, data []byte, cfg Config, opt StreamOptions) []Decision {
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
	st, err := trace.SniffStream(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeStream(sh, st, opt); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return log.list()
}

// TestServeBatchedIngestMatches is the batched-pipeline differential:
// the decision stream must be bit-identical whether requests arrive one
// at a time (Shard.Ingest), in random-size blocks (Shard.IngestBatch),
// or through the full ServeStream pipeline (block decode into a ring,
// drained in blocks) — including a deliberately tiny ring that forces
// constant producer backpressure.
func TestServeBatchedIngestMatches(t *testing.T) {
	data, tr := encodeTrace(t, testTrace(t, 51))
	cfg := testConfig(nil)
	want := runUninterrupted(t, tr, cfg)
	if len(want) < 10 {
		t.Fatalf("reference run closed only %d periods", len(want))
	}

	// Random-size direct batches.
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
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < len(tr.Requests); {
		j := i + 1 + rng.Intn(97)
		if j > len(tr.Requests) {
			j = len(tr.Requests)
		}
		if err := sh.IngestBatch(tr.Requests[i:j]); err != nil {
			t.Fatal(err)
		}
		i = j
	}
	if err := sh.FinishTo(tr.Duration); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := log.list(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IngestBatch decision stream diverges (got %d, want %d decisions)", len(got), len(want))
	}

	if got := runServeStream(t, data, cfg, StreamOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ServeStream decision stream diverges (got %d, want %d decisions)", len(got), len(want))
	}
	tiny := StreamOptions{Ring: 8, Block: 3}
	if got := runServeStream(t, data, cfg, tiny); !reflect.DeepEqual(got, want) {
		t.Fatalf("ServeStream(tiny ring) decision stream diverges (got %d, want %d decisions)", len(got), len(want))
	}
}

// TestServeRunPassMatchesPerRequest checks the run pass's accounting
// against an independent per-page model of the daemon's hit prediction —
// a stack referenced one page at a time (lrusim's tests hold Reference to
// the textbook LRU list) and the per-request run coalescing the simulator
// uses. After every random-size block, the shard fed one request at a
// time (Ingest), the shard fed the block whole (IngestBatch) and the
// model must agree on the period's predicted misses, coalesced disk
// requests, cache accesses and depth log, read page by page. It runs on
// the generated trace and on a split-range version of it.
func TestServeRunPassMatchesPerRequest(t *testing.T) {
	_, tr := encodeTrace(t, testTrace(t, 55))
	t.Run("whole-ranges", func(t *testing.T) { testServeRunPass(t, tr) })
	t.Run("split-ranges", func(t *testing.T) { testServeRunPass(t, splitRangeTrace(tr, 2)) })
}

func testServeRunPass(t *testing.T, tr *trace.Trace) {
	cfg := testConfig(&decisionLog{})
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "log.snap") // a shard logs its period only to checkpoint it
	shards := make([]*Shard, 2)
	for i := range shards {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shards[i], err = srv.Shard("d0"); err != nil {
			t.Fatal(err)
		}
	}
	one, bat := shards[0], shards[1]

	var (
		perPage               = lrusim.NewStackSim(int(cfg.InstalledMem / cfg.PageSize))
		boundary              = cfg.Period
		log                   []logRecord
		misses, reqRuns, refs int64
		runStart, runLen      int64 = -1, 0
		// Totals over closed periods.
		allMisses, allRuns, allRefs int64
	)
	flush := func() {
		if runLen > 0 {
			reqRuns++
			runStart, runLen = -1, 0
		}
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < len(tr.Requests); {
		j := min(i+1+rng.Intn(97), len(tr.Requests))
		for _, req := range tr.Requests[i:j] {
			if err := one.Ingest(req); err != nil {
				t.Fatal(err)
			}
			for req.Time >= boundary {
				allMisses, allRuns, allRefs = allMisses+misses, allRuns+reqRuns, allRefs+refs
				log, misses, reqRuns, refs = log[:0], 0, 0, 0
				boundary += cfg.Period
			}
			for k := int64(0); k < int64(req.Pages); k++ {
				page := req.FirstPage + k
				refs++
				depth := perPage.Reference(page)
				log = append(log, logRecord{Time: float64(req.Time), Page: page, Depth: int64(depth), Bytes: int64(cfg.PageSize)})
				if depth != lrusim.Cold && int64(depth) <= one.curPages {
					flush()
					continue
				}
				misses++
				if runLen > 0 && page == runStart+runLen {
					runLen++
				} else {
					flush()
					runStart, runLen = page, 1
				}
			}
			flush()
		}
		if err := bat.IngestBatch(tr.Requests[i:j]); err != nil {
			t.Fatal(err)
		}
		i = j
		for name, sh := range map[string]*Shard{"Ingest": one, "IngestBatch": bat} {
			if sh.misses != misses || sh.reqRuns != reqRuns || sh.cacheAcc != refs {
				t.Fatalf("after %d requests: %s misses/reqRuns/cacheAcc %d/%d/%d, model %d/%d/%d",
					i, name, sh.misses, sh.reqRuns, sh.cacheAcc, misses, reqRuns, refs)
			}
			if !reflect.DeepEqual(convertLog(sh.periodLog, cfg.PageSize), append([]logRecord{}, log...)) {
				t.Fatalf("after %d requests: %s period log differs from the model's", i, name)
			}
			if sh.consumed != int64(i) {
				t.Fatalf("%s consumed %d of %d requests", name, sh.consumed, i)
			}
		}
	}
	if one.periodIdx < 10 || one.periodIdx != bat.periodIdx {
		t.Fatalf("%d and %d periods closed", one.periodIdx, bat.periodIdx)
	}
	// Hits, misses and multi-page disk requests must all occur for the
	// comparison to cover the coalescing.
	if !(allRefs > allMisses && allMisses > allRuns && allRuns > 0) {
		t.Fatalf("%d refs, %d misses, %d disk requests: the stream does not exercise coalescing", allRefs, allMisses, allRuns)
	}
}

// TestPeriodLogCapacityFollowsLength checks that the period log's
// footprint depends on the periods' run streams alone: shards fed the
// same periods one request at a time, in random-size blocks and in one
// block end with the same capacity. Every request of the stream repeats
// a two-page range whole (or is its cold first reference), so it logs
// one run; serve makes room for a run per page before each request, so
// the capacity is the ladder step of the longest period's runs plus one,
// within a quarter of its length. A shard that never checkpoints keeps
// no log at all.
func TestPeriodLogCapacityFollowsLength(t *testing.T) {
	const pages = 2
	cfg := testConfig(&decisionLog{})
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "log.snap") // a shard logs its period only to checkpoint it
	var reqs []trace.Request
	longest := 0
	lengths := []int{90_000, 210_000, 120_000}
	for p, n := range lengths {
		for i := 0; i < n; i++ {
			reqs = append(reqs, trace.Request{
				Time:      cfg.Period * (simtime.Seconds(p) + simtime.Seconds(i)/simtime.Seconds(n)),
				FirstPage: int64(i*pages) % 4096,
				Pages:     pages,
			})
		}
		longest = max(longest, n)
	}
	want := logCap(longest + pages - 1)
	rng := rand.New(rand.NewSource(3))
	splits := map[string]func(i int) int{
		"per request":  func(i int) int { return i + 1 },
		"random block": func(i int) int { return i + 1 + rng.Intn(5000) },
		"one block":    func(int) int { return len(reqs) },
	}
	for name, next := range splits {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := srv.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(reqs); {
			j := min(next(i), len(reqs))
			if err := sh.IngestBatch(reqs[i:j]); err != nil {
				t.Fatal(err)
			}
			i = j
		}
		if sh.periodIdx != 2 {
			t.Fatalf("%s: %d periods closed, want 2", name, sh.periodIdx)
		}
		if got := len(sh.periodLog); got != lengths[2] {
			t.Fatalf("%s: the open period logged %d runs for %d requests", name, got, lengths[2])
		}
		if got := cap(sh.periodLog); got != want {
			t.Fatalf("%s: period log capacity %d, want %d for a longest period of %d runs", name, got, want, longest)
		}
	}
	if longest <= logSmoothCap || 4*want > 5*longest {
		t.Fatalf("a longest period of %d runs takes capacity %d: not above %d runs, or more than a quarter of slack", longest, want, logSmoothCap)
	}

	// Without a snapshot path nothing reads the log, and none is kept.
	cfg.SnapshotPath = ""
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.IngestBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if cap(sh.periodLog) != 0 {
		t.Fatalf("a shard that never checkpoints holds a period log of %d runs", cap(sh.periodLog))
	}
}

// TestWarmRestartBatchedParity reruns the warm-restart acceptance
// criterion through the batched pipeline: first life ingests blocks up
// to a mid-period cut and checkpoints on Close; second life restores
// and replays the full stream through ServeStream, whose skip logic
// must drop exactly the consumed prefix. The combined decision stream
// must match the uninterrupted run bit for bit.
func TestWarmRestartBatchedParity(t *testing.T) {
	data, tr := encodeTrace(t, testTrace(t, 52))
	base := testConfig(nil)
	want := runUninterrupted(t, tr, base)

	for _, cut := range []int{1, len(tr.Requests) / 3, len(tr.Requests) - 1} {
		snap := filepath.Join(t.TempDir(), "daemon.snap")

		log1 := &decisionLog{}
		cfg := base
		cfg.OnDecision = log1.add
		cfg.SnapshotPath = snap
		srv1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh1, err := srv1.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i += 64 {
			j := min(i+64, cut)
			if err := sh1.IngestBatch(tr.Requests[i:j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv1.Close(); err != nil {
			t.Fatal(err)
		}

		log2 := &decisionLog{}
		cfg2 := base
		cfg2.OnDecision = log2.add
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
		if got := sh2.Consumed(); got != int64(cut) {
			t.Fatalf("cut %d: checkpoint consumed %d", cut, got)
		}
		st, err := trace.SniffStream(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv2.ServeStream(sh2, st, StreamOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := srv2.Close(); err != nil {
			t.Fatal(err)
		}

		got := append(log1.list(), log2.list()...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: batched restart decision stream diverges (got %d, want %d decisions)", cut, len(got), len(want))
		}
	}
}

// TestRefitDriftSnapshotKeepsMode: the drift-hold fraction rides the
// snapshot, so a warm restart keeps the checkpointed mode in either
// direction — a flagless restart of a drift-enabled daemon stays
// enabled, and a flag-enabled restart of a drift-free snapshot stays
// off.
func TestRefitDriftSnapshotKeepsMode(t *testing.T) {
	tr := testTrace(t, 53)
	run := func(drift float64, snap string) {
		cfg := testConfig(&decisionLog{})
		cfg.RefitDriftFrac = drift
		cfg.SnapshotPath = snap
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := srv.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.IngestBatch(tr.Requests[:500]); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	restart := func(drift float64, snap string) *Shard {
		cfg := testConfig(&decisionLog{})
		cfg.RefitDriftFrac = drift
		cfg.SnapshotPath = snap
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Restore(); err != nil {
			t.Fatal(err)
		}
		sh, err := srv.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}

	onSnap := filepath.Join(t.TempDir(), "on.snap")
	run(0.07, onSnap)
	if got := restart(0, onSnap).mgr.Params().RefitDriftFrac; got != 0.07 {
		t.Fatalf("flagless restart of drift-enabled snapshot: frac = %g, want 0.07", got)
	}

	offSnap := filepath.Join(t.TempDir(), "off.snap")
	run(0, offSnap)
	if got := restart(core.DefaultRefitDriftFrac, offSnap).mgr.Params().RefitDriftFrac; got != 0 {
		t.Fatalf("flag-enabled restart of drift-free snapshot: frac = %g, want 0", got)
	}
}

// TestRefitDriftPreV3Sentinel: a version-2 payload has no drift field;
// decoding it must yield the -1 sentinel, and restoring a sentinel
// state must keep the restarted process's configured fraction.
func TestRefitDriftPreV3Sentinel(t *testing.T) {
	st := shardState{Name: "d0", NextBoundary: 120, RefitDrift: 0.05}
	v2 := encodePayload([]shardState{st}, 2)
	states, err := decodePayload(v2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].RefitDrift != -1 {
		t.Fatalf("v2 decode RefitDrift = %g, want -1 sentinel", states[0].RefitDrift)
	}

	// Capture a real shard state, mark it pre-v3, restore it into a
	// drift-configured server: the configured value must survive.
	tr := testTrace(t, 54)
	cfg := testConfig(&decisionLog{})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.IngestBatch(tr.Requests[:200]); err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	old, log := sh.state()
	sh.mu.Unlock()
	old.Log = convertLog(log, sh.pageSize)
	old.RefitDrift = -1

	cfg2 := testConfig(&decisionLog{})
	cfg2.RefitDriftFrac = 0.05
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sh2, err := srv2.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh2.restore(old); err != nil {
		t.Fatal(err)
	}
	if got := sh2.mgr.Params().RefitDriftFrac; got != 0.05 {
		t.Fatalf("sentinel restore: frac = %g, want configured 0.05", got)
	}
}

// TestCheckpointDuringIngest races the checkpoint path against a
// batching ingester (run under -race in CI): checkpoints land on
// request-block boundaries, never torn, and the final snapshot restores
// at the exact stream position.
func TestCheckpointDuringIngest(t *testing.T) {
	tr := testTrace(t, 55)
	snap := filepath.Join(t.TempDir(), "daemon.snap")
	cfg := testConfig(&decisionLog{})
	cfg.SnapshotPath = snap
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < len(tr.Requests); i += 64 {
			j := min(i+64, len(tr.Requests))
			if err := sh.IngestBatch(tr.Requests[i:j]); err != nil {
				done <- err
				return
			}
		}
		done <- sh.FinishTo(tr.Duration)
	}()
	for i := 0; i < 50; i++ {
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
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
	if _, err := srv2.Restore(); err != nil {
		t.Fatal(err)
	}
	sh2, err := srv2.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if got := sh2.Consumed(); got != int64(len(tr.Requests)) {
		t.Fatalf("final checkpoint consumed %d, want %d", got, len(tr.Requests))
	}
}

// TestIngestorBackpressure drives a ring far smaller than the request
// count, so the producer repeatedly blocks on a full ring and the
// consumer repeatedly sleeps on an empty one; every request must still
// arrive, in order, exactly once.
func TestIngestorBackpressure(t *testing.T) {
	tr := testTrace(t, 56)
	cfg := testConfig(&decisionLog{})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	ing := newIngestor(sh, 4, 3, nil)
	for i := range tr.Requests {
		if err := ing.Push(tr.Requests[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sh.Consumed(); got != int64(len(tr.Requests)) {
		t.Fatalf("consumed %d of %d pushed requests", got, len(tr.Requests))
	}
	if n, c := ing.Occupancy(); n != 0 || c != 4 {
		t.Fatalf("closed ring occupancy = %d/%d, want 0/4", n, c)
	}
}
