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
// at a time (one-request IngestBatch blocks), in random-size blocks,
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
// requests and cache accesses, and the two shards on the open period's
// state, which a histogram fed the model's depths page by page must
// match too. It runs on the generated trace and on a split-range version
// of it.
func TestServeRunPassMatchesPerRequest(t *testing.T) {
	_, tr := encodeTrace(t, testTrace(t, 55))
	t.Run("whole-ranges", func(t *testing.T) { testServeRunPass(t, tr) })
	t.Run("split-ranges", func(t *testing.T) { testServeRunPass(t, splitRangeTrace(tr, 2)) })
}

func testServeRunPass(t *testing.T, tr *trace.Trace) {
	cfg := testConfig(&decisionLog{})
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

	p := one.mgr.Params()
	var (
		perPage               = lrusim.NewStackSim(int(cfg.InstalledMem / cfg.PageSize))
		hist                  = lrusim.NewDepthHist(int64(p.BankSize/p.PageSize), p.TotalBanks, p.MinBanks, p.Window)
		boundary              = cfg.Period
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
			if err := one.IngestBatch([]trace.Request{req}); err != nil {
				t.Fatal(err)
			}
			for req.Time >= boundary {
				allMisses, allRuns, allRefs = allMisses+misses, allRuns+reqRuns, allRefs+refs
				misses, reqRuns, refs = 0, 0, 0
				hist.Reset()
				boundary += cfg.Period
			}
			for k := int64(0); k < int64(req.Pages); k++ {
				page := req.FirstPage + k
				refs++
				depth := perPage.Reference(page)
				hist.ObserveRuns([]lrusim.DepthRun{{Time: req.Time, Page: page, Pages: 1, Depth: int32(depth)}}, cfg.PageSize)
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
			sh.mu.Lock()
			open := sh.mgr.Snapshot().Open
			sh.mu.Unlock()
			if !reflect.DeepEqual(open, hist.State(cfg.PageSize)) {
				t.Fatalf("after %d requests: %s open period differs from the model's", i, name)
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
