package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/trace"
)

// badPageRanges are requests the stack cannot take: a negative first
// page (what the text codec parses from "-7", and what a binary
// first-page uvarint of 2^63 or more decodes to), and a range whose last
// page overflows int64.
var badPageRanges = []struct {
	name  string
	first int64
	pages int32
}{
	{"negative", -7, 1},
	{"uvarint-2^63", math.MinInt64, 1},
	{"overflow", math.MaxInt64 - 2, 5},
}

// withRequest returns a copy of tr with request k's page range replaced.
func withRequest(tr *trace.Trace, k int, first int64, pages int32) *trace.Trace {
	out := *tr
	out.Requests = append([]trace.Request(nil), tr.Requests...)
	out.Requests[k].FirstPage = first
	out.Requests[k].Pages = pages
	return &out
}

// shardView is the shard state a rejected request must leave untouched.
type shardView struct {
	Consumed, Periods, CacheAcc, Misses, ReqRuns, RefsTotal int64
	Log                                                     []any
	Stack                                                   []int64
}

func viewOf(sh *Shard) shardView {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v := shardView{
		Consumed: sh.consumed, Periods: sh.periodIdx, CacheAcc: sh.cacheAcc,
		Misses: sh.misses, ReqRuns: sh.reqRuns, RefsTotal: sh.refsTotal,
		Stack: sh.stack.SnapshotPages(),
	}
	for _, r := range sh.periodLog {
		v.Log = append(v.Log, r)
	}
	return v
}

// TestIngestBatchRejectsInvalidPageRange: a block carrying a request
// whose page range leaves [0, 2^63) gets an error naming the disk and the
// request's stream index instead of a panic. The requests before it are
// served exactly as a shard fed only those requests serves them —
// decisions included, also when the rejected request's timestamp would
// have closed a period — and another shard of the same server keeps
// ingesting.
func TestIngestBatchRejectsInvalidPageRange(t *testing.T) {
	_, tr := encodeTrace(t, testTrace(t, 53))
	crossing := 0 // the first request past the third period boundary
	for tr.Requests[crossing].Time < 3*testConfig(nil).Period {
		crossing++
	}
	for _, mode := range []core.DecideMode{core.ModeBatch, core.ModeIncremental} {
		for _, k := range []int{0, crossing, 2 * len(tr.Requests) / 3} {
			for _, bad := range badPageRanges {
				reqs := withRequest(tr, k, bad.first, bad.pages).Requests

				refLog := &decisionLog{}
				refCfg := testConfig(refLog)
				refCfg.Decide = mode
				refSrv, err := New(refCfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := refSrv.Shard("d0")
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.IngestBatch(reqs[:k]); err != nil {
					t.Fatal(err)
				}

				log := &decisionLog{}
				cfg := testConfig(log)
				cfg.Decide = mode
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sh, err := srv.Shard("d0")
				if err != nil {
					t.Fatal(err)
				}
				other, err := srv.Shard("d1")
				if err != nil {
					t.Fatal(err)
				}
				err = sh.IngestBatch(reqs)
				if err == nil {
					t.Fatalf("%s/%v/request %d: IngestBatch accepted first page %d with %d pages", bad.name, mode, k, bad.first, bad.pages)
				}
				if msg := err.Error(); !strings.Contains(msg, "disk d0") || !strings.Contains(msg, fmt.Sprintf("request %d:", k)) {
					t.Fatalf("%s/%v/request %d: error %q does not name the disk and the stream index", bad.name, mode, k, msg)
				}
				if got, want := viewOf(sh), viewOf(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v/request %d: the requests before the rejected one were not served as a shard fed only them serves them", bad.name, mode, k)
				}
				if got, want := log.list(), refLog.list(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v/request %d: %d decisions, a shard fed only the valid prefix publishes %d", bad.name, mode, k, len(got), len(want))
				}
				if err := other.IngestBatch(tr.Requests); err != nil {
					t.Fatalf("%s/%v/request %d: the server's other shard stopped ingesting: %v", bad.name, mode, k, err)
				}
				if got := other.Consumed(); got != int64(len(tr.Requests)) {
					t.Fatalf("%s/%v/request %d: other shard consumed %d of %d requests", bad.name, mode, k, got, len(tr.Requests))
				}
			}
		}
	}

	// The largest range that stays in [0, 2^63) is accepted.
	srv, err := New(testConfig(&decisionLog{}))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	last := []trace.Request{{Time: 1, FirstPage: math.MaxInt64 - 4, Pages: 5, Bytes: 1}}
	if err := sh.IngestBatch(last); err != nil {
		t.Fatalf("range ending at page 2^63-1 rejected: %v", err)
	}
}

// TestServeStreamRejectsInvalidPageRange sends a stream carrying an
// invalid page range through ServeStream in both codecs, while a second
// connection streams a clean trace into another shard of the same
// server. The bad stream ends with an error naming its disk and the
// request's stream index; the daemon does not panic, and the other
// shard's decisions match an uninterrupted run.
func TestServeStreamRejectsInvalidPageRange(t *testing.T) {
	clean, tr := encodeTrace(t, testTrace(t, 54))
	k := len(tr.Requests) / 2
	cfg := testConfig(nil)
	cfg.Decide = core.ModeIncremental
	want := runUninterrupted(t, tr, cfg)
	codecs := []struct {
		name  string
		write func(*bytes.Buffer, *trace.Trace) error
	}{
		{"binary", func(b *bytes.Buffer, t *trace.Trace) error { return trace.WriteBinary(b, t) }},
		{"text", func(b *bytes.Buffer, t *trace.Trace) error { return trace.WriteText(b, t) }},
	}
	for _, codec := range codecs {
		for _, bad := range badPageRanges {
			var data bytes.Buffer
			if err := codec.write(&data, withRequest(tr, k, bad.first, bad.pages)); err != nil {
				t.Fatal(err)
			}
			log := &decisionLog{}
			c := cfg
			c.OnDecision = log.add
			srv, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			serveOne := func(disk string, data []byte) error {
				sh, err := srv.Shard(disk)
				if err != nil {
					return err
				}
				st, err := trace.SniffStream(bufio.NewReader(bytes.NewReader(data)))
				if err != nil {
					return err
				}
				return srv.ServeStream(sh, st, StreamOptions{Ring: 64, Block: 16})
			}
			var wg sync.WaitGroup
			var badErr, cleanErr error
			wg.Add(2)
			go func() { defer wg.Done(); badErr = serveOne("d0", data.Bytes()) }()
			go func() { defer wg.Done(); cleanErr = serveOne("d1", clean) }()
			wg.Wait()
			if badErr == nil {
				t.Fatalf("%s/%s: ServeStream accepted request %d with first page %d and %d pages", codec.name, bad.name, k, bad.first, bad.pages)
			}
			if msg := badErr.Error(); !strings.Contains(msg, "disk d0") || !strings.Contains(msg, fmt.Sprintf("request %d:", k)) {
				t.Fatalf("%s/%s: error %q does not name the disk and the stream index %d", codec.name, bad.name, msg, k)
			}
			if cleanErr != nil {
				t.Fatalf("%s/%s: the other shard's stream failed: %v", codec.name, bad.name, cleanErr)
			}
			sh, _ := srv.Shard("d0")
			if got := sh.Consumed(); got != int64(k) {
				t.Fatalf("%s/%s: bad stream consumed %d requests, want the %d before the rejected one", codec.name, bad.name, got, k)
			}
			var got []Decision
			for _, d := range log.list() {
				if d.Disk == "d1" {
					d.Disk = "d0"
					got = append(got, d)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: other shard published %d decisions, the uninterrupted run %d", codec.name, bad.name, len(got), len(want))
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
