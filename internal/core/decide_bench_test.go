package core

import (
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
)

// benchDecideSetup builds a paper-scale decision problem: 128 GB of
// 16 MB banks (64 KB pages), a 256k-reference period log whose Zipf
// reuse spans thousands of banks, and a 32-candidate pass limit — the
// configuration whose Fig. 7/8 inner loop the sweep accelerates.
func benchDecideSetup(b *testing.B, sequential bool) (*Manager, Observation) {
	b.Helper()
	p := DefaultParams(64*simtime.KB, 16*simtime.MB, 8192, disk.Barracuda(), mem.RDRAM(16*simtime.MB))
	p.HysteresisFrac = -1 // pure optimiser: identical work every iteration
	p.SequentialReplay = sequential
	m, err := NewManager(p)
	if err != nil {
		b.Fatal(err)
	}
	obs := zipfObservation(p, 1<<18, 1<<20, 42)
	return m, obs
}

// BenchmarkDecide measures one full joint decision — all refinement
// passes — on the multi-threshold sweep path with parallel candidate
// pricing.
func BenchmarkDecide(b *testing.B) {
	m, obs := benchDecideSetup(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(obs)
	}
}

// BenchmarkDecideIncremental measures the incremental hot path: the
// references are streamed through Ingest once, outside the timed region
// (in production that cost rides on request handling, spread across the
// whole period — BenchmarkIngest prices it), so the measurement is
// exactly what a period boundary costs: Fenwick prefix-sum
// materialisation plus slate pricing over the finished gap log. The
// timed body is DecideIncremental minus the end-of-period hist.Reset —
// GapStream.Finish is idempotent, so the same ingested period can be
// decided repeatedly.
func BenchmarkDecideIncremental(b *testing.B) {
	m, obs := benchDecideSetup(b, false)
	for j := range obs.Log {
		m.Ingest(obs.Log[j])
	}
	inc := Observation{
		CacheAccesses:  obs.CacheAccesses,
		CoalesceFactor: obs.CoalesceFactor,
		PeriodStart:    obs.PeriodStart,
		PeriodEnd:      obs.PeriodEnd,
		CurrentBanks:   obs.CurrentBanks,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := m.inputFromHist(&inc)
		m.decideFrom(in)
	}
}

// BenchmarkIngest measures the per-reference cost of the streaming
// observation path: depth-histogram maintenance (Fenwick update) plus the
// bank-space gap log. Reported per reference, it is the tax Ingest adds
// to request handling so the period boundary can run in O(banks + gaps).
func BenchmarkIngest(b *testing.B) {
	m, obs := benchDecideSetup(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range obs.Log {
			m.Ingest(obs.Log[j])
		}
		m.DiscardPeriod()
	}
}

// BenchmarkIngestBatch is BenchmarkIngest through the block entry point:
// the same 256k references, as one-page runs, streamed in 4096-run
// blocks, the shape the daemon's ring drain feeds. The delta against
// BenchmarkIngest is what Fenwick-walk amortisation and hoisted per-call
// checks buy per reference, not what multi-page runs save;
// ci/check_ingest_speed.sh gates on batch strictly winning.
func BenchmarkIngestBatch(b *testing.B) {
	m, obs := benchDecideSetup(b, false)
	runs := pageRuns(obs.Log)
	const block = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log := runs
		for len(log) > 0 {
			n := block
			if n > len(log) {
				n = len(log)
			}
			m.IngestBatch(log[:n])
			log = log[n:]
		}
		m.DiscardPeriod()
	}
}

// BenchmarkDecideReplayReference is the retained pre-sweep reference: the
// same decision computed by replaying the log once per candidate size,
// serially. Compare ns/op and allocs/op against BenchmarkDecide.
func BenchmarkDecideReplayReference(b *testing.B) {
	m, obs := benchDecideSetup(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(obs)
	}
}
