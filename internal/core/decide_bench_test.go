package core

import (
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/mem"
	"jointpm/internal/obs"
	"jointpm/internal/simtime"
)

// benchDecideSetup builds a paper-scale decision problem: 128 GB of
// 16 MB banks (64 KB pages), a 256k-reference period log whose Zipf
// reuse spans thousands of banks, and a 32-candidate pass limit — the
// configuration whose Fig. 7/8 inner loop the sweep accelerates.
func benchDecideSetup(b *testing.B) (*Manager, batchObs) {
	b.Helper()
	p := DefaultParams(64*simtime.KB, 16*simtime.MB, 8192, disk.Barracuda(), mem.RDRAM(16*simtime.MB))
	p.HysteresisFrac = -1 // pure optimiser: identical work every iteration
	m, err := NewManager(p)
	if err != nil {
		b.Fatal(err)
	}
	obs := zipfObservation(p, 1<<18, 1<<20, 42)
	return m, obs
}

// BenchmarkDecide measures one full joint decision — all refinement
// passes — through the batch oracle: the period log reduced to the
// kernel's input form, then the slate search. It is the baseline
// ci/check_decide_speed.sh holds BenchmarkDecideIncremental under.
func BenchmarkDecide(b *testing.B) {
	m, obs := benchDecideSetup(b)
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
// exactly what a period boundary costs: the depth profile's prefix sums
// over the reached banks plus slate pricing over the finished gap log.
// The timed body is DecideIncremental minus the end-of-period
// hist.Reset — GapStream.Finish is idempotent, so the same ingested
// period can be decided repeatedly. This period reaches about half the
// installed banks, so its cost is dominated by its large gap log.
func BenchmarkDecideIncremental(b *testing.B) {
	m, obs := benchDecideSetup(b)
	inc := feedIncremental(m, obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := m.inputFromHist(&inc)
		m.decideFrom(in)
	}
}

// BenchmarkIngest measures the per-reference cost of the streaming
// observation path: depth-histogram maintenance (one bucket update) plus
// the bank-space gap log, with one IngestBatch call per reference (the
// 256k references as one-page runs). It is the tax ingest adds to request
// handling so the period boundary can run in O(banks + gaps), paid
// without any block amortisation.
func BenchmarkIngest(b *testing.B) {
	m, obs := benchDecideSetup(b)
	runs := pageRuns(obs.Log)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range runs {
			m.IngestBatch(runs[j : j+1])
		}
		m.DiscardPeriod()
	}
}

// BenchmarkIngestBatch is BenchmarkIngest in blocks: the same 256k
// one-page runs streamed in 4096-run blocks, the shape of a large ring
// drain pass. The delta against BenchmarkIngest is what the per-call work
// amortised over a block and the block-wide gap-log feed buy per
// reference, not what multi-page runs save; ci/check_ingest_speed.sh
// gates on blocks strictly winning.
func BenchmarkIngestBatch(b *testing.B) {
	m, obs := benchDecideSetup(b)
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

// BenchmarkDecideReplayReference is the retained pre-sweep reference: it
// prices every size BenchmarkDecide's decision priced by replaying the
// log once per size, serially, from one depth profile per decision —
// the pricing work of the paper's literal procedure, without the search
// bookkeeping. Compare ns/op and allocs/op against BenchmarkDecide.
func BenchmarkDecideReplayReference(b *testing.B) {
	m, obs := benchDecideSetup(b)
	d := m.Decide(obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := buildDepthProfile(obs.Log, m.p.bankPages(), m.p.TotalBanks)
		for _, c := range d.Candidates {
			m.evaluate(obs, c.Banks, prof)
		}
	}
}

// benchDecideLight times one boundary of a light period at the geometry
// of a many-bank daemon shard (16 KB pages, 64 KB banks, 60 s period,
// four-level ladder): 4,096 references reaching about 750 banks, ingested
// once, decided with the given number of installed banks. The timed body
// is BenchmarkDecideIncremental's.
func benchDecideLight(b *testing.B, banks int) {
	p := boundaryParams()
	p.TotalBanks = banks
	p.HysteresisFrac = -1 // pure optimiser: identical work every iteration
	m, err := NewManager(p)
	if err != nil {
		b.Fatal(err)
	}
	o := feedIncremental(m, lightStream(p, []int{750})[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := m.inputFromHist(&o)
		m.decideFrom(in)
	}
}

// BenchmarkDecideLight1K and BenchmarkDecideLight64K decide the same light
// period at 1,024 and at 65,536 installed banks. A boundary costs
// O(banks reached + gaps), so the two must run in about the same time;
// ci/check_decide_speed.sh fails if the 64K one takes twice as long.
func BenchmarkDecideLight1K(b *testing.B) { benchDecideLight(b, 1<<10) }

func BenchmarkDecideLight64K(b *testing.B) { benchDecideLight(b, 1<<16) }

// BenchmarkDecideCapped decides BenchmarkDecideLight1K's period the way a
// capped daemon shard does: under a binding power budget, with the
// default hysteresis, a metrics registry attached and the disk running
// at a slower level. That drives what the light benchmarks skip: the
// hysteresis probe riding the final slate pass, the re-pricing of full
// speed off the current level, the delay-attribution fold and the budget
// filter. Each iteration starts from the same previous decision, all
// banks at level 2, so each does the same work.
func BenchmarkDecideCapped(b *testing.B) {
	p := boundaryParams()
	p.TotalBanks = 1 << 10
	p.Metrics = obs.NewRegistry()
	m, err := NewManager(p)
	if err != nil {
		b.Fatal(err)
	}
	m.SetPowerBudget(boundaryBudgetW)
	start := Decision{Banks: p.TotalBanks, Pages: int64(p.TotalBanks) * p.bankPages(),
		Timeout: p.DiskSpec.BreakEven(), Level: 2}
	o := feedIncremental(m, lightStream(p, []int{750})[0])
	m.last = start
	d := m.decideFrom(m.inputFromHist(&o))
	over, rider := 0, false
	for _, c := range d.Candidates {
		if c.OverBudget {
			over++
		}
		rider = rider || c.Banks == start.Banks
	}
	// The attribution fold runs when some size is both floor-clamped and
	// priced out of spinning down; by counting, some is when the two
	// counts add up to more than the sizes priced.
	reg := p.Metrics
	attributed := reg.CounterValue("core.decide.eq6_clamped") + reg.CounterValue("core.decide.spindown_disabled") -
		reg.CounterValue("core.decide.candidates_priced")
	if !rider || over == 0 || over == len(d.Candidates) || attributed <= 0 {
		b.Fatalf("the capped boundary misses a path: rider priced %v, %d of %d sizes over budget, %d sizes attributed",
			rider, over, len(d.Candidates), attributed)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.last = start
		in := m.inputFromHist(&o)
		m.decideFrom(in)
	}
}
