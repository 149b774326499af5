package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
)

// pageRuns returns the records of log as one-page depth runs; every
// record must carry the page size.
func pageRuns(log []lrusim.DepthRecord) []lrusim.DepthRun {
	runs := make([]lrusim.DepthRun, len(log))
	for i, r := range log {
		runs[i] = lrusim.DepthRun{Time: r.Time, Page: r.Page, Pages: 1, Depth: int32(r.Depth)}
	}
	return runs
}

// feedIncrementalBatch streams one period's log through IngestBatch, as
// one-page runs in random chunk sizes, interleaved with single-record
// Ingest calls, and strips the log like feedIncremental: the two entry
// points must be interchangeable mid-period.
func feedIncrementalBatch(m *Manager, o Observation, rng *rand.Rand) Observation {
	runs := pageRuns(o.Log)
	for off := 0; off < len(o.Log); {
		n := 1 + rng.Intn(len(o.Log)-off)
		if rng.Intn(4) == 0 {
			m.Ingest(o.Log[off])
			off++
			continue
		}
		m.IngestBatch(runs[off : off+n])
		off += n
	}
	o.Log = nil
	return o
}

// TestIngestBatchMatchesIngest: a manager fed whole periods through
// IngestBatch (in arbitrary chunk sizes, mixed with single-record
// Ingest) must produce decisions bit-identical to a twin fed one record
// at a time — including across an empty period and the carried state the
// next period depends on.
func TestIngestBatchMatchesIngest(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	ref, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	t0 := simtime.Seconds(0)
	for period := 0; period < 5; period++ {
		o := zipfObservation(p, 3000+500*period, 1<<14, int64(3*period+1))
		if period == 3 {
			o.Log = nil
			o.CacheAccesses = 0
		}
		o.CurrentBanks = ref.Last().Banks
		o = shiftObservation(o, t0)
		t0 = o.PeriodEnd

		want := ref.DecideIncremental(feedIncremental(ref, o))
		got := bat.DecideIncremental(feedIncrementalBatch(bat, o, rng))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("period %d: batch-ingested decision diverges\nrecord: %+v\nbatch:  %+v",
				period, want, got)
		}
	}
}

// TestIngestBatchDiscardPeriod: a discarded batch-ingested period must
// leave no residue — the next period's decision matches a manager that
// never saw the discarded records (its buckets and pending event die
// with the period).
func TestIngestBatchDiscardPeriod(t *testing.T) {
	p := testParams()
	clean, _ := NewManager(p)
	dirty, _ := NewManager(p)

	warm := zipfObservation(p, 2000, 1<<14, 5)
	dirty.IngestBatch(pageRuns(warm.Log))
	dirty.DiscardPeriod()

	o := zipfObservation(p, 2500, 1<<14, 9)
	o = shiftObservation(o, warm.PeriodEnd)
	oc := o
	want := clean.DecideIncremental(feedIncremental(clean, oc))
	got := dirty.DecideIncremental(feedIncrementalBatch(dirty, o, rand.New(rand.NewSource(1))))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("discarded period leaked into the next decision\nclean: %+v\ndirty: %+v", want, got)
	}
}

// TestDriftHoldZeroDisabled: RefitDriftFrac = 0 (the default) must keep
// DecideIncremental bit-identical to batch Decide — the drift shortcut
// never fires. This is the 0-drift divergence bound: zero.
func TestDriftHoldZeroDisabled(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	p.RefitDriftFrac = 0
	batch, _ := NewManager(p)
	inc, _ := NewManager(p)
	t0 := simtime.Seconds(0)
	for period := 0; period < 4; period++ {
		o := zipfObservation(p, 2500, 1<<14, int64(period+31))
		o.CurrentBanks = batch.Last().Banks
		o = shiftObservation(o, t0)
		t0 = o.PeriodEnd
		want := batch.Decide(o)
		got := inc.DecideIncremental(feedIncremental(inc, o))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("period %d: drift frac 0 diverged from batch", period)
		}
	}
}

// TestDriftHoldSteadyState: with RefitDriftFrac enabled and a
// statistically stationary workload, the manager must settle into held
// decisions — single-candidate re-evaluations (Evaluated == 1) that keep
// the previous size — and every held decision's re-priced power must be
// within the configured fraction of the power the last full search
// assigned that size.
func TestDriftHoldSteadyState(t *testing.T) {
	p := testParams()
	p.RefitDriftFrac = DefaultRefitDriftFrac
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	t0 := simtime.Seconds(0)
	held := 0
	var prev Decision
	for period := 0; period < 6; period++ {
		// Same seed every period: the depth distribution is stationary, so
		// after the first full search the re-priced incumbent cannot drift.
		o := zipfObservation(p, 2500, 1<<14, 17)
		o.CurrentBanks = m.Last().Banks
		o = shiftObservation(o, t0)
		t0 = o.PeriodEnd
		d := m.DecideIncremental(feedIncremental(m, o))
		if period > 0 && d.Evaluated == 1 {
			held++
			if d.Banks != prev.Banks {
				t.Fatalf("period %d: held decision changed size %d -> %d", period, prev.Banks, d.Banks)
			}
			drift := math.Abs(float64(d.Chosen.TotalPower) - float64(prev.Chosen.TotalPower))
			if drift > p.RefitDriftFrac*float64(prev.Chosen.TotalPower) {
				t.Fatalf("period %d: held decision drift %.3g exceeds %.3g", period,
					drift, p.RefitDriftFrac*float64(prev.Chosen.TotalPower))
			}
		}
		prev = d
	}
	if held == 0 {
		t.Fatal("stationary workload never triggered a drift hold")
	}
}

// TestSetRefitDriftFrac: the runtime setter clamps garbage and the value
// lands in Params (the snapshot records Params, so this is what a warm
// restart preserves).
func TestSetRefitDriftFrac(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	m.SetRefitDriftFrac(0.07)
	if got := m.Params().RefitDriftFrac; got != 0.07 {
		t.Fatalf("RefitDriftFrac = %v, want 0.07", got)
	}
	m.SetRefitDriftFrac(-3)
	if got := m.Params().RefitDriftFrac; got != 0 {
		t.Fatalf("negative input: RefitDriftFrac = %v, want 0", got)
	}
	m.SetRefitDriftFrac(math.NaN())
	if got := m.Params().RefitDriftFrac; got != 0 {
		t.Fatalf("NaN input: RefitDriftFrac = %v, want 0", got)
	}
}
